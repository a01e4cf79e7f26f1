"""Actions: homomorphisms from an abstract generated group into model
isometries, given by generator-to-isometry assignments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import ValidationError
from .models import Isometry, SpaceModel
from .words import GroupWord

Letters = tuple[tuple[str, int], ...]


@dataclass
class Action:
    """One homomorphism: every generator name maps to an isometry of model.

    Inverse images are derived, so g and g^-1 compose to the identity by
    construction.
    """

    name: str
    model: SpaceModel
    images: dict[str, Isometry]

    def __post_init__(self):
        for gen, iso in self.images.items():
            self.model.require_iso(iso)

    def image(self, word: GroupWord) -> Isometry:
        """Composed syllable by syllable, each power by repeated squaring;
        the size cap is checked after each syllable."""
        model = self.model
        out = model.identity()
        for gen, e in word.syllables:
            if gen not in self.images:
                raise ValidationError(f"generator {gen!r} has no image in action {self.name!r}")
            out = model.capped(model.compose(out, model.power(self.images[gen], e)), "a word's image")
        return out

    def classify_word(self, word: GroupWord):
        return self.model.classify(self.image(word))


@dataclass
class ActionSystem:
    """A shared generator alphabet acting on several model spaces."""

    generators: tuple[str, ...]
    actions: list[Action]
    witnesses: list[Optional[GroupWord]] = field(default_factory=list)

    def __post_init__(self):
        if not self.generators:
            raise ValidationError("at least one generator required")
        if len(set(self.generators)) != len(self.generators):
            raise ValidationError("duplicate generator names")
        for gen in self.generators:
            if gen == "1" or "^" in gen:  # word text could not name it
                raise ValidationError(f"generator name {gen!r} cannot be written in a word")
        for action in self.actions:
            for gen in self.generators:
                if gen not in action.images:
                    raise ValidationError(
                        f"generator {gen!r} missing in action {action.name!r}"
                    )
        if not self.witnesses:
            self.witnesses = [None] * len(self.actions)
        if len(self.witnesses) != len(self.actions):
            raise ValidationError("witness list must align with actions")
        for w in self.witnesses:
            if w is not None:
                for gen, _ in w.syllables:
                    if gen not in self.generators:
                        raise ValidationError(f"witness uses unknown generator {gen!r}")

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def walk(self, action: Action, max_length: int) -> Iterator[tuple[Letters, Isometry]]:
        """Every freely reduced nonempty word up to the given length, with
        its image in action: level by level, letters in generator order,
        +1 before -1.

        Each image is its parent's image composed with one generator image
        (inverse images are computed once), and only the previous level is
        kept.
        """
        model = action.model
        steps = []
        for g in self.generators:
            image = action.images[g]
            steps.append(((g, 1), image))
            steps.append(((g, -1), model.invert(image)))
        level: list[tuple[Letters, Isometry]] = [((), model.identity())]
        for _ in range(max_length):
            nxt = []
            for letters, image in level:
                for letter, step in steps:
                    if letters and letters[-1] == (letter[0], -letter[1]):
                        continue
                    node = (letters + (letter,), model.compose(image, step))
                    nxt.append(node)
                    yield node
            level = nxt
