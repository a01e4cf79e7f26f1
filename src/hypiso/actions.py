"""Actions: homomorphisms from an abstract generated group into model
isometries, given by generator-to-isometry assignments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ValidationError
from .models import MAX_ISOMETRY_SIZE, Owned, SpaceModel
from .words import GroupWord


@dataclass
class Action:
    """One homomorphism: every generator name maps to an isometry of model.

    Inverse images are derived, so g and g^-1 compose to the identity by
    construction.
    """

    name: str
    model: SpaceModel
    images: dict[str, Owned]

    def __post_init__(self):
        # the model's require, once per image: image() composes the bare
        # payloads, and bounds their products' sizes from the generators' sizes
        self._payloads = {gen: self.model.require(iso) for gen, iso in self.images.items()}
        self._sizes = {gen: self.model.size(iso) for gen, iso in self.images.items()}

    def image(self, word: GroupWord) -> Owned:
        """Composed syllable by syllable on the bare payloads (see
        SpaceModel), each power by the model's ``_power`` (once per distinct
        syllable), and wrapped once.  A running bound on the image's size
        (``SpaceModel._power``'s rule) adds each power's plus 1; only a
        syllable that takes it past MAX_ISOMETRY_SIZE has its product checked:
        refused before it is built if the model's ``_least_size`` passes the cap, then sized."""
        model, payloads, mul = self.model, self._payloads, self.model._mul
        out, bound = None, -1  # the first power's bound is its own
        powers = {}
        for syllable in word.syllables:
            if (cached := powers.get(syllable)) is None:
                gen, e = syllable
                if gen not in payloads:
                    raise ValidationError(f"generator {gen!r} has no image in action {self.name!r}")
                p, size = payloads[gen], self._sizes[gen]
                cached = (p if e == 1 else model._inv(p), size) if e in (1, -1) else model._power(p, e, size)
                powers[syllable] = cached  # g and g^-1 as _power returns them, with g's size as bound
            power, power_bound = cached
            bound += power_bound + 1
            if bound <= MAX_ISOMETRY_SIZE:
                out = power if out is None else mul(out, power)
                continue
            if out is not None:
                model._sized(model._least_size(out, power), "a word's image")
            out = power if out is None else mul(out, power)
            bound = model._sized(model._size(out), "a word's image")
        return model.own(model._one if out is None else out)

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
            raise ValidationError("at least one generator required", "generators")
        if len(set(self.generators)) != len(self.generators):
            raise ValidationError("duplicate generator names", "generators")
        for gen in self.generators:
            if gen == "1" or "^" in gen:  # word text could not name it
                raise ValidationError(f"generator name {gen!r} cannot be written in a word", "generators")
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
