"""The 'hypiso-config v1' text format: parse, validate, build.

Line-oriented: a version header, a generators line, optional schedule
parameters, then one block per action.  Matrices are written as
[[p/q, p/q], [p/q, p/q]] with exact rationals; tree generator images are
words like "s t^2".  Parse errors carry 1-based line positions; semantic
problems (wrong determinant, unknown letters) raise ValidationError
naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .actions import Action, ActionSystem
from .errors import ParseError, ValidationError
from .halfplane import HalfPlaneModel
from .models import SpaceModel
from .quadratic import parse_rational
from .trees import BassSerreModel, CayleyTreeModel
from .words import GroupWord

CONFIG_HEADER = "hypiso-config v1"

_SCHEDULE_KEYS = {
    "max-exponent": "max_exponent",
    "seed": "seed",
    "orbit-depth": "orbit_depth",
    "word-sample-depth": "word_sample_depth",
    "ball-radius": "ball_radius",
}

_DEFAULTS = {
    "max_exponent": 32,
    "seed": 0,
    "orbit_depth": 64,
    "word_sample_depth": 3,
    "ball_radius": 8,
}

_NONNEGATIVE = ("max_exponent", "orbit_depth", "word_sample_depth", "ball_radius")


@dataclass
class ActionConfig:
    name: str
    kind: str = ""
    params: tuple[int, ...] = ()
    ball_radius: Optional[int] = None
    images: dict[str, str] = field(default_factory=dict)
    witness: Optional[str] = None
    line: int = 0


@dataclass
class SystemConfig:
    generators: tuple[str, ...]
    actions: list[ActionConfig]
    schedule: dict[str, int]

    def setting(self, key: str, override: Optional[int] = None) -> int:
        """The override (a CLI flag) if given, else the config value, else the
        default; every setting is read, and range-checked, here."""
        value = self.schedule.get(key, _DEFAULTS[key]) if override is None else override
        if key in _NONNEGATIVE and value < 0:
            raise ValidationError(f"must be >= 0, got {value}", key.replace("_", "-"))
        return value

    def build(self, ball_radius: Optional[int] = None) -> ActionSystem:
        return build_action_system(self, ball_radius)


def parse_config(text: str) -> SystemConfig:
    """Parse and fully validate (models, determinants, word alphabets)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ParseError(f"expected header {CONFIG_HEADER!r}", 1)
    generators: tuple[str, ...] = ()
    schedule: dict[str, int] = {}
    actions: list[ActionConfig] = []
    current: Optional[ActionConfig] = None

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "generators":
            if len(tokens) < 2:
                raise ParseError("generators line needs at least one name", lineno)
            generators = tuple(tokens[1:])
        elif key in _SCHEDULE_KEYS and current is None:
            _expect_args(tokens, 1, lineno)
            schedule[_SCHEDULE_KEYS[key]] = _parse_int(tokens[1], lineno)
        elif key == "action":
            _expect_args(tokens, 1, lineno)
            current = ActionConfig(name=tokens[1], line=lineno)
            actions.append(current)
        elif current is not None:
            _parse_action_line(current, key, tokens, line, lineno)
        else:
            raise ParseError(f"unexpected directive {key!r} before any action", lineno)

    if not generators:
        raise ParseError("missing generators line", len(lines))
    if not actions:
        raise ParseError("config defines no actions", len(lines))
    config = SystemConfig(generators=generators, actions=actions, schedule=schedule)
    for key in schedule:
        config.setting(key)  # range check
    build_action_system(config)  # full semantic validation
    return config


def _expect_args(tokens: list[str], n: int, lineno: int) -> None:
    if len(tokens) != n + 1:
        raise ParseError(f"{tokens[0]} expects {n} argument(s)", lineno)


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", lineno, 1)


def _parse_action_line(action: ActionConfig, key: str, tokens: list[str], line: str, lineno: int) -> None:
    if key == "model":
        if len(tokens) < 2:
            raise ParseError("model line needs a kind", lineno)
        action.kind = tokens[1]
        action.params = tuple(_parse_int(t, lineno) for t in tokens[2:])
    elif key == "ball-radius":
        _expect_args(tokens, 1, lineno)
        action.ball_radius = _parse_int(tokens[1], lineno)
    elif key == "gen":
        if len(tokens) < 3:
            raise ParseError("gen line needs a name and an image", lineno)
        action.images[tokens[1]] = line.split(None, 2)[2]
    elif key == "witness":
        action.witness = line.split(None, 1)[1]
    else:
        raise ParseError(f"unknown action directive {key!r}", lineno)


def _parse_matrix(text: str, where: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    cleaned = text.replace("[", " ").replace("]", " ").replace(",", " ")
    tokens = cleaned.split()
    if len(tokens) != 4:
        raise ValidationError(f"matrix needs 4 entries, got {len(tokens)}", where)
    try:
        a, b, c, d = (parse_rational(t) for t in tokens)
    except ValueError as exc:
        raise ValidationError(f"bad rational entry: {exc}", where)
    if a * d - b * c != 1:
        raise ValidationError(f"determinant is {a * d - b * c}, must be exactly 1", where)
    return a, b, c, d


def _build_model(ac: ActionConfig, radius: int) -> SpaceModel:
    where = f"action {ac.name!r} model"
    if ac.kind == "half_plane":
        if ac.params:
            raise ValidationError("half_plane takes no parameters", where)
        if ac.ball_radius is not None:
            raise ValidationError("ball-radius only applies to tree models", where)
        return HalfPlaneModel()
    if ac.kind == "bass_serre":
        if len(ac.params) != 2:
            raise ValidationError("bass_serre needs two factor orders", where)
        cls = BassSerreModel
    elif ac.kind == "cayley_tree":
        if len(ac.params) != 1:
            raise ValidationError("cayley_tree needs a rank", where)
        cls = CayleyTreeModel
    else:
        raise ValidationError(f"unknown model kind {ac.kind!r}", where)
    try:  # the model checks its parameters: factor orders >= 2, 1 <= rank <= 26
        return cls(*ac.params, ball_radius=radius)
    except ValueError as exc:
        raise ValidationError(str(exc), where)


def build_action_system(config: SystemConfig, ball_radius: Optional[int] = None) -> ActionSystem:
    actions: list[Action] = []
    witnesses: list[Optional[GroupWord]] = []
    alphabet = set(config.generators)
    for ac in config.actions:
        if not ac.kind:
            raise ValidationError("missing model line", f"action {ac.name!r}")
        radius = ball_radius if ac.ball_radius is None else ac.ball_radius
        model = _build_model(ac, config.setting("ball_radius", radius))
        images = {}
        for gen in config.generators:
            if gen not in ac.images:
                raise ValidationError(f"no image for generator {gen!r}", f"action {ac.name!r}")
        for gen, raw in ac.images.items():
            if gen not in alphabet:
                raise ValidationError(f"image given for unknown generator {gen!r}", f"action {ac.name!r}")
            where = f"action {ac.name!r} gen {gen}"
            if isinstance(model, HalfPlaneModel):
                images[gen] = model.matrix(*_parse_matrix(raw, where))
            else:
                try:
                    images[gen] = model.parse_word(raw)
                except ValueError as exc:
                    raise ValidationError(str(exc), where)
        if ac.witness is not None:
            try:
                witnesses.append(GroupWord.parse(ac.witness, alphabet))
            except ValueError as exc:
                raise ValidationError(str(exc), f"action {ac.name!r} witness")
        else:
            witnesses.append(None)
        actions.append(Action(ac.name, model, images))
    return ActionSystem(config.generators, actions, witnesses)


WORKED_EXAMPLE = """hypiso-config v1
generators f g

action plane-one
model half_plane
gen f [[2, 1], [1, 1]]
gen g [[0, -1], [1, 0]]
witness f

action plane-two
model half_plane
gen f [[0, -1], [1, 0]]
gen g [[2, 1], [1, 1]]
witness g
"""
