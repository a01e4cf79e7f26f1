"""The 'hypiso-config v1' text format: parse, validate, build.

Line-oriented: a version header, a generators line, optional schedule
parameters, then one block per action.  Each model reads its own generator
images (``parse_word``): the plane's are matrices [[p/q, p/q], [p/q, p/q]]
of exact rationals, a tree's words like "s t^2".  Parse errors carry
1-based line positions; semantic problems (wrong determinant, unknown
letters) raise ValidationError naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .actions import Action, ActionSystem
from .errors import ParseError, ValidationError
from .halfplane import HalfPlaneModel
from .models import SpaceModel
from .trees import BassSerreModel, CayleyTreeModel
from .words import GroupWord

CONFIG_HEADER = "hypiso-config v1"

# every setting, by the name the config file, the CLI flags and the records
# share: its default, and whether it must be >= 0
_SETTINGS = {
    "max-exponent": (32, True),
    "seed": (0, False),
    "orbit-depth": (64, True),
    "word-sample-depth": (3, True),
    "ball-radius": (8, True),
}
# each model kind, by its class's kind: the class, its parameter count, the text for another count, and whether a tree
_KINDS = {row[0].kind: row for row in (
    (HalfPlaneModel, 0, "takes no parameters", False),
    (BassSerreModel, 2, "needs two factor orders", True),
    (CayleyTreeModel, 1, "needs a rank", True),
)}


@dataclass
class ActionConfig:
    name: str
    kind: str = ""
    params: tuple[int, ...] = ()
    ball_radius: Optional[int] = None
    images: dict[str, str] = field(default_factory=dict)
    witness: Optional[str] = None


@dataclass
class SystemConfig:
    generators: tuple[str, ...]
    actions: list[ActionConfig]
    schedule: dict[str, int]
    _system: Optional[ActionSystem] = field(default=None, init=False, repr=False, compare=False)

    def setting(self, key: str, override: Optional[int] = None) -> int:
        """The override (a CLI flag) if given, else the config value, else the
        default; every setting is read, and range-checked, here."""
        default, nonnegative = _SETTINGS[key]
        value = self.schedule.get(key, default) if override is None else override
        if nonnegative and value < 0:
            raise ValidationError(f"must be >= 0, got {value}", key)
        return value

    def build(self) -> ActionSystem:
        """The action system that parse_config built, and so validated."""
        return self._system


def parse_config(text: str) -> SystemConfig:
    """Parse and fully validate (models, determinants, word alphabets)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ParseError(f"expected header {CONFIG_HEADER!r}", 1)
    generators: tuple[str, ...] = ()
    schedule: dict[str, int] = {}
    actions: list[ActionConfig] = []
    current: Optional[ActionConfig] = None
    seen: set[tuple] = set()  # (action count, key[, generator]) of each line: all but action lines appear once

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        ident = (0 if key == "generators" else len(actions), *tokens[:2 if key == "gen" else 1])
        if ident in seen and key != "action":
            raise ParseError(f"repeated {' '.join(ident[1:])} line", lineno)
        seen.add(ident)
        if key == "generators":
            if len(tokens) < 2:
                raise ParseError("generators line needs at least one name", lineno)
            generators = tuple(tokens[1:])
        elif key in _SETTINGS and current is None:
            _expect_args(tokens, 1, lineno)
            schedule[key] = _parse_int(tokens[1], lineno)
        elif key == "action":
            _expect_args(tokens, 1, lineno)
            current = ActionConfig(name=tokens[1])
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
    config._system = build_action_system(config)  # full semantic validation
    return config


def _expect_args(tokens: list[str], n: int, lineno: int) -> None:
    if len(tokens) != n + 1:
        raise ParseError(f"{tokens[0]} expects {n} argument(s)", lineno)


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", lineno)


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
        if len(tokens) < 2:
            raise ParseError("witness line needs a word", lineno)
        action.witness = line.split(None, 1)[1]
    else:
        raise ParseError(f"unknown action directive {key!r}", lineno)


def _build_model(ac: ActionConfig) -> SpaceModel:
    where = f"action {ac.name!r} model"
    if ac.kind not in _KINDS:
        raise ValidationError(f"unknown model kind {ac.kind!r}", where)
    cls, count, wrong_count, tree = _KINDS[ac.kind]
    if len(ac.params) != count:
        raise ValidationError(f"{ac.kind} {wrong_count}", where)
    if ac.ball_radius is not None and not tree:
        raise ValidationError("ball-radius only applies to tree models", where)
    try:  # the model checks its parameters: factor orders >= 2, 1 <= rank <= 26
        return cls(*ac.params)
    except ValueError as exc:
        raise ValidationError(str(exc), where)


def build_action_system(config: SystemConfig) -> ActionSystem:
    actions: list[Action] = []
    witnesses: list[Optional[GroupWord]] = []
    alphabet = set(config.generators)
    for ac in config.actions:
        if not ac.kind:
            raise ValidationError("missing model line", f"action {ac.name!r}")
        if ac.ball_radius is not None:
            config.setting("ball-radius", ac.ball_radius)  # range check
        model = _build_model(ac)
        images = {}
        for gen, raw in ac.images.items():
            if gen not in alphabet:
                raise ValidationError(f"image given for unknown generator {gen!r}", f"action {ac.name!r}")
            try:  # the model reads the image: a matrix of determinant 1, or the tree's letters
                images[gen] = model.parse_word(raw)
            except ValueError as exc:
                raise ValidationError(str(exc), f"action {ac.name!r} gen {gen}")
        if ac.witness is not None:
            try:
                witnesses.append(GroupWord.parse(ac.witness, alphabet))
            except ValueError as exc:
                raise ValidationError(str(exc), f"action {ac.name!r} witness")
        else:
            witnesses.append(None)
        actions.append(Action(ac.name, model, images))
    return ActionSystem(config.generators, actions, witnesses)
