"""The 'hypiso-record v1' machine-readable output format.

Line-delimited key/value text with a versioned header.  Only exact data
crosses this boundary: words, integer exponents, rational trace data and
exact boundary-point payloads; floats appear solely in the human tables,
marked approximate.  Records round-trip (parse . emit == identity) and a
combine record carries enough to re-verify its certificate from scratch.
``check_witnesses`` is the one certificate checker, for records and
in-memory certificates alike.  It imports neither the search nor the plane
(a witness line prints its class's integers), but it images as the search
does, through ``Action.image`` and the models' ``_power`` and ``_mul``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import ActionSystem
from .errors import ParseError, ValidationError
from .models import IsometryClass, SpaceModel
from .trees import TreeHyperbolic, TreeModel
from .words import GroupWord

if TYPE_CHECKING:
    from .combiner import Certificate

RECORD_HEADER = "hypiso-record v1"


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, 'p/q' or 'p'; past Python's limit on printing an
    int (which also guards int() parsing of config input) a ValidationError."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"an exact number has over {limit} digits, the limit for printing one") from None


def class_invariant(cls: IsometryClass) -> str:
    """Canonical exact invariant string for one classification."""
    if cls.is_hyperbolic:
        h = cls.hyperbolic
        if isinstance(h, TreeHyperbolic):
            return f"syllables={h.length}"
        # a plane class: cosh(tau/2) = tr/2 = (a + d)/2s, in lowest terms
        return f"cosh-half={_ratio(h.a + h.d, 2 * h.s)}"
    if cls.is_elliptic:
        period = cls.period
        return f"period={'inf' if period is None else period}"
    return "parabolic"


def _plane_points(a: int, b: int, c: int, d: int, s: int, disc: int) -> tuple[str, str]:
    """(plus, minus) of a plane class: the roots ((a - d) +- sqrt(D))/2c of
    c z^2 + (d - a) z - b, rational when D is a square, or infinity."""
    if c == 0:  # infinity attracts when its eigenvalue a/s is the larger
        finite = f"rat:{_ratio(b, d - a)}"
        return ("inf", finite) if a > s else (finite, "inf")
    r = math.isqrt(disc)
    if r * r == disc:  # the + root carries the eigenvalue > 1: attracting
        return f"rat:{_ratio(a - d + r, 2 * c)}", f"rat:{_ratio(a - d - r, 2 * c)}"
    x, w = _ratio(a - d, 2 * c), _ratio(disc, s * s)
    return f"quad:{x};{_ratio(s, 2 * c)};{w}", f"quad:{x};{_ratio(-s, 2 * c)};{w}"


def witness_line(index: int, name: str, model: SpaceModel, cls: IsometryClass) -> str:
    line = f"witness {index} {name} {model.kind} {cls.tag} {class_invariant(cls)}"
    h = cls.hyperbolic
    if h is None:
        return line
    if isinstance(h, TreeHyperbolic):
        u, v = model.require(h.core)
        return f"{line} plus={model.ray_text(u, v)} minus={model.ray_text(u, model.invert_word(v))}"
    if isinstance(model, TreeModel):
        model.require(h.fixed_plus)  # a plane class in a tree action: MixedModels
    return "{} plus={} minus={}".format(line, *_plane_points(*h))


def check_printable(model: SpaceModel, cls: IsometryClass) -> None:
    """Raise what ``witness_line`` raises on cls in model (MixedModels for
    another model's class, ValidationError past the print limit): a tree
    class's core is read with ``model.require``, folding no ray, and only a
    plane class in a tree action or one whose printed integers, of at most
    2L + 2 bits for L-bit entries, may pass the limit is printed."""
    h, limit = cls.hyperbolic, sys.get_int_max_str_digits()  # 0 (none) or >= 640
    if isinstance(h, TreeHyperbolic):
        model.require(h.core)
    elif not (h is None or not isinstance(model, TreeModel) and (  # 3 limit bits print in under limit digits
            not limit or 2 * max(map(abs, h[:5])).bit_length() + 2 <= 3 * limit)):  # h[:5] is a, b, c, d, s
        witness_line(0, "", model, cls)


@dataclass
class RunRecord:
    command: str
    status: str
    exit_code: int
    settings: list[tuple[str, str]] = field(default_factory=list)
    word: Optional[str] = None
    lines: list[str] = field(default_factory=list)  # the body: stage, witness, stats, ... lines in order

    @property
    def witnesses(self) -> list[str]:
        return [line for line in self.lines if line.startswith("witness ")]

    def emit(self) -> str:
        lines = [RECORD_HEADER, f"command {self.command}", f"status {self.status}", f"exit-code {self.exit_code}"]
        lines += [f"setting {key} {value}" for key, value in self.settings]
        if self.word is not None:
            lines.append(f"word {self.word}")
        lines += [*self.lines, "end"]
        return "\n".join(lines) + "\n"


def record_for_certificate(
    command: str, system: ActionSystem, cert: Certificate, settings: list[tuple[str, str]]
) -> RunRecord:
    stats = cert.search_stats
    lines = [
        f"stage {s.stage} {s.action_name} a {s.a} b {s.b} p {s.p} q {s.q} "
        f"index {'-' if s.trivial else s.schedule_index} tried {s.candidates_tried} trivial {int(s.trivial)}"
        for s in cert.stages
    ]
    lines += [witness_line(i, a.name, a.model, cls) for i, (a, cls) in enumerate(zip(system.actions, cert.per_action))]
    lines.append(f"stats candidates {stats.candidates_tried} stages {stats.stages}")
    return RunRecord(command, "ok", 0, list(settings), cert.word.display(), lines)


def parse_record(text: str) -> RunRecord:
    lines = text.splitlines()
    if not lines or lines[0].strip() != RECORD_HEADER:
        raise ParseError(f"expected header {RECORD_HEADER!r}", 1)
    rec = RunRecord(command="", status="", exit_code=-1)
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line == "end":
            continue
        key, _, rest = line.partition(" ")
        if key == "command":
            rec.command = rest
        elif key == "status":
            rec.status = rest
        elif key == "exit-code":
            try:
                rec.exit_code = int(rest)
            except ValueError:
                raise ParseError(f"bad exit code {rest!r}", lineno)
        elif key == "setting":
            name, _, value = rest.partition(" ")
            rec.settings.append((name, value))
        elif key == "word":
            rec.word = rest
        else:
            rec.lines.append(line)
    if not rec.command:
        raise ParseError("record has no command line", 1)
    return rec


def verify_record(system: ActionSystem, record: RunRecord) -> tuple[bool, list[str]]:
    """Re-verify a combine record from its word alone: every action must
    classify hyperbolic with exactly the recorded invariants."""
    if record.word is None:
        return False, ["record carries no word"]
    try:
        word = GroupWord.parse(record.word, set(system.generators))
    except ValueError as exc:
        return False, [f"bad word: {exc}"]
    witnesses = record.witnesses
    if len(witnesses) != system.n_actions:
        return False, [f"record lists {len(witnesses)} witnesses, system has {system.n_actions} actions"]
    return check_witnesses(system, word, witnesses)


def check_witnesses(
    system: ActionSystem, word: GroupWord, expected: Sequence[str | IsometryClass]
) -> tuple[bool, list[str]]:
    """The certificate checker: classify the word once in every action and
    compare the fresh class with the expected witness, action by action: a
    record's line byte by byte with the fresh class's line, a certificate's
    class by value (equal classes print equal lines; unequal ones are
    printed and compared as lines)."""
    notes: list[str] = []
    for i, (action, want) in enumerate(zip(system.actions, expected)):
        cls = action.classify_word(word)
        if not cls.is_hyperbolic:
            notes.append(f"action {i} ({action.name}): word classifies {cls.tag}")
            continue
        if type(want) is not str:
            if cls == want:
                continue
            want = witness_line(i, action.name, action.model, want)
        fresh = witness_line(i, action.name, action.model, cls)
        if fresh != want:
            notes.append(f"action {i} ({action.name}): witness mismatch: record {want} | fresh {fresh}")
    return not notes, notes
