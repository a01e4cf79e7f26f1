"""The 'hypiso-record v1' machine-readable output format.

Line-delimited key/value text with a versioned header.  Only exact data
crosses this boundary: words, integer exponents, rational trace data and
exact boundary-point payloads; floats appear solely in the human tables,
marked approximate.  Records round-trip (parse . emit == identity) and a
combine record carries enough to re-verify its certificate from scratch.
``check_witnesses`` is the one certificate checker: it serves records and
in-memory certificates alike and imports nothing from the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import ActionSystem
from .errors import MixedModels, ParseError
from .models import BoundaryPoint, IsometryClass, SpaceModel
from .quadratic import QuadraticNumber, format_rational
from .trees import RayDescriptor, TreeHyperbolic, TreeModel
from .words import GroupWord

if TYPE_CHECKING:
    from .combiner import Certificate

RECORD_HEADER = "hypiso-record v1"


def class_invariant(cls: IsometryClass) -> str:
    """Canonical exact invariant string for one classification."""
    if cls.is_hyperbolic:
        h = cls.hyperbolic
        if isinstance(h, TreeHyperbolic):
            return f"syllables={h.length}"
        # a plane class: cosh(tau/2) = tr/2 = (a + d)/2s, in lowest terms
        return f"cosh-half={format_rational(Fraction(h.a + h.d, 2 * h.s))}"
    if cls.is_elliptic:
        period = cls.elliptic.period
        return f"period={'inf' if period is None else period}"
    return "parabolic"


def boundary_string(model: SpaceModel, bp: BoundaryPoint) -> str:
    payload = model.require_boundary(bp)
    if payload is None:  # the plane's point at infinity
        return "inf"
    if isinstance(payload, QuadraticNumber):
        if payload.is_rational:
            return f"rat:{format_rational(payload.as_fraction())}"
        return f"quad:{format_rational(payload.a)};{format_rational(payload.b)};{format_rational(payload.d)}"
    if isinstance(payload, RayDescriptor) and isinstance(model, TreeModel):
        prefix = model.word_display(payload.prefix).replace(" ", ".")
        period = model.word_display(payload.period).replace(" ", ".")
        return f"ray:{prefix};{period}"
    raise MixedModels(f"boundary payload {type(payload).__name__} does not belong to {model.model_id}")


def witness_line(index: int, name: str, model: SpaceModel, cls: IsometryClass) -> str:
    parts = [f"witness {index} {name} {model.kind} {cls.tag}", class_invariant(cls)]
    if cls.is_hyperbolic:
        plus, minus = cls.hyperbolic.fixed_points
        parts += [f"plus={boundary_string(model, plus)}", f"minus={boundary_string(model, minus)}"]
    return " ".join(parts)


@dataclass
class RunRecord:
    command: str
    status: str
    exit_code: int
    settings: list[tuple[str, str]] = field(default_factory=list)
    word: Optional[str] = None
    stages: list[str] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)

    def emit(self) -> str:
        lines = [RECORD_HEADER, f"command {self.command}", f"status {self.status}",
                 f"exit-code {self.exit_code}"]
        for key, value in self.settings:
            lines.append(f"setting {key} {value}")
        if self.word is not None:
            lines.append(f"word {self.word}")
        lines.extend(self.stages)
        lines.extend(self.witnesses)
        lines.extend(self.extra)
        lines.append("end")
        return "\n".join(lines) + "\n"


def record_for_certificate(
    command: str,
    system: ActionSystem,
    cert: Certificate,
    settings: list[tuple[str, str]],
) -> RunRecord:
    rec = RunRecord(command=command, status="ok", exit_code=0, settings=list(settings))
    rec.word = cert.word.display()
    for s in cert.stages:
        idx = "-" if s.schedule_index is None else str(s.schedule_index)
        rec.stages.append(
            f"stage {s.stage} {s.action_name} a {s.a} b {s.b} p {s.p} q {s.q} "
            f"index {idx} tried {s.candidates_tried} trivial {int(s.trivial)}"
        )
    for i, cls in enumerate(cert.per_action):
        action = system.actions[i]
        rec.witnesses.append(witness_line(i, action.name, action.model, cls))
    rec.extra.append(
        f"stats candidates {cert.search_stats.candidates_tried} stages {cert.search_stats.stages}"
    )
    return rec


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
        elif key == "stage":
            rec.stages.append(line)
        elif key == "witness":
            rec.witnesses.append(line)
        else:
            rec.extra.append(line)
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
    if len(record.witnesses) != system.n_actions:
        return False, [
            f"record lists {len(record.witnesses)} witnesses, system has {system.n_actions} actions"
        ]
    return check_witnesses(system, word, record.witnesses)


def check_witnesses(
    system: ActionSystem, word: GroupWord, expected: Sequence[str]
) -> tuple[bool, list[str]]:
    """The certificate checker: classify the word once in every action and
    compare its fresh witness line with the expected one, action by action."""
    notes: list[str] = []
    for i, (action, line) in enumerate(zip(system.actions, expected)):
        cls = action.classify_word(word)
        if not cls.is_hyperbolic:
            notes.append(f"action {i} ({action.name}): word classifies {cls.tag}")
            continue
        fresh = witness_line(i, action.name, action.model, cls)
        if fresh != line:
            notes.append(f"action {i} ({action.name}): witness mismatch: record {line} | fresh {fresh}")
    return not notes, notes
