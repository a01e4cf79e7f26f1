"""Command-line front end.

Commands: classify, combine, delta, dynamics, report.  Exit codes:
0 success, 1 parse/validation error, 2 schedule exhausted (or failed
verification), 3 hypothesis violation.  --format records emits the
versioned machine-readable form; in records, approximate columns carry a
trailing '~' and everything else is exact.  Each command returns a Result
(exit code, record, table lines, stderr lines); only main prints.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

from .actions import ActionSystem
from .combiner import SearchSchedule, check_hypotheses, partition, resolve_witness, simultaneous_hyperbolic
from .config import SystemConfig, parse_config
from .errors import (
    HypisoError,
    HypothesisViolation,
    NoPassingN,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from .halfplane import HalfPlaneModel
from .models import HYPOTHESIS_VIOLATION, IsometryClass
from .records import (
    RunRecord,
    class_invariant,
    parse_record,
    record_for_certificate,
    verify_record,
)
from .trees import TreeModel
from .words import GroupWord

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_EXHAUSTED = 2
EXIT_HYPOTHESIS = 3
MAX_PRINT_DIGITS = 4300  # the int-string limit of every run, Python's default: one outcome in every environment

# delta and dynamics sample at most this many points per action: plane
# points (--samples), or the vertices of a tree ball.  The four-point
# estimate costs n^3 steps: the 937-vertex rank-3 radius-4 ball takes 0.12-0.13
# s, 0.015-0.018 s of it the distances, and 1,000 plane points 1.67-1.75 s,
# 0.12-0.13 s of it the distances (Python 3.11.7, numpy 2.4, 2 cores, host.ref_ms 0.13).
MAX_SAMPLE_POINTS = 1000

# dynamics follows an orbit of at most this many steps (orbit-depth); --checks
# ns stops at its Busemann floor, a few steps in: 1.1-1.5 ms per configs/ file at
# depth 64 and 1,000 (medians; Python 3.11.7, 2 cores, host.ref_ms 0.14-0.15)
MAX_ORBIT_DEPTH = 1000

# a failed run lists at most this many of its hypothesis violations or
# exhausted trials, in their order, and counts the rest
MAX_LISTED = 50

# the checks dynamics runs, as --checks names them
DYNAMICS_CHECKS = ("ns", "insize", "projection")


@cache  # built on the first main call, then reused: parsing keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypiso")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "combine", "delta", "dynamics", "report"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="path to a hypiso-config v1 file")
        p.add_argument("--max-exponent", type=int, default=None)
        p.add_argument("--orbit-depth", type=int, default=None)
        p.add_argument("--ball-radius", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("table", "records"), default="table")
        if name == "classify":
            p.add_argument("--word", action="append", default=[], help="extra words to classify")
        if name == "combine":
            p.add_argument("--verify", default=None, help="re-verify a records file instead of searching")
        if name == "dynamics":
            checks = ",".join(DYNAMICS_CHECKS)
            p.add_argument("--checks", default=checks, help=f"comma list: {checks}")
        if name == "delta":
            p.add_argument("--samples", type=int, default=60)
    return parser


@dataclass
class Result:
    """A command's whole result, printed by main alone: the stderr lines,
    then the record or the table lines.  ``record`` is called only for
    --format records, so a combine table never formats the fixed points,
    which can pass Python's int-to-string limit where the table does not."""

    exit_code: int
    record: Callable[[], RunRecord]
    table: list[str]
    stderr: list[str]


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command under the int-string limit MAX_PRINT_DIGITS, print its Result and return
    its exit code; every HypisoError is printed and mapped to its exit code here alone."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    try:
        config = parse_config(_read(args.input))
        radii = _ball_radii(args, config)  # range-checked before the other settings
        settings = _settings(args, config)
        try:
            result = COMMANDS[args.command](args, config.build(), settings, radii)
        except ScheduleExhausted as exc:
            result = _exhausted(args, settings, exc)
        records = args.format == "records"
        out = result.record().emit() if records else "".join(f"{line}\n" for line in result.table)
    except HypisoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        violation = isinstance(exc, (HypothesisViolation, WitnessNotHyperbolic))
        return EXIT_HYPOTHESIS if violation else EXIT_PARSE
    sys.stderr.writelines(f"{line}\n" for line in result.stderr)
    sys.stdout.write(out)
    return result.exit_code


def _read(path: str) -> str:
    try:
        with open(path, "rb", buffering=0) as fh:  # UTF-8 whatever the locale; the parsers take CRLF
            return fh.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise HypisoError(f"cannot read {path}: {exc}")


def _settings(args, config: SystemConfig) -> dict[str, int]:
    """The settings every record states; a flag overrides its config value
    (word-sample-depth has no flag)."""
    return {
        key: config.setting(key, getattr(args, key.replace("-", "_"), None))
        for key in ("max-exponent", "seed", "orbit-depth", "word-sample-depth")
    }


def _ball_radii(args, config: SystemConfig) -> list[int]:
    """Each action's ball radius: its own ``ball-radius``, else the flag,
    else the config's top-level value, else the default.  The flag is
    range-checked even where every action sets its own."""
    radius = config.setting("ball-radius", args.ball_radius)
    return [radius if ac.ball_radius is None else ac.ball_radius for ac in config.actions]


def _result(command: str, settings, lines, table=(), exit_code=EXIT_OK, status="ok", stderr=(), word=None):
    """A Result whose record is the settings, then the word and these lines."""
    rows = _settings_rows(settings)
    record = partial(RunRecord, command, status, exit_code, rows, word=word, lines=list(lines))
    return Result(exit_code, record, list(table), list(stderr))


def _settings_rows(settings: dict[str, int]) -> list[tuple[str, str]]:
    return [(k, str(v)) for k, v in settings.items()]


def _tau_display(cls: IsometryClass) -> str:
    return f"{cls.hyperbolic.translation_length:.6f}" if cls.is_hyperbolic else "-"


def _dotted(word: GroupWord) -> str:
    return word.display().replace(" ", ".")


def _cmd_classify(args, system: ActionSystem, settings, radii) -> Result:
    words = [("gen " + g, GroupWord.generator(g)) for g in system.generators]
    words += [(f"witness[{i}]", w) for i, w in enumerate(system.witnesses) if w is not None]
    try:
        words += [(repr(text), GroupWord.parse(text, set(system.generators))) for text in args.word]
    except ValueError as exc:
        raise ValidationError(str(exc), "--word")
    rows, lines = [], []
    for i, action in enumerate(system.actions):
        for label, word in words:
            cls = action.classify_word(word)
            name, kind, invariant = action.name, action.model.kind, class_invariant(cls)
            rows.append((str(i), name, kind, label, cls.tag, invariant, _tau_display(cls)))
            lines.append(f"classified {i} {name} {kind} {_dotted(word)} {cls.tag} {invariant}")
    violated = any(row[4] == HYPOTHESIS_VIOLATION for row in rows)
    code, status = (EXIT_HYPOTHESIS, "hypothesis-violation") if violated else (EXIT_OK, "ok")
    table = _table(["#", "action", "kind", "element", "tag", "invariant", "tau~"], rows)
    return _result(args.command, settings, lines, table, code, status)


def _cmd_combine(args, system: ActionSystem, settings, radii) -> Result:
    if args.verify is not None:
        return _verify(args, system, settings)
    hyp, cert = _search(system, settings)
    if cert is None:
        return _violations(args, system, hyp, settings)
    stats = cert.search_stats
    table = _witness_table(system, cert)
    table.append(f"search: {stats.candidates_tried} candidates over {stats.stages} stages")
    record = partial(record_for_certificate, "combine", system, cert, _settings_rows(settings))
    return Result(EXIT_OK, record, table, [])


def _verify(args, system: ActionSystem, settings) -> Result:
    record = parse_record(_read(args.verify))
    ok, notes = verify_record(system, record)
    code, status = (EXIT_OK, "ok") if ok else (EXIT_EXHAUSTED, "mismatch")
    table = [f"verification: {'ok' if ok else 'FAILED'}", *(f"  {n}" for n in notes)]
    lines = [f"note {n}" for n in notes]
    return _result("combine-verify", settings, lines, table, code, status, word=record.word)


def _sample(action, geo, seed: int, count: int, radius: int):
    """Seeded plane points, or the tree ball of the given radius, of the
    action's lab geo; either way at most MAX_SAMPLE_POINTS points."""
    from .sampling import rng_from_seed, sample_plane_points
    plane = isinstance(action.model, HalfPlaneModel)
    size = count if plane else geo.ball_size(radius)
    if size > MAX_SAMPLE_POINTS:
        raise ValidationError(
            f"a sample of {size} points is over the cap of {MAX_SAMPLE_POINTS}", f"action {action.name!r}"
        )
    return sample_plane_points(geo, count, rng_from_seed(seed)) if plane else geo.ball_vertices(radius)


def _cmd_delta(args, system: ActionSystem, settings, radii: list[int]) -> Result:
    from .geometry import estimate_delta_four_point, lab  # the lab loads only for the lab's commands
    if args.samples < 0:
        raise ValidationError(f"must be >= 0, got {args.samples}", "--samples")
    rows, lines = [], []
    for i, action in enumerate(system.actions):
        geo = lab(action.model)
        sample = _sample(action, geo, settings["seed"], args.samples, min(4, radii[i]))
        delta = estimate_delta_four_point(geo, sample, geo.basepoint)
        rows.append((str(i), action.name, action.model.kind, "four_point", f"{delta:.6f}", str(len(sample))))
        value = f"exact {int(delta)}" if isinstance(action.model, TreeModel) else f"approx~ {delta:.9f}"
        lines.append(f"delta {i} {action.name} four_point {value} n {len(sample)}")
    table = _table(["#", "action", "kind", "condition", "delta~", "sample"], rows)
    return _result(args.command, settings, lines, table)


def _cmd_dynamics(args, system: ActionSystem, settings, radii: list[int]) -> Result:
    from . import dynamics as dyn
    from .geometry import lab
    depth = settings["orbit-depth"]
    if depth > MAX_ORBIT_DEPTH:
        raise ValidationError(f"{depth} is over the cap of {MAX_ORBIT_DEPTH}", "orbit-depth")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for check in checks:
        if check not in DYNAMICS_CHECKS:
            known = ", ".join(DYNAMICS_CHECKS)
            raise ValidationError(f"unknown check {check!r}; the checks are {known}", "--checks")
    rows, lines = [], []
    for i, action in enumerate(system.actions):
        _, image = resolve_witness(system, i)  # the witness's image, read by every check
        geo = lab(action.model)
        sample = _sample(action, geo, settings["seed"], 24, min(3, radii[i]))
        if "ns" in checks:
            try:
                n = dyn.ns_dynamics_check(geo, image, 1.0, sample, depth)
                rows.append((str(i), action.name, "ns", f"N={n}"))
                lines.append(f"ns {i} {action.name} N {n}")
            except (NoPassingN, ValueError) as exc:
                rows.append((str(i), action.name, "ns", f"failed: {exc}"))
                lines.append(f"ns {i} {action.name} failed")
        if "insize" in checks:
            pts = sample[:12]
            triangles = [t for t in zip(pts, pts[1:], pts[2:]) if len({p.payload for p in t}) == 3]
            insize = dyn.estimate_delta_insize(geo, triangles)
            rows.append((str(i), action.name, "insize", f"{insize:.6f} over {len(triangles)}"))
            lines.append(f"insize {i} {action.name} approx~ {insize:.9f} n {len(triangles)}")
        if "projection" in checks:
            worst = max([0.0] + dyn.orbit_projection(geo, image, sample[:10], 8))
            rows.append((str(i), action.name, "projection", f"max defect {worst:.6f}"))
            lines.append(f"projection {i} {action.name} approx~ {worst:.9f}")
    return _result(args.command, settings, lines, _table(["#", "action", "check", "result"], rows))


def _search(system: ActionSystem, settings):
    """The hypothesis check, then the search: (hypothesis report,
    certificate), the certificate None if the check failed.
    ScheduleExhausted propagates to main."""
    hyp = check_hypotheses(system, settings["word-sample-depth"])
    if not hyp.passed:
        return hyp, None
    return hyp, simultaneous_hyperbolic(system, SearchSchedule(settings["max-exponent"]))


def _violations(args, system: ActionSystem, report, settings) -> Result:
    found = [(word, i, system.actions[i].name) for word, i in report.violations[:MAX_LISTED]]
    lines = [f"violation {i} {name} {_dotted(word)}" for word, i, name in found]
    stderr = [f"hypothesis violation: word {word.display()!r} in action {i} ({name})"
              for word, i, name in found]
    unlisted = len(report.violations) - len(found)
    if unlisted:
        lines.append(f"violations-unlisted {unlisted}")
        stderr.append(f"hypothesis violation: {unlisted} more words not listed")
    return _result(args.command, settings, lines, (), EXIT_HYPOTHESIS, "hypothesis-violation", stderr)


def _exhausted(args, settings, exc: ScheduleExhausted) -> Result:
    lines = [f"exhausted-stage {exc.stage} trials {len(exc.trials)}"]
    lines += [f"trial a {a} b {b} failed-action {i} tag {tag}" for a, b, i, tag in exc.trials[:MAX_LISTED]]
    stderr = [f"error: {exc}"]
    return _result(args.command, settings, lines, (), EXIT_EXHAUSTED, "schedule-exhausted", stderr)


def _cmd_report(args, system: ActionSystem, settings, radii) -> Result:
    hyp, cert = _search(system, settings)
    if cert is None:
        return _violations(args, system, hyp, settings)
    lines = [f"hypotheses words {hyp.words_checked} violations 0"]
    table = [f"hypotheses: pass ({hyp.words_checked} words checked)", *_witness_table(system, cert)]
    for s in cert.stages[1:]:  # stage 0 only resolves the first witness
        if s.trivial:
            lines.append(f"profile {s.stage} trivial")
            table.append(f"stage {s.stage}: trivial (running word already hyperbolic)")
            continue
        named = []
        for i, (action, e) in enumerate(zip(system.actions, s.profile)):
            part = partition(action.model, e)
            if part is not None:
                lines.append(f"profile {s.stage} {i} {action.name} f={e.cf.tag} g={e.cg.tag} partition={part}")
                named.append(f"{action.name}:{part}")
        table.append(f"stage {s.stage}: partition {', '.join(named)}")

    def record() -> RunRecord:  # built only for --format records, as in combine
        rec = record_for_certificate("report", system, cert, _settings_rows(settings))
        rec.lines.extend(lines)
        return rec

    return Result(EXIT_OK, record, table, [])


def _witness_table(system: ActionSystem, cert) -> list[str]:
    rows = [
        (str(i), action.name, action.model.kind, cls.tag, class_invariant(cls), _tau_display(cls))
        for i, (action, cls) in enumerate(zip(system.actions, cert.per_action))
    ]
    headers = ["#", "action", "kind", "tag", "invariant", "tau~"]
    return [f"word: {cert.word.display()}", *_table(headers, rows)]


def _table(headers: list[str], rows: list[tuple]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*row) for row in [headers, ["-" * w for w in widths], *rows]]


COMMANDS = {
    "classify": _cmd_classify,
    "combine": _cmd_combine,
    "delta": _cmd_delta,
    "dynamics": _cmd_dynamics,
    "report": _cmd_report,
}


if __name__ == "__main__":
    sys.exit(main())
