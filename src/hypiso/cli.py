"""Command-line front end.

Commands: classify, combine, delta, dynamics, report.  Exit codes:
0 success, 1 parse/validation error, 2 schedule exhausted (or failed
verification), 3 hypothesis violation.  --format records emits the
versioned machine-readable form; in records, approximate columns carry a
trailing '~' and everything else is exact.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import dynamics as dyn
from .actions import ActionSystem
from .combiner import SearchSchedule, check_hypotheses, resolve_witness, simultaneous_hyperbolic
from .config import SystemConfig, parse_config
from .errors import (
    HypisoError,
    HypothesisViolation,
    NoPassingN,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from .geometry import estimate_delta_four_point
from .halfplane import HalfPlaneModel
from .models import IsometryClass
from .records import (
    RunRecord,
    class_invariant,
    parse_record,
    record_for_certificate,
    verify_record,
)
from .sampling import rng_from_seed, sample_plane_points
from .trees import TreeModel
from .words import GroupWord

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_EXHAUSTED = 2
EXIT_HYPOTHESIS = 3

# delta and dynamics sample at most this many points per action: plane
# points (--samples), or the vertices of a tree ball.  The four-point
# estimate costs n^3 steps; the 937-vertex rank-3 radius-4 ball takes 3 s.
MAX_SAMPLE_POINTS = 1000

# dynamics follows an orbit of at most this many steps (orbit-depth); plane
# coordinates grow with each step, and depth 1,000 on configs/ takes 19-28 s
MAX_ORBIT_DEPTH = 1000


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
            p.add_argument(
                "--checks", default="ns,insize,projection", help="comma list: ns,insize,projection"
            )
        if name == "delta":
            p.add_argument("--samples", type=int, default=60)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(_read(args.input))
        return _dispatch(args, config, config.build())
    except ScheduleExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (HypothesisViolation, WitnessNotHyperbolic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except HypisoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
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
    else the config's top-level value, else the default."""
    return [
        config.setting("ball-radius", args.ball_radius if ac.ball_radius is None else ac.ball_radius)
        for ac in config.actions
    ]


def _settings_rows(settings: dict[str, int]) -> list[tuple[str, str]]:
    return [(k, str(v)) for k, v in settings.items()]


def _dispatch(args, config: SystemConfig, system: ActionSystem) -> int:
    radii = _ball_radii(args, config)  # range-checked for every command
    settings = _settings(args, config)
    if args.command == "classify":
        return _cmd_classify(args, system, settings)
    if args.command == "combine":
        return _cmd_combine(args, system, settings)
    if args.command == "delta":
        return _cmd_delta(args, system, settings, radii)
    if args.command == "dynamics":
        return _cmd_dynamics(args, system, settings, radii)
    return _cmd_report(args, system, settings)


def _tau_display(cls: IsometryClass) -> str:
    if cls.is_hyperbolic:
        return f"{cls.hyperbolic.translation_length.value:.6f}"
    return "-"


def _cmd_classify(args, system: ActionSystem, settings) -> int:
    words = [("gen " + g, GroupWord.generator(g)) for g in system.generators]
    for i, w in enumerate(system.witnesses):
        if w is not None:
            words.append((f"witness[{i}]", w))
    for text in args.word:
        try:
            words.append((repr(text), GroupWord.parse(text, set(system.generators))))
        except ValueError as exc:
            raise ValidationError(str(exc), "--word")
    rec = RunRecord(command="classify", status="ok", exit_code=0, settings=_settings_rows(settings))
    rows = []
    violations = 0
    for i, action in enumerate(system.actions):
        for label, word in words:
            cls = action.classify_word(word)
            if cls.tag == "hypothesis_violation":
                violations += 1
            rows.append((str(i), action.name, action.model.kind, label, cls.tag,
                         class_invariant(cls), _tau_display(cls)))
            rec.extra.append(
                f"classified {i} {action.name} {action.model.kind} "
                f"{word.display().replace(' ', '.')} {cls.tag} {class_invariant(cls)}"
            )
    exit_code = EXIT_HYPOTHESIS if violations else EXIT_OK
    rec.exit_code = exit_code
    rec.status = "hypothesis-violation" if violations else "ok"
    if args.format == "records":
        print(rec.emit(), end="")
    else:
        _print_table(["#", "action", "kind", "element", "tag", "invariant", "tau~"], rows)
    return exit_code


def _cmd_combine(args, system: ActionSystem, settings) -> int:
    if args.verify is not None:
        record = parse_record(_read(args.verify))
        ok, notes = verify_record(system, record)
        if args.format == "records":
            out = RunRecord(
                command="combine-verify",
                status="ok" if ok else "mismatch",
                exit_code=EXIT_OK if ok else EXIT_EXHAUSTED,
                settings=_settings_rows(settings),
            )
            out.word = record.word
            out.extra.extend(f"note {n}" for n in notes)
            print(out.emit(), end="")
        else:
            print(f"verification: {'ok' if ok else 'FAILED'}")
            for n in notes:
                print(" ", n)
        return EXIT_OK if ok else EXIT_EXHAUSTED

    code, _, cert = _search(args, system, settings)
    if cert is None:
        return code
    if args.format == "records":
        rec = record_for_certificate("combine", system, cert, _settings_rows(settings))
        print(rec.emit(), end="")
    else:
        _print_witnesses(system, cert)
        print(
            f"search: {cert.search_stats.candidates_tried} candidates over "
            f"{cert.search_stats.stages} stages"
        )
    return EXIT_OK


def _sample(action, seed: int, count: int, radius: int):
    """Seeded plane points, or the tree ball of the given radius; either
    way at most MAX_SAMPLE_POINTS points."""
    model = action.model
    size = count if isinstance(model, HalfPlaneModel) else model.ball_size(radius)
    if size > MAX_SAMPLE_POINTS:
        raise ValidationError(
            f"a sample of {size} points is over the cap of {MAX_SAMPLE_POINTS}", f"action {action.name!r}"
        )
    if isinstance(model, HalfPlaneModel):
        return sample_plane_points(model, count, rng_from_seed(seed))
    return model.ball_vertices(radius)


def _cmd_delta(args, system: ActionSystem, settings, radii: list[int]) -> int:
    rec = RunRecord(command="delta", status="ok", exit_code=0, settings=_settings_rows(settings))
    rows = []
    for i, action in enumerate(system.actions):
        sample = _sample(action, settings["seed"], args.samples, min(4, radii[i]))
        est = estimate_delta_four_point(action.model, sample, action.model.basepoint)
        rows.append((str(i), action.name, action.model.kind, est.condition,
                     f"{est.delta:.6f}", str(est.sample_size)))
        if isinstance(action.model, TreeModel):
            rec.extra.append(
                f"delta {i} {action.name} {est.condition} exact {int(est.delta)} n {est.sample_size}"
            )
        else:
            rec.extra.append(
                f"delta {i} {action.name} {est.condition} approx~ {est.delta:.9f} n {est.sample_size}"
            )
    if args.format == "records":
        print(rec.emit(), end="")
    else:
        _print_table(["#", "action", "kind", "condition", "delta~", "sample"], rows)
    return EXIT_OK


def _cmd_dynamics(args, system: ActionSystem, settings, radii: list[int]) -> int:
    depth = settings["orbit-depth"]
    if depth > MAX_ORBIT_DEPTH:
        raise ValidationError(f"{depth} is over the cap of {MAX_ORBIT_DEPTH}", "orbit-depth")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    rec = RunRecord(command="dynamics", status="ok", exit_code=0, settings=_settings_rows(settings))
    rows = []
    for i, action in enumerate(system.actions):
        witness, cls = resolve_witness(system, i)
        sample = _sample(action, settings["seed"], 24, min(3, radii[i]))
        if "ns" in checks:
            spec_plus = dyn.NeighborhoodSpec(cls.hyperbolic.fixed_plus, 1.0, action.model.basepoint)
            spec_minus = dyn.NeighborhoodSpec(cls.hyperbolic.fixed_minus, 1.0, action.model.basepoint)
            try:
                n = dyn.ns_dynamics_check(
                    action, witness, spec_plus, spec_minus, sample, depth
                )
                rows.append((str(i), action.name, "ns", f"N={n}"))
                rec.extra.append(f"ns {i} {action.name} N {n}")
            except (NoPassingN, ValueError) as exc:
                rows.append((str(i), action.name, "ns", f"failed: {exc}"))
                rec.extra.append(f"ns {i} {action.name} failed")
        if "insize" in checks:
            pts = sample[:12]
            triangles = [
                (pts[j], pts[j + 1], pts[j + 2])
                for j in range(len(pts) - 2)
                if pts[j].coords != pts[j + 1].coords
                and pts[j + 1].coords != pts[j + 2].coords
                and pts[j].coords != pts[j + 2].coords
            ]
            est = dyn.estimate_delta_insize(action.model, triangles)
            rows.append((str(i), action.name, "insize", f"{est.delta:.6f} over {est.sample_size}"))
            rec.extra.append(f"insize {i} {action.name} approx~ {est.delta:.9f} n {est.sample_size}")
        if "projection" in checks:
            orbit = dyn.orbit_points(action, witness, action.model.basepoint, 8)
            worst = max([0.0] + [dyn.project_to_orbit(action.model, orbit, z).defect for z in sample[:10]])
            rows.append((str(i), action.name, "projection", f"max defect {worst:.6f}"))
            rec.extra.append(f"projection {i} {action.name} approx~ {worst:.9f}")
    if args.format == "records":
        print(rec.emit(), end="")
    else:
        _print_table(["#", "action", "check", "result"], rows)
    return EXIT_OK


def _search(args, system: ActionSystem, settings):
    """The hypothesis check, then the search: (exit code, hypothesis report,
    certificate), the certificate None after a reported failure."""
    hyp = check_hypotheses(system, settings["word-sample-depth"])
    if not hyp.passed:
        _emit_violations(args, system, hyp, settings)
        return EXIT_HYPOTHESIS, hyp, None
    try:
        return EXIT_OK, hyp, simultaneous_hyperbolic(system, SearchSchedule(settings["max-exponent"]))
    except ScheduleExhausted as exc:
        _emit_exhausted(args, exc, settings)
        return EXIT_EXHAUSTED, hyp, None


def _emit_violations(args, system: ActionSystem, report, settings) -> None:
    for word, i in report.violations:
        print(
            f"hypothesis violation: word {word.display()!r} in action "
            f"{i} ({system.actions[i].name})",
            file=sys.stderr,
        )
    if args.format == "records":
        rec = RunRecord(
            command=args.command,
            status="hypothesis-violation",
            exit_code=EXIT_HYPOTHESIS,
            settings=_settings_rows(settings),
        )
        for word, i in report.violations:
            rec.extra.append(
                f"violation {i} {system.actions[i].name} {word.display().replace(' ', '.')}"
            )
        print(rec.emit(), end="")


def _emit_exhausted(args, exc: ScheduleExhausted, settings) -> None:
    print(f"error: {exc}", file=sys.stderr)
    if args.format == "records":
        rec = RunRecord(
            command=args.command,
            status="schedule-exhausted",
            exit_code=EXIT_EXHAUSTED,
            settings=_settings_rows(settings),
        )
        rec.extra.append(f"exhausted-stage {exc.stage} trials {len(exc.trials)}")
        for a, b, action_index, tag in exc.trials[:50]:
            rec.extra.append(f"trial a {a} b {b} failed-action {action_index} tag {tag}")
        print(rec.emit(), end="")


def _cmd_report(args, system: ActionSystem, settings) -> int:
    code, hyp, cert = _search(args, system, settings)
    if cert is None:
        return code
    rec = record_for_certificate("report", system, cert, _settings_rows(settings))
    rec.extra.append(f"hypotheses words {hyp.words_checked} violations 0")
    stages = cert.stages[1:]  # stage 0 only resolves the first witness
    for s in stages:
        if s.profile is None:
            rec.extra.append(f"profile {s.stage} trivial")
            continue
        for e in s.profile.entries:
            if e.partition is not None:
                rec.extra.append(
                    f"profile {s.stage} {e.action_index} {e.action_name} f={e.f_tag} "
                    f"g={e.g_tag} partition={e.partition}"
                )
    if args.format == "records":
        print(rec.emit(), end="")
        return EXIT_OK
    print(f"hypotheses: pass ({hyp.words_checked} words checked)")
    _print_witnesses(system, cert)
    for s in stages:
        if s.profile is None:
            print(f"stage {s.stage}: trivial (running word already hyperbolic)")
            continue
        tags = ", ".join(
            f"{e.action_name}:{e.partition}" for e in s.profile.entries if e.partition is not None
        )
        print(f"stage {s.stage}: partition {tags}")
    return EXIT_OK


def _print_witnesses(system: ActionSystem, cert) -> None:
    rows = [
        (str(i), action.name, action.model.kind, cls.tag, class_invariant(cls), _tau_display(cls))
        for i, (action, cls) in enumerate(zip(system.actions, cert.per_action))
    ]
    print(f"word: {cert.word.display()}")
    _print_table(["#", "action", "kind", "tag", "invariant", "tau~"], rows)


def _print_table(headers: list[str], rows: list[tuple]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(str(cell)))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*(str(c) for c in row)))


if __name__ == "__main__":
    sys.exit(main())
