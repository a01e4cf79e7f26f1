"""The four workloads: inputs made from the workload seed, the jobs that
run them through hypiso, and the checks on every output.

A workload is a ``setup(hp, seed, paths)`` that builds inputs with the
freshly imported hypiso modules ``hp`` and returns a list of jobs;
``paths.configs`` is the repository's configs/ and ``paths.work`` a
scratch directory inside the checkout.  A job has a timed ``run``, a
timed ``verify`` of what ``run`` produced, and an untimed ``check`` that
returns the problems the oracles found.

survey  desk-scale systems from sampling.random_action_system: sampling
        and its hypothesis check dominate, the search is trivial.
chain   chain-k systems, k = 4..16: power normalization and the schedule
        search over words of up to ~500 letters with growing plane entries.
deep    check_hypotheses at depth 5 to 7, then the combiner.
cli     hypiso.cli.main in-process: combine (table and records), combine
        --verify, report, classify, delta and dynamics on configs/ and on
        config files written from seeded systems.

Every workload starts from base systems that do not depend on the seed
and moves each by a seeded symmetry (gen.symmetric_copy).  The seed so
changes every matrix, fixed point and certificate but not the work: fresh
random systems per seed moved job_ms.p50 by 10-25% between seeds.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

import gen
import oracles

MAX_EXPONENT = 32
SETTINGS = [("max-exponent", str(MAX_EXPONENT))]

# Job counts; each is at least 40 so that every run has a tail.
SURVEY_SYSTEMS = 240
CHAIN_KS = range(4, 17)
CHAIN_BASES_PER_K = 4
# Every base system runs as several seeded copies of equal cost, so that
# job_ms.p50 and job_ms.tail each fall among copies of one base system.
DEEP_BASES = 16
DEEP_COPIES = 3
DEEP_DEPTH = 5
DEEP_VERIFY_TIMES = 3  # short records: more samples for verify_ms.p50
# Three config jobs, costlier than every copy, put the tail (the 11th
# slowest job) and the median in the middle of a group of equal copies.
DEEP_CONFIGS = (("worked_example.cfg", 6), ("three_action.cfg", 6), ("three_action.cfg", 7))
CLI_SEEDED = 10
CLI_VERIFY_TIMES = 8  # each record is verified this many times, each timed
CLI_SAMPLE_DEPTH = 3  # hypiso's default word-sample-depth, used by combine and report


def job_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def spec_from_system(system, hp) -> gen.SystemSpec:
    """Raw generator images of a hypiso ActionSystem, for the oracles."""
    spec = gen.SystemSpec(tuple(system.generators))
    for action, witness in zip(system.actions, system.witnesses):
        model = action.model
        if isinstance(model, hp.halfplane.HalfPlaneModel):
            kind, params = "half_plane", ()
            images = {g: iso.payload.entries() for g, iso in action.images.items()}
        elif isinstance(model, hp.trees.BassSerreModel):
            kind, params = "bass_serre", tuple(model.orders)
            images = {g: tuple(iso.payload) for g, iso in action.images.items()}
        else:
            kind, params = "cayley_tree", (model.rank,)
            images = {g: tuple(iso.payload) for g, iso in action.images.items()}
        spec.actions.append(gen.ActionSpec(action.name, kind, params, images,
                                           None if witness is None else witness.display()))
    return spec


def hypothesis_problems(spec: gen.SystemSpec, report, depth: int) -> list[str]:
    """words_checked by formula; violations per action by raw enumeration."""
    problems = []
    expected = oracles.reduced_word_count(len(spec.generators), depth)
    if report.words_checked != expected:
        problems.append(f"words_checked {report.words_checked}, expected {expected}")
    for i, action in enumerate(spec.actions):
        found = sum(1 for _, j in report.violations if j == i)
        if action.kind == "half_plane":
            want = oracles.parabolic_count([action.images[g] for g in spec.generators], depth)
        else:
            want = 0  # trees have no parabolic isometries
        if found != want:
            problems.append(f"action {i}: {found} violations reported, oracle finds {want}")
    return problems


# -- library jobs: survey, chain, deep ---------------------------------------------


class LibraryJob:
    """Input -> certificate -> record text; verify re-checks the record."""

    verify_times = 1

    def __init__(self, hp, label, system=None, spec=None, depth=None):
        self.hp = hp
        self.label = label
        self.system = system
        self.spec = spec
        self.depth = depth

    def run(self):
        hp = self.hp
        system = self.system
        report = None
        if self.depth is not None:
            report = hp.combiner.check_hypotheses(system, self.depth)
        cert = hp.combiner.simultaneous_hyperbolic(system, hp.combiner.SearchSchedule(MAX_EXPONENT))
        text = hp.records.record_for_certificate("combine", system, cert, SETTINGS).emit()
        return system, cert, report, text

    def verify(self, out):
        hp = self.hp
        system, cert, _, text = out
        record = hp.records.parse_record(text)
        ok, notes = hp.records.verify_record(system, record)
        return record, ok and hp.combiner.verify_certificate(system, cert), notes

    def check(self, out, verified) -> list[str]:
        hp = self.hp
        system, _, report, text = out
        record, ok, notes = verified
        spec = self.spec
        problems = oracles.certificate_problems(spec, text, MAX_EXPONENT)
        if not ok:
            problems.append(f"the library rejects its own certificate: {notes}")
        if record.emit() != text:
            problems.append("record does not survive emit -> parse -> emit")
        altered = hp.records.parse_record(oracles.alter_witness(text))
        if hp.records.verify_record(system, altered)[0]:
            problems.append("verify_record accepts a record with an altered witness")
        if report is not None:
            problems += hypothesis_problems(spec, report, self.depth)
        return [f"{self.label}: {p}" for p in problems]


class SurveyJob(LibraryJob):
    """A desk-scale system: the sampler builds it (timed), the benchmark
    moves it by a seeded symmetry (untimed), and the combiner certifies
    the copy (timed, as in LibraryJob.run)."""

    def __init__(self, hp, base_seed: int, n_actions: int, copy_seed: str):
        super().__init__(hp, f"survey base {base_seed} ({n_actions} actions)")
        self.base_seed = base_seed
        self.n_actions = n_actions
        self.copy_seed = copy_seed

    def sample(self):
        return self.hp.sampling.random_action_system(self.base_seed, n_actions=self.n_actions)

    def adopt(self, system) -> None:
        self.spec = gen.symmetric_copy(spec_from_system(system, self.hp), random.Random(self.copy_seed))
        self.system = _built(self.hp, self.spec)

    def check(self, out, verified) -> list[str]:
        # the sampler promises a system with no parabolic word up to length 3
        report = self.hp.combiner.check_hypotheses(out[0], 3)
        return super().check(out, verified) + [
            f"{self.label}: {p}" for p in hypothesis_problems(self.spec, report, 3)]


def setup_survey(hp, seed: int, paths) -> list:
    # 2, 3 and 4 actions in turn, so every run has the same mix of sizes
    return [SurveyJob(hp, base, 2 + i % 3, f"survey:{seed}:{i}")
            for i, base in enumerate(job_seeds("survey-base", 0, SURVEY_SYSTEMS))]


def _built(hp, spec: gen.SystemSpec):
    return hp.config.parse_config(gen.write_config(spec)).build()


def base_systems(hp, count: int) -> list[gen.SystemSpec]:
    """Desk-scale systems from the sampler at the fixed seeds 0..count-1."""
    return [spec_from_system(hp.sampling.random_action_system(s), hp) for s in range(count)]


def setup_chain(hp, seed: int, paths) -> list:
    jobs = []
    for k in CHAIN_KS:
        for j in range(CHAIN_BASES_PER_K):
            base = gen.chain_system(k, random.Random(f"chain-base:{k}:{j}"))
            spec = gen.symmetric_copy(base, random.Random(f"chain:{seed}:{k}:{j}"))
            jobs.append(LibraryJob(hp, f"chain k={k} base {j} seed {seed}", _built(hp, spec), spec, depth=1))
    return jobs


def setup_deep(hp, seed: int, paths) -> list:
    jobs = []
    for name, depth in DEEP_CONFIGS:
        text = (paths.configs / name).read_text()
        system = hp.config.parse_config(text).build()
        jobs.append(LibraryJob(hp, f"deep {name} depth {depth}", system, gen.read_config(text), depth=depth))
    rng = random.Random(f"deep:{seed}")
    for j, base in enumerate(base_systems(hp, DEEP_BASES)):
        for copy in range(DEEP_COPIES):
            spec = gen.symmetric_copy(base, rng)
            label = f"deep base {j} copy {copy} seed {seed} depth {DEEP_DEPTH}"
            job = LibraryJob(hp, label, _built(hp, spec), spec, depth=DEEP_DEPTH)
            job.verify_times = DEEP_VERIFY_TIMES
            jobs.append(job)
    return jobs


# -- cli jobs -----------------------------------------------------------------------------


def run_cli(hp, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hp.cli.main(argv)
    return code, out.getvalue()


class CliJob:
    """One hypiso command on one config file; a records combine is
    verified with ``combine --verify`` on the record it wrote."""

    def __init__(self, hp, command: list[str], config: Path, spec: gen.SystemSpec, record: Path):
        self.hp = hp
        self.argv = [command[0], "--input", str(config), *command[1:]]
        self.label = f"cli {' '.join(command)} {config.name}"
        self.spec = spec
        self.record = record
        self.verify_argv = None
        self.verify_times = 0
        if command == ["combine", "--format", "records"]:
            self.verify_argv = ["combine", "--input", str(config), "--verify", str(record)]
            self.verify_times = CLI_VERIFY_TIMES

    def run(self):
        code, text = run_cli(self.hp, self.argv)
        if code != 0:
            raise RuntimeError(f"{self.label}: exit code {code}")
        if self.verify_argv is not None:
            self.record.write_text(text)
        return text

    def verify(self, out):
        code, text = run_cli(self.hp, self.verify_argv)
        if code != 0:
            raise RuntimeError(f"{self.label} --verify: exit code {code}")
        return text

    def check(self, out: str, verified) -> list[str]:
        problems = getattr(self, "_check_" + self.argv[0])(out)
        if verified is not None and verified.strip() != "verification: ok":
            problems.append(f"--verify printed {verified!r}")
        if self.verify_argv is not None:
            altered = self.record.with_suffix(".altered")
            altered.write_text(oracles.alter_witness(out))
            code, _ = run_cli(self.hp, self.verify_argv[:-1] + [str(altered)])
            if code != 2:
                problems.append(f"combine --verify of an altered record exits {code}, not 2")
        return [f"{self.label}: {p}" for p in problems]

    def _check_combine(self, out: str) -> list[str]:
        if out.startswith("hypiso-record v1"):
            return oracles.certificate_problems(self.spec, out, MAX_EXPONENT)
        word = next(l for l in out.splitlines() if l.startswith("word: ")).removeprefix("word: ")
        problems = []
        for i, action in enumerate(self.spec.actions):
            tag, _ = oracles.classify(action, oracles.parse_word(word))
            if tag != "hyperbolic":
                problems.append(f"word {word!r} is {tag} in action {i}")
        return problems

    def _check_report(self, out: str) -> list[str]:
        problems = oracles.certificate_problems(self.spec, out, MAX_EXPONENT)
        words = oracles.reduced_word_count(len(self.spec.generators), CLI_SAMPLE_DEPTH)
        if f"hypotheses words {words} violations 0" not in out.splitlines():
            problems.append(f"report does not state {words} words checked")
        return problems

    def _check_classify(self, out: str) -> list[str]:
        problems = []
        lines = [l.split() for l in out.splitlines() if l.startswith("classified ")]
        if not lines:
            problems.append("classify printed no rows")
        for _, i, _, _, word, tag, invariant in lines:
            action = self.spec.actions[int(i)]
            want_tag, want_invariant = oracles.classify(action, oracles.parse_word(word.replace(".", " ")))
            if tag != want_tag or (want_invariant is not None and invariant != want_invariant):
                problems.append(f"{word} in action {i}: {tag} {invariant}, oracle {want_tag} {want_invariant}")
        return problems

    def _check_delta(self, out: str) -> list[str]:
        problems = []
        rows = [l.split() for l in out.splitlines() if l.startswith("delta ")]
        if len(rows) != len(self.spec.actions):
            problems.append(f"{len(rows)} delta rows for {len(self.spec.actions)} actions")
        for row in rows:
            action = self.spec.actions[int(row[1])]
            if action.kind != "half_plane":
                if row[4:6] != ["exact", "0"]:  # trees are 0-hyperbolic
                    problems.append(f"tree delta row {row}")
            elif not 0.0 <= float(row[5]) <= math.log(3):
                problems.append(f"plane delta {row[5]} outside [0, log 3]")
        return problems

    def _check_dynamics(self, out: str) -> list[str]:
        problems = []
        rows = [l.split() for l in out.splitlines() if l.split(" ", 1)[0] in ("ns", "insize", "projection")]
        if len(rows) != 3 * len(self.spec.actions):
            problems.append(f"{len(rows)} dynamics rows for {len(self.spec.actions)} actions")
        for row in rows:
            action = self.spec.actions[int(row[1])]
            if row[0] == "ns":
                continue
            value = float(row[4])
            if action.kind != "half_plane" and row[0] == "insize" and value != 0.0:
                problems.append(f"tree insize {value}, trees have insize 0")
            if not 0.0 <= value <= (math.log(3) if row[0] == "insize" else math.inf):
                problems.append(f"{row[0]} {value} out of range")
        return problems


CLI_COMMANDS = (
    ["combine"],
    ["combine", "--format", "records"],
    ["report", "--format", "records"],
    ["classify", "--format", "records"],
    # at the default ball radius 8, delta samples the radius-4 ball: 937
    # vertices on a rank-3 Cayley tree, for which the four-point estimator
    # allocates an n^3 array of 6.3 GB (see CHANGES.md)
    ["delta", "--format", "records", "--ball-radius", "3"],
    ["dynamics", "--format", "records"],
)


def setup_cli(hp, seed: int, paths) -> list:
    configs = [paths.configs / "worked_example.cfg", paths.configs / "three_action.cfg"]
    specs = [gen.read_config(p.read_text()) for p in configs]
    rng = random.Random(f"cli:{seed}")
    for j, base in enumerate(base_systems(hp, CLI_SEEDED)):
        spec = gen.symmetric_copy(base, rng)
        path = paths.work / f"base-{j}.cfg"
        path.write_text(gen.write_config(spec))
        configs.append(path)
        specs.append(spec)
    for path in configs:  # as a user would: the tool must accept every file
        hp.config.parse_config(path.read_text())
    return [CliJob(hp, command, path, spec, paths.work / f"{path.stem}.rec")
            for path, spec in zip(configs, specs) for command in CLI_COMMANDS]


SETUPS = {"survey": setup_survey, "chain": setup_chain, "deep": setup_deep, "cli": setup_cli}
