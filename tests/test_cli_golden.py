"""Golden CLI outputs: stdout, stderr and exit code of every command in
both formats, on success and on each failure path, pinned byte for byte
in cli_golden.json.

Run this file as a script (PYTHONPATH=src python tests/test_cli_golden.py)
to rewrite cli_golden.json from the current code; name case ids after it
(... test_cli_golden.py CASE...) to rewrite only those cases.  Do that only
for a deliberate change of output, and say so where the change is described.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hypiso.cli import main
from hypiso.records import parse_record

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")

PARABOLIC = """hypiso-config v1
generators f g

action bad
model half_plane
gen f [[1, 1], [0, 1]]
gen g [[2, 1], [1, 1]]
witness g
"""

# the top-level ball-radius serves free-three; the other two set their own
TREES = """hypiso-config v1
generators f g
ball-radius 2

action free-two
model cayley_tree 2
ball-radius 3
gen f a b
gen g b
witness f

action free-three
model cayley_tree 3
gen f a
gen g b c
witness g

action amalgam
model bass_serre 3 4
ball-radius 4
gen f s t
gen g s
witness f
"""

# with --max-exponent 1 the one candidate f g is parabolic in action one
EXHAUSTING = """hypiso-config v1
generators f g
word-sample-depth 1

action one
model half_plane
gen f [[2, 1], [1, 1]]
gen g [[1, 5], [-1, -4]]
witness f

action two
model half_plane
gen f [[0, -1], [1, 1/2]]
gen g [[2, 1], [1, 1]]
witness g
"""

# no action claims a witness: stages 1 and 2 search for theirs, the plane's
# on level 1 of the word tree and the trees' through their default walk
UNCLAIMED = """hypiso-config v1
generators f g

action dihedral
model half_plane
gen f [[0, -1], [1, 0]]
gen g [[0, -2], [1/2, 0]]

action free
model cayley_tree 2
gen f a
gen g a^-1

action amalgam
model bass_serre 2 3
gen f t
gen g s t s
"""

# the witness f^7000 has a 2,926-digit trace: its cosh-half prints, but its
# fixed points' radicand (tr^2 - 4) is past the 4,300 digits Python prints
HUGE = (REPO / "configs" / "worked_example.cfg").read_text().replace("witness f\n", "witness f^7000\n")

# config name -> (config text, or a file under configs/; flags for every run)
CONFIGS = {
    "worked": ("worked_example.cfg", []),
    "three": ("three_action.cfg", []),
    "parabolic": (PARABOLIC, []),
    "trees": (TREES, []),
    "exhausting": (EXHAUSTING, ["--max-exponent", "1"]),
    "huge": (HUGE, []),
    "unclaimed": (UNCLAIMED, []),
}

COMMANDS = {
    "classify": ["classify", "--word", "f g", "--word", "f^-1 g^2"],
    "combine": ["combine"],
    "report": ["report"],
    "delta": ["delta"],
    "dynamics": ["dynamics"],
}


def _cases() -> dict[str, list[str]]:
    """Case id -> argv; {cfg:NAME} and {rec:NAME} stand for file paths."""
    cases = {}
    for name in ("worked", "three", "parabolic", "trees", "exhausting", "unclaimed"):
        flags = CONFIGS[name][1]
        for command, argv in COMMANDS.items():
            for fmt in ("table", "records"):
                cases[f"{name}-{command}-{fmt}"] = [
                    argv[0], "--input", f"{{cfg:{name}}}", *argv[1:], *flags, "--format", fmt
                ]
    cases["trees-delta-flag-radius"] = ["delta", "--input", "{cfg:trees}", "--ball-radius", "1"]
    for command in ("combine", "report"):
        for fmt in ("table", "records"):  # only the record prints the fixed points
            cases[f"huge-{command}-{fmt}"] = [command, "--input", "{cfg:huge}", "--format", fmt]
    for rec in ("good", "altered", "missing"):
        for fmt in ("table", "records"):
            cases[f"worked-verify-{rec}-{fmt}"] = [
                "combine", "--input", "{cfg:worked}", "--verify", f"{{rec:{rec}}}", "--format", fmt
            ]
    return cases


CASES = _cases()


def _files(root: Path) -> dict[str, str]:
    """Write the configs and records the cases read; placeholder -> path."""
    paths = {}
    for name, (text, _) in CONFIGS.items():
        if text.endswith(".cfg"):
            paths[f"{{cfg:{name}}}"] = str(REPO / "configs" / text)
        else:
            path = root / f"{name}.cfg"
            path.write_text(text)
            paths[f"{{cfg:{name}}}"] = str(path)
    record = _run(["combine", "--input", paths["{cfg:worked}"], "--format", "records"])["stdout"]
    altered = record.replace("cosh-half=7/2", "cosh-half=5/2", 1)
    for name, text in (("good", record), ("altered", altered), ("missing", None)):
        path = root / f"{name}.rec"
        if text is not None:
            path.write_text(text)
        paths[f"{{rec:{name}}}"] = str(path)
    return paths


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_case(case: str, root: Path, paths: dict[str, str]) -> dict:
    argv = [paths.get(arg, arg) for arg in CASES[case]]
    result = _run(argv)
    for key in ("stdout", "stderr"):
        result[key] = result[key].replace(str(root), "<tmp>").replace(str(REPO), "<repo>")
    return result


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, _files(root)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, files):
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(CASES)
    assert run_case(case, *files) == expected[case]


@pytest.mark.parametrize("digits", [None, "0", "640"])
def test_huge_records_do_not_read_the_interpreter_print_limit(digits, files):
    # the CLI runs under its own int-string limit, so a run in a fresh
    # process gives the golden exit code and bytes whatever
    # PYTHONINTMAXSTRDIGITS says (unset, no limit, the least limit)
    root, paths = files
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    if digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = digits
    expected = json.loads(GOLDEN.read_text())
    for case in ("huge-combine-records", "huge-report-records"):
        argv = [paths.get(arg, arg) for arg in CASES[case]]
        done = subprocess.run([sys.executable, "-m", "hypiso.cli", *argv], env=env, capture_output=True, text=True)
        assert {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr} == expected[case], case


def test_mismatch_record_round_trips(files):
    out = run_case("worked-verify-altered-records", *files)["stdout"]
    assert "witness mismatch" in out
    assert parse_record(out).emit() == out


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {' '.join(unknown)}")
    golden = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = _files(root)
        golden.update({case: run_case(case, root, paths) for case in names})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(names)} cases to {GOLDEN}", file=sys.stderr)


# (file, qualified name) of every library function that the certificate
# checker, records.verify_record, runs on the records of the golden configs
# that certify; a comprehension counts as the function that holds it
CHECKER_RUNS = {
    ("actions.py", "Action.classify_word"), ("actions.py", "Action.image"), ("actions.py", "ActionSystem.n_actions"),
    ("halfplane.py", "HalfPlaneModel._power"), ("halfplane.py", "HalfPlaneModel.classify"),
    ("halfplane.py", "Matrix2.__mul__"), ("halfplane.py", "Matrix2.inverse"),
    ("models.py", "IsometryClass.<lambda>"), ("models.py", "SpaceModel._power"), ("models.py", "SpaceModel.own"),
    ("models.py", "SpaceModel.require"),
    ("records.py", "_plane_points"), ("records.py", "_ratio"), ("records.py", "check_witnesses"),
    ("records.py", "class_invariant"), ("records.py", "verify_record"), ("records.py", "witness_line"),
    ("trees.py", "BassSerreModel._core_period"), ("trees.py", "BassSerreModel.cyclic_reduce"),
    ("trees.py", "BassSerreModel.invert_word"), ("trees.py", "BassSerreModel.multiply"),
    ("trees.py", "BassSerreModel.word_display"),
    ("trees.py", "CayleyTreeModel._core_period"), ("trees.py", "CayleyTreeModel.cyclic_reduce"),
    ("trees.py", "CayleyTreeModel.invert_word"), ("trees.py", "CayleyTreeModel.multiply"),
    ("trees.py", "CayleyTreeModel.word_display"),
    ("trees.py", "TreeHyperbolic.<lambda>"), ("trees.py", "TreeModel._fold"), ("trees.py", "TreeModel.classify"),
    ("trees.py", "TreeModel.ray_text"),
    ("words.py", "GroupWord.__post_init__"), ("words.py", "GroupWord.parse"),
    ("words.py", "GroupWord.parse.<locals>.check"), ("words.py", "parse_powers"), ("words.py", "reduce_powers"),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_the_checker_runs_a_pinned_set_of_functions(files, monkeypatch):
    # what combine --verify runs, not only what it imports: the closure pin
    # counts modules, and this pin names the plane's share (Matrix2's
    # product, _power, classify) that the checker runs without importing
    import hypiso
    from hypiso import cli, records

    root, paths = files
    library, outer, ran = str(Path(hypiso.__file__).parent) + os.sep, sys.gettrace(), set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(library):
            name = code.co_qualname.split(".<locals>.<", 1)[0] if code.co_name.endswith("comp>") else code.co_qualname
            ran.add((Path(code.co_filename).name, name))
        return None if outer is None else outer(frame, event, arg)  # a tracer already installed keeps counting

    def traced(*args):
        sys.settrace(tracer)
        try:
            return records.verify_record(*args)
        finally:
            sys.settrace(outer)

    monkeypatch.setattr(cli, "verify_record", traced)
    for name in ("worked", "three", "trees", "unclaimed"):
        cfg, rec = paths[f"{{cfg:{name}}}"], root / f"{name}-checked.rec"
        rec.write_text(_run(["combine", "--input", cfg, "--format", "records"])["stdout"])
        assert _run(["combine", "--input", cfg, "--verify", str(rec)])["stdout"] == "verification: ok\n", name
    assert sorted(ran) == sorted(CHECKER_RUNS)
