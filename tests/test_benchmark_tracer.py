"""The benchmark's per-layer tracer installs on the library as it is.

perfbench/layers.py wraps library functions and methods by name, and reads
each method from its own class's ``__dict__``: a method hoisted into a base
class, or a function renamed away, passes every other test and breaks only
a traced benchmark run.  This test builds the module namespace as
perfbench/run.py does, installs the tracer, runs a few traced calls and
takes it off again, and runs the lab's commands through the traced cli."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _bench_modules() -> tuple[str, ...]:
    """run.py's MODULES, read from its source: importing run.py would put
    perfbench on sys.path, and its import_hypiso imports hypiso afresh."""
    tree = ast.parse((BENCH / "run.py").read_text())
    [value] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets)
    ]
    return ast.literal_eval(value)


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespace(hp) -> dict:
    """Every module attribute, and every member of each class a module
    defines, keyed by where it lives."""
    out = {}
    for name, module in vars(hp).items():
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                out.update(((name, attr, member), v) for member, v in vars(value).items())
    return out


def _library() -> SimpleNamespace:
    """The hypiso modules that perfbench/run.py traces, by name."""
    hp = SimpleNamespace(hypiso=importlib.import_module("hypiso"))
    for name in _bench_modules():
        setattr(hp, name, importlib.import_module(f"hypiso.{name}"))
    return hp


def test_tracer_installs_on_the_library_and_comes_off():
    hp = _library()
    before = _namespace(hp)
    tracer = _load_layers().Tracer(hp, [0.0])
    tracer.install()
    try:
        plane, cayley = hp.halfplane.HalfPlaneModel(), hp.trees.CayleyTreeModel(2)
        f = plane.matrix(2, 1, 1, 1)
        assert plane.classify(plane.compose(f, f)).is_hyperbolic
        assert cayley.classify(cayley.compose(cayley.word([1]), cayley.word([2]))).is_hyperbolic
        assert _namespace(hp) != before
    finally:
        tracer.uninstall()
    # the tracer's lookups may load some of hypiso's lazy exports, but every
    # name that was there before is its original again
    after = _namespace(hp)
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    counted = ("halfplane.compose", "halfplane.classify", "trees.compose", "trees.classify")
    assert [tracer.calls[key] for key in counted] == [1, 1, 1, 1]


def test_tracer_counts_the_lab_commands(capsys):
    # the cli workload's dynamics and delta on configs/three_action.cfg,
    # three actions: each lab entry point is counted by its name, so one
    # renamed away fails here, not only as a 0 in a traced benchmark run
    hp = _library()
    tracer = _load_layers().Tracer(hp, [0.0])
    config = str(ROOT / "configs" / "three_action.cfg")
    tracer.install()
    try:
        for argv in (["dynamics", "--input", config], ["delta", "--input", config, "--ball-radius", "3"]):
            assert hp.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counted = ("dynamics.ns", "dynamics.projection", "dynamics.insize", "geometry.four_point", "dynamics.internal_points")
    assert [tracer.calls[key] for key in counted] == [3, 3, 3, 3, 29]
