"""Checks on the library source itself."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypiso.quadratic import QuadraticNumber

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "hypiso").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # python -O strips assert statements: library checks must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def test_every_export_resolves():
    # the package loads its public names lazily from a name -> module map;
    # a fresh interpreter must resolve every one of them
    code = "import hypiso\nprint(' '.join(n for n in hypiso.__all__ if not hasattr(hypiso, n)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", f"unresolved exports: {result.stdout.strip()}"


def test_dir_lists_an_export_whose_cached_value_is_gone(monkeypatch):
    # an export is cached in the package's globals on first use; dir()
    # lists every export, whether or not it is cached
    import hypiso

    assert hypiso.GroupWord is not None
    monkeypatch.delitem(vars(hypiso), "GroupWord")
    assert "GroupWord" not in vars(hypiso) and "GroupWord" in dir(hypiso)


def _is_dataclass(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: a class whose annotated names are fields."""
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    ) or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)


def _targets(stmt) -> list:
    """The targets an assignment sets, tuples unpacked."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]


def _init_attributes(node: ast.ClassDef):
    """The statements of a class's ``__init__`` that set public attributes
    on self, with the attribute names each sets."""
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            for stmt in ast.walk(member):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    names = [
                        t.attr for t in _targets(stmt)
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
                        and not t.attr.startswith("_")
                    ]
                    if names:
                        yield stmt, names


def _public_definitions(tree: ast.Module):
    """(label, name, first line, last line, whether a field) of each public
    module-level function, class and constant, of each public method and
    property of a class, of each public field of a dataclass or NamedTuple and of each
    public attribute a plain class sets on self in ``__init__`` (a field
    too: used only where read), labelled Class.name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member.lineno, member.end_lineno, False
                elif (
                    _is_dataclass(node)
                    and isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and not member.target.id.startswith("_")
                ):
                    name = member.target.id
                    yield f"{node.name}.{name}", name, member.lineno, member.end_lineno, True
            if not _is_dataclass(node):
                for stmt, attrs in _init_attributes(node):
                    for name in attrs:
                        yield f"{node.name}.{name}", name, stmt.lineno, stmt.end_lineno, True


def _references(tree: ast.Module):
    """(name, line, whether a read, whether a member reference) of every
    name, attribute and string constant: the benchmark's tracer names the
    functions it wraps by string.  A read is an attribute loaded or a
    string; a field counts as used only when it is read, since the dataclass
    sets every field itself.  A member reference is an attribute or a
    string: a bare name never reaches a class member, so it does not use one
    (a class-body alias such as ``key = method`` is not a use either)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno, False, False
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno, isinstance(n.ctx, ast.Load), True
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value, n.lineno, True, True


# fields that nothing reads by name: a plane class's discriminant is read
# by unpacking the class
UNREAD_FIELDS = {"PlaneHyperbolic.disc"}


def test_every_public_name_is_used():
    # no public name that nothing runs: each public module-level name, each
    # public method or property, each public dataclass or NamedTuple field and each public
    # attribute a plain class sets on self in __init__ (ScheduleExhausted's
    # stage and trials, the models' model_id, rank and orders) of
    # the library is referenced (a field or attribute: read), outside its own
    # definition, by the library, the scripts or the benchmark (the export
    # map in __init__ is not a use; sampling.py serves the test suites and is
    # exempt).  A class member is used only through an attribute or a
    # string, a module-level name through any reference.  A reference is
    # still matched by name alone, so a member named like another attribute
    # in use passes unseen: a method median would pass on the benchmark's
    # statistics.median
    users = [p for p in SOURCES if p.name != "__init__.py"]
    users += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in users}
    references = {path: list(_references(tree)) for path, tree in trees.items()}
    unused, exempt = [], set()
    for path in SOURCES:
        if path.name in ("__init__.py", "sampling.py"):
            continue
        for label, name, first, last, field in _public_definitions(trees[path]):
            if field and label in UNREAD_FIELDS:
                exempt.add(label)
                continue
            member = "." in label
            if not any(
                ref == name and (read or not field) and (named or not member)
                and not (user == path and first <= line <= last)
                for user, refs in references.items()
                for ref, line, read, named in refs
            ):
                unused.append(f"{path.stem}.{label}")
    assert unused == [], f"public names nothing uses: {unused}"
    assert exempt == UNREAD_FIELDS, f"exempt fields not defined: {UNREAD_FIELDS - exempt}"


def test_every_mutant_applies_once_and_names_its_tests():
    # tests/mutants.py applies each mutant by replacing its snippet, which
    # must occur exactly once in its file, and runs the tests it names
    from mutants import MUTANTS, source

    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 95
    for mutant in MUTANTS:
        assert source(mutant).read_text().count(mutant.snippet) == 1, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, test


def _imports(node: ast.AST, top: bool = True):
    """(module, whether at module level) of every import under node, outside
    ``if TYPE_CHECKING:`` blocks; a relative import names hypiso.<module>."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
            continue
        if isinstance(child, ast.Import):
            yield from ((alias.name, top) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            if not child.level:
                yield child.module, top
            elif child.module:
                yield f"hypiso.{child.module}", top
            else:
                yield from ((f"hypiso.{alias.name}", top) for alias in child.names)
        else:
            yield from _imports(child, top and not isinstance(child, (ast.FunctionDef, ast.Lambda)))


# the certificate checker's modules and their line count: the core that a
# record's verification loads, with no search, no geometry, no plane (nor
# its boundary forms: witness lines print the class's integers), no numpy
# and no fractions (a tree's lengths are its integers)
CHECKER_CLOSURE = {"__init__", "records", "actions", "errors", "models", "trees", "words"}
CHECKER_LINES = 959

# a ceiling on the library's size, `wc -l src/hypiso/*.py`: the line count
# the project tracks next to its timings
SRC_LINES = 2945


# the geometry lab's members, which live in geometry.py: no core model
# module may define one of them again
LAB_NAMES = {
    "point_xy", "_xy", "distance_key", "_cosh_ratio", "distance", "pairwise_distances", "apply", "_floats",
    "gromov_boundary_point", "gromov_boundary_pair", "_dist", "_gromov", "internal_points", "_once", "_read",
    "ball_vertices", "ball_size", "basepoint", "_root",
    # the trees' vertex labels
    "_act", "_neighbors", "_degrees", "_vertex_from_units", "_vertex", "_common_prefix_len",
}


def _members(tree: ast.Module):
    """(name, line) of every function and class, of every name that a module
    or class body assigns (``_root = ()``, ``model_id: str``) and of every
    attribute set on self."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, (ast.Module, ast.ClassDef)):
            yield from ((t.id, stmt.lineno) for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                        for t in _targets(stmt) if isinstance(t, ast.Name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from ((t.attr, node.lineno) for t in _targets(node)
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self")


def test_the_core_models_define_no_lab_member():
    found = []
    for name in ("models", "halfplane", "trees"):
        tree = ast.parse((SRC / "hypiso" / f"{name}.py").read_text())
        found += [f"{name}.py, line {line}: {member}" for member, line in _members(tree) if member in LAB_NAMES]
    assert found == []
    geometry = {member for member, _ in _members(ast.parse((SRC / "hypiso" / "geometry.py").read_text()))}
    assert LAB_NAMES <= geometry, LAB_NAMES - geometry


def test_the_diagnostics_and_the_sampler_build_no_lab():
    # dynamics and sampling read through the lab their caller built, one
    # per action: neither calls lab, bare or as geometry.lab
    for name in ("dynamics", "sampling"):
        tree = ast.parse((SRC / "hypiso" / f"{name}.py").read_text())
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lab"]
        assert calls == [], f"{name}.py calls lab on lines {calls}"


def test_tree_labs_define_only_their_labels_hooks():
    # a tree vertex is its root path, so TreeGeometry reads depth, meets and
    # ancestors from the label itself: each tree lab defines only how its
    # labels move and branch, and no depth or meet of its own
    tree = ast.parse((SRC / "hypiso" / "geometry.py").read_text())
    labs = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    hooks = {"_act", "_neighbors", "_degrees", "_vertex_from_units", "_vertex"}
    for name in ("CayleyGeometry", "BassSerreGeometry"):
        members = {member for member, _ in _members(ast.Module(body=[labs[name]], type_ignores=[]))} - {name}
        assert members <= hooks, (name, members - hooks)


def test_checker_import_closure_is_pinned():
    closure, todo = set(), ["__init__", "records"]  # importing records runs __init__
    numpy_at_import, fractions_imported = [], []
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        for module, top in _imports(ast.parse((SRC / "hypiso" / f"{name}.py").read_text())):
            if module.split(".")[0] == "numpy" and top:
                numpy_at_import.append(name)
            if module.split(".")[0] == "fractions":
                fractions_imported.append(name)
            if module.startswith("hypiso."):
                todo.append(module.split(".")[1])
    assert closure == CHECKER_CLOSURE
    assert numpy_at_import == []
    assert fractions_imported == []
    lines = sum(len((SRC / "hypiso" / f"{name}.py").read_text().splitlines()) for name in closure)
    assert lines <= CHECKER_LINES, f"the checker's modules grew to {lines} lines"


# the functions that a record's verification runs to classify and image
# the word and render its witness lines, by module: none may compute a
# float, which only a reader's translation_length builds
CHECKER_FUNCTIONS = {
    "halfplane": ["HalfPlaneModel.tag", "HalfPlaneModel.classify", "HalfPlaneModel._power"],
    "trees": ["TreeModel.tag", "TreeModel.classify", "TreeModel._fold", "TreeModel.ray_text",
              "BassSerreModel._core_period"],
    "actions": ["Action.image"],
    "models": ["SpaceModel._power", "SpaceModel._sized"],
    "records": ["_ratio", "class_invariant", "_plane_points", "witness_line", "check_witnesses"],
}
FLOAT_CALLS = {"float", "_acosh_ratio", "math.acosh", "math.log"}


def _functions(tree: ast.Module):
    """(name, node) of each module-level function and method, methods named
    Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef))


def _called(call: ast.Call) -> str:
    """The name a call is written with: f or module.f."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return getattr(func, "id", "")


def _built(call: ast.Call) -> str:
    """The class a call builds: its callee's last name, or X of a plain-tuple
    build, tuple.__new__(X, ...) or _new(X, ...)."""
    name = _called(call)
    if name in ("tuple.__new__", "_new") and call.args:
        return getattr(call.args[0], "id", "")
    return name.split(".")[-1]


def test_the_checker_computes_no_float():
    found = []
    for module, names in CHECKER_FUNCTIONS.items():
        functions = dict(_functions(ast.parse((SRC / "hypiso" / f"{module}.py").read_text())))
        assert set(names) <= set(functions), f"{module}: no {set(names) - set(functions)}"
        for name in names:
            found += [
                f"{module}.{name}, line {n.lineno}: {_called(n)}"
                for n in ast.walk(functions[name]) if isinstance(n, ast.Call) and _called(n) in FLOAT_CALLS
            ]
    assert found == []


# the plane lab's per-point work, on the integer triple (X, Y, D) of a point:
# only the exact logs of a product past float range build a Fraction
# (nearest cross-multiplies the integer cosh ratios)
PLANE_INTEGER_FUNCTIONS = [
    "PlaneGeometry.distance", "PlaneGeometry.apply", "PlaneGeometry._floats", "PlaneGeometry.pairwise_distances",
    "PlaneGeometry.point_xy", "_Geometry._once", "PlaneGeometry._point_at", "_cosh_ratio", "PlaneGeometry.nearest",
]


def test_the_plane_lab_builds_no_fraction_per_point():
    functions = dict(_functions(ast.parse((SRC / "hypiso" / "geometry.py").read_text())))
    assert set(PLANE_INTEGER_FUNCTIONS) <= set(functions), set(PLANE_INTEGER_FUNCTIONS) - set(functions)
    found = [
        f"{name}, line {n.lineno}: {_called(n)}"
        for name in PLANE_INTEGER_FUNCTIONS
        for n in ast.walk(functions[name])
        if isinstance(n, ast.Call) and _called(n) in ("Fraction", "fractions.Fraction")
    ]
    assert found == []


def _images_reads(node: ast.AST) -> list[int]:
    """Lines that read an attribute named images, directly or by getattr."""
    return [
        n.lineno
        for n in ast.walk(node)
        if (isinstance(n, ast.Attribute) and n.attr == "images")
        or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "images" for a in n.args))
    ]


def test_checker_never_reads_the_search_images():
    # a certificate keeps the images the search composed; the checker must
    # image the word from its letters instead, so neither records.py nor
    # verify_certificate_detailed may read them
    records = ast.parse((SRC / "hypiso" / "records.py").read_text())
    assert _images_reads(records) == [], "records.py reads .images"
    combiner = ast.parse((SRC / "hypiso" / "combiner.py").read_text())
    [verify] = [
        node for node in combiner.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate_detailed"
    ]
    assert _images_reads(verify) == [], "verify_certificate_detailed reads .images"
    assert _images_reads(combiner), "the search reads the certificate's images"


def test_quadratic_number_is_a_value_not_a_field():
    # a plane boundary point is the primitive integer form it is a root of
    # and a root sign, compared as a tuple: QuadraticNumber keeps no
    # radicand or parts, no arithmetic, order or sign, and defines only its
    # constructor and float (no hand-written equality or hash)
    assert [f.name for f in dataclasses.fields(QuadraticNumber)] == ["form", "root"]
    removed = (
        "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ "
        "__neg__ __abs__ __lt__ __le__ __gt__ __ge__ inverse sign of_parts a b d"
    ).split()
    assert [name for name in removed if name in vars(QuadraticNumber)] == []
    tree = ast.parse((SRC / "hypiso" / "quadratic.py").read_text())
    [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert {node.name for node in cls.body if isinstance(node, ast.FunctionDef)} == {"of", "__float__"}
    assert {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} == set()


def test_each_model_reads_its_own_config_images():
    # the config hands every image to its model's parse_word: it imports no
    # fractions and asks no model its class, and quadratic.py parses nothing
    for name in ("config", "quadratic"):
        imported = {module.split(".")[0] for module, _ in _imports(ast.parse((SRC / "hypiso" / f"{name}.py").read_text()))}
        assert "fractions" not in imported, name
    classes = {"SpaceModel", "HalfPlaneModel", "TreeModel", "BassSerreModel", "CayleyTreeModel"}
    config = ast.parse((SRC / "hypiso" / "config.py").read_text())
    checks = [node.lineno for node in ast.walk(config) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "isinstance"
              and any(getattr(n, "id", None) in classes for n in ast.walk(node.args[1]))]
    assert checks == [], f"config.py checks a model's class on lines {checks}"


def test_the_search_images_words_only_with_action_image():
    # each stage images its candidates, words in the letters f and g, with
    # Action.image, the one evaluator: combiner composes no payloads itself
    combiner = ast.parse((SRC / "hypiso" / "combiner.py").read_text())
    payload_calls = {"_power", "_mul", "_sized", "require", "own"}
    found = [
        f"line {n.lineno}: {n.func.attr}"
        for n in ast.walk(combiner)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in payload_calls
    ]
    assert found == []


def test_the_core_value_types_are_plain_tuples():
    # a value, a class and a ray are each one tuple, compared and hashed as
    # one; a tree class holds its cyclic core, not its rays
    from hypiso.models import IsometryClass, Owned
    from hypiso.trees import RayDescriptor, TreeHyperbolic

    for cls in (Owned, IsometryClass, RayDescriptor, TreeHyperbolic):
        assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls), cls
    assert TreeHyperbolic._fields == ("length", "u", "v", "model")


def test_stage_records_are_plain_data():
    # a stage record stores what the stage decided: its trivial flag and its
    # candidates follow from the schedule index, and its profile is one
    # plain entry per earlier action, whose partition report computes
    from hypiso.combiner import ProfileEntry, StageRecord

    fields = [f.name for f in dataclasses.fields(StageRecord)]
    assert fields == "stage action_name a b p q schedule_index profile".split()
    assert issubclass(ProfileEntry, tuple) and ProfileEntry._fields == ("cf", "cg", "g_image")
    tree = ast.parse((SRC / "hypiso" / "combiner.py").read_text())
    # every name, attribute, import and definition: no cached partition,
    # no hand-written equality or hash
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None) for n in ast.walk(tree)}
    assert {"cached_property", "__eq__", "__hash__"} & names == set()


def test_a_tree_ray_is_built_and_compared_in_one_place():
    # TreeModel._fold builds every ray and boundary_equal compares two: no
    # second builder or comparison in trees.py, and the tree lab reads a ray
    # in gromov_boundary_point with no helper of its own
    trees, geometry = (ast.parse((SRC / "hypiso" / f"{name}.py").read_text()) for name in ("trees", "geometry"))
    defined = {n.name for tree in (trees, geometry) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert {"ray", "canonical_ray", "rays_equal", "_ray_product"} & defined == set()

    def builds(node: ast.AST) -> list[int]:
        calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
        return [n.lineno for n in calls if _built(n) == "RayDescriptor"]

    builders = [(path.name, line) for path in SOURCES for line in builds(ast.parse(path.read_text()))]
    fold = dict(_functions(trees))["TreeModel._fold"]
    assert len(builders) == 1 and builders == [("trees.py", line) for line in builds(fold)], builders


def test_a_value_is_tagged_and_checked_in_one_place():
    # every isometry, boundary point and lab point is a models.Owned: a
    # model builds it with own (a plane class, which holds no model, builds
    # its fixed points itself) and reads it with require, the one check that
    # raises MixedModels, so no other module compares model ids
    def where(found) -> list[str]:
        """module:function of every node for which found(node) holds."""
        out = []
        for path in SOURCES:
            tree = ast.parse(path.read_text())
            inside = {id(n): name for name, f in _functions(tree) for n in ast.walk(f)}
            out += [f"{path.stem}:{inside.get(id(n), '')}" for n in ast.walk(tree) if found(n)]
        return out

    def raises_mixed(n) -> bool:
        exc = getattr(n, "exc", None) if isinstance(n, ast.Raise) else None
        return getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None) == "MixedModels"

    def compares_ids(n) -> bool:
        operands = [n.left, *n.comparators] if isinstance(n, ast.Compare) else []
        return any(isinstance(o, ast.Attribute) and o.attr == "model_id" for o in operands)

    assert where(raises_mixed) == ["models:SpaceModel.require"]
    assert [found for found in where(compares_ids) if not found.startswith("models:")] == []
    builds = where(lambda n: isinstance(n, ast.Call) and _built(n) == "Owned")
    assert set(builds) == {"models:SpaceModel.own", "halfplane:PlaneHyperbolic.fixed_points"}, builds
    removed = {"Isometry", "BoundaryPoint", "Point", "require_iso", "require_boundary", "require_point",
               "isometry", "boundary", "point"}
    defined = {f"{path.stem}: {member}" for path in SOURCES for member, _ in _members(ast.parse(path.read_text()))
               if member in removed}
    assert defined == set()


def test_the_library_size_is_pinned():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCES)
    assert lines <= SRC_LINES, f"src/hypiso grew to {lines} lines"
