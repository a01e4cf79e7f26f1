from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from hypiso import cli, dynamics
from hypiso.actions import Action
from hypiso.dynamics import (
    estimate_delta_insize,
    internal_points,
    ns_dynamics_check,
    orbit_projection,
)
from hypiso.errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from hypiso.geometry import (
    PlaneGeometry,
    TreeGeometry,
    estimate_delta_four_point,
    lab,
)
from hypiso.halfplane import HalfPlaneModel
from hypiso.combiner import resolve_witness
from hypiso.sampling import (
    random_action_system,
    random_plane_hyperbolic,
    rng_from_seed,
    sample_plane_points,
)
from hypiso.trees import BassSerreModel, CayleyTreeModel, TreeModel
from hypiso.words import GroupWord

from reference import (
    Neighborhood,
    bfs_distance,
    contains_point,
    gromov_product,
    neighborhoods_disjoint,
    power,
    sample_points,
    sample_tree_points,
    separation_witnesses,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def plane():
    return HalfPlaneModel()


@pytest.fixture
def bs23():
    return BassSerreModel(2, 3)


def neighborhoods(model, cls, threshold: float = 1.0):
    """U+ and U-: the reference neighborhoods of cls's attracting and
    repelling ends at the lab's basepoint, the ones ns_dynamics_check reads."""
    return tuple(Neighborhood(end, threshold, lab(model).basepoint) for end in cls.hyperbolic.fixed_points)


def test_ns_dynamics_diagonal(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    cls = plane.classify(D)
    u_plus, u_minus = neighborhoods(plane, cls)
    sample = sample_plane_points(lab(plane), 30, rng_from_seed(1))
    n = ns_dynamics_check(lab(plane), act.image(GroupWord.parse("f")), 1.0, sample, 64)
    assert 1 <= n <= 64
    # direct iteration oracle: all points outside U- land in U+ from step n on
    g = act.image(GroupWord.parse("f"))
    outside = [p for p in sample if not contains_point(plane, u_minus, p)]
    for p in outside:
        cur = p
        for _ in range(n):
            cur = lab(plane).apply(g, cur)
        for _ in range(n, 8):
            assert contains_point(plane, u_plus, cur)
            cur = lab(plane).apply(g, cur)


def test_ns_dynamics_diagonal_at_depth_1000(plane):
    # infinity attracts, and y grows fourfold a step: near step 512 an orbit
    # point leaves float range, long after the floor, and the lab's product
    # is read from the logs of its exact coordinates
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    u_plus, _ = neighborhoods(plane, plane.classify(D))
    sample = sample_plane_points(lab(plane), 30, rng_from_seed(1))
    assert ns_dynamics_check(lab(plane), act.image(GroupWord.parse("f")), 1.0, sample, 1000) == 1
    [rows], last = _products_by_iteration(plane, D, u_plus.center, sample[:2], [u_plus.base], 520)
    with pytest.raises(OverflowError):
        float(lab(plane)._xy(last[0])[1])
    assert all(isinstance(v, float) and v > u_plus.threshold for row in rows[8:] for v in row)
    assert rows[-1][0] > 500


def test_ns_dynamics_tree(bs23):
    w = bs23.word([(0, 1), (1, 1)])
    act = Action("b", bs23, {"w": w})
    sample = lab(bs23).ball_vertices(3)
    n = ns_dynamics_check(lab(bs23), act.image(GroupWord.parse("w")), 1.0, sample, 64)
    assert 1 <= n <= 64


def test_ns_dynamics_empty_range(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    with pytest.raises(NoPassingN):
        ns_dynamics_check(lab(plane), act.image(GroupWord.parse("f")), 1.0, [lab(plane).basepoint], 0)


def test_ns_dynamics_requires_hyperbolic(plane):
    act = Action("p", plane, {"r": plane.matrix(0, -1, 1, 0)})
    with pytest.raises(NotHyperbolic, match=f"^word is elliptic in model {plane.model_id!r}$"):
        ns_dynamics_check(lab(plane), act.image(GroupWord.parse("r")), 1.0, [], 8)


def test_ns_dynamics_with_every_point_in_u_minus(plane):
    # 0.001 + 0.001i lies in U-, at g's repelling point 0: no point is left
    # to step, so the floor is n_max with no Busemann shift read, and N is 1
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    near_zero = lab(plane).point_xy(Fraction(1, 1000), Fraction(1, 1000))
    assert ns_dynamics_check(lab(plane), D, 1.0, [near_zero], 64) == 1


def test_dynamics_at_orbit_depth_0_fails_every_ns_check(capsys):
    argv = ["dynamics", "--input", str(CONFIGS / "worked_example.cfg"), "--orbit-depth", "0", "--checks", "ns"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"{i}  plane-{name}  ns     failed: no N <= 0 works for 24 sample points" for i, name in enumerate(("one", "two"))
    ]
    assert cli.main([*argv, "--format", "records"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == ["ns 0 plane-one failed", "ns 1 plane-two failed", "end"]


# -- the North-South check against direct iteration -----------------------------


def _outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the comparison is of the exception
        return type(exc), str(exc)


def _ns_by_iteration(geo, g, threshold, sample, n_max):
    """ns_dynamics_check by direct iteration: apply g to every point, then
    contains_point on each until one fails."""
    model = geo.model
    if model.tag(g) != "hyperbolic":
        raise NotHyperbolic(f"word is {model.tag(g)} in model {model.model_id!r}")
    u_plus, u_minus = neighborhoods(model, model.classify(g), threshold)
    if not neighborhoods_disjoint(model, u_plus, u_minus, sample):
        raise ValueError("U+ and U- are not disjoint")
    outside = [p for p in sample if not contains_point(model, u_minus, p)]
    good, current = [], list(outside)
    for _ in range(n_max):
        current = [geo.apply(g, p) for p in current]
        good.append(all(contains_point(model, u_plus, p) for p in current))
    for n in range(1, n_max + 1):
        if all(good[n - 1 :]):
            return n
    raise NoPassingN(f"no N <= {n_max} works for {len(outside)} sample points")


def test_ns_dynamics_matches_direct_iteration():
    kinds = set()
    for seed in range(10):
        system = random_action_system(seed)
        for i, action in enumerate(system.actions):
            model = action.model
            kinds.add(model.kind)
            _, image = resolve_witness(system, i)
            sample = sample_points(model, 8, rng_from_seed(seed))
            for threshold in (1.0, 0.5):
                args = (lab(model), image, threshold, sample, 20)
                assert _outcome(ns_dynamics_check, *args) == _outcome(_ns_by_iteration, *args)
    assert kinds == {"half_plane", "bass_serre", "cayley_tree"}


def _products_by_iteration(model, iso, b, points, bases, steps):
    """For each base, each step's products <b|g^n p>_base by apply and
    gromov_boundary_point, up to the first error; and the last orbit."""
    tables, current, geo = [[] for _ in bases], list(points), lab(model)
    for _ in range(steps):
        current = [geo.apply(iso, p) for p in current]
        for rows, base in zip(tables, bases):
            rows.append([])
            for p in current:
                rows[-1].append(_outcome(geo.gromov_boundary_point, b, p, base))
                if isinstance(rows[-1][-1], tuple):
                    break
    return tables, current


def _sampled_witnesses() -> list:
    """(seed, action, witness image) for every action of random_action_system
    seeds 0-29."""
    out = []
    for seed in range(30):
        system = random_action_system(seed)
        out += [(seed, action, resolve_witness(system, i)[1]) for i, action in enumerate(system.actions)]
    return out


def _tree_witnesses() -> list:
    """(action, witness image) for every tree action of _sampled_witnesses."""
    return [(action, g) for _, action, g in _sampled_witnesses() if isinstance(action.model, TreeModel)]


def test_tree_busemann_shift_and_fixed_point_contract():
    for action, g in _tree_witnesses():
        model = action.model
        cls = model.classify(g)
        ends = (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus)
        length = cls.hyperbolic.length
        geo = lab(model)
        y = geo.ball_vertices(3)[-1]
        # g moves every point length closer to its attracting end, exactly
        for base in (lab(model).basepoint, y):
            gw = geo.apply(g, base)
            assert _beta(model, ends[0], gw, base) == length
            assert _beta(model, ends[1], gw, base) == -length


def test_tree_ns_dynamics_matches_direct_iteration_far_out(monkeypatch):
    # n_max 200 and thresholds up to 6: N reaches 9 and orbits reach
    # hundreds of letters.  The oracle reads each product once for all
    # three thresholds, through a cache of gromov_boundary_point.
    read, products = TreeGeometry.gromov_boundary_point, {}

    def cached(geo, b, y, base):  # the oracle builds a lab per product, so the cache is keyed by the model's id
        key = geo.model.model_id, b, y, base
        value = products.get(key)
        if value is None:
            value = products[key] = read(geo, b, y, base)
        return value

    monkeypatch.setattr(TreeGeometry, "gromov_boundary_point", cached)
    found = []
    for seed, (action, g) in enumerate(_tree_witnesses()):
        model = action.model
        sample = sample_points(model, 5, rng_from_seed(seed))
        for threshold in (1, 3, 6):
            args = (lab(model), g, threshold, sample, 200)
            found.append(_outcome(ns_dynamics_check, *args))
            assert found[-1] == _outcome(_ns_by_iteration, *args)
    assert max(found) >= 8


# -- the Busemann floor ----------------------------------------------------------


def _beta(model, b, y, w) -> float:
    """The Busemann cocycle beta(w, y) = 2<b|y>_w - d(w, y) of the boundary
    point b, from the lab's floats."""
    geo = lab(model)
    return 2 * geo.gromov_boundary_point(b, y, w) - geo.distance(w, y)


def test_plane_busemann_shift_and_cocycle(plane):
    # the plane's counterpart of test_tree_busemann_shift_and_fixed_point_contract,
    # to float tolerance: g moves every point tau closer to its attracting
    # end and tau further from its repelling one, so beta(w, g y) =
    # beta(w, y) + beta(w, g w); infinity attracts under diag(2, 1/2)
    diagonal = Action("p", plane, {"f": plane.matrix(2, 0, 0, Fraction(1, 2))})
    cases = [(0, diagonal, diagonal.image(GroupWord.parse("f")))]
    cases += [case for case in _sampled_witnesses() if isinstance(case[1].model, HalfPlaneModel)]
    ends = set()
    for seed, action, g in cases:
        cls, geo = plane.classify(g), lab(plane)
        tau = cls.hyperbolic.translation_length
        points = sample_points(plane, 4, rng_from_seed(seed))
        for base in (geo.basepoint, points[0]):
            for end, shift in zip(cls.hyperbolic.fixed_points, (tau, -tau)):
                ends.add(end.payload is None)
                assert _beta(plane, end, geo.apply(g, base), base) == pytest.approx(shift, rel=1e-9, abs=1e-9)
                for y in points[1:]:
                    moved = _beta(plane, end, geo.apply(g, y), base)
                    assert moved == pytest.approx(_beta(plane, end, y, base) + shift, rel=1e-9, abs=1e-9)
    assert ends == {True, False}


def test_orbit_products_stay_above_the_busemann_floor():
    # <b|g^n p>_w = (d + beta)/2 >= beta(w, p) + n tau, tau = beta(w, g w), as
    # d >= |beta|: in both labs' floats to 1e-9, until the product passes 30.
    # Past that a plane orbit has come within float resolution of b, and its
    # float product is about 36 + ln(|b - w| / |b|), below the reals
    below = Counter()
    for seed, action, g in _sampled_witnesses():
        model, geo = action.model, lab(action.model)
        b = model.classify(g).hyperbolic.fixed_plus
        points = sample_points(model, 8, rng_from_seed(seed))
        bases = (geo.basepoint, points[1])
        tables, _ = _products_by_iteration(model, g, b, points, bases, 24)
        for base, rows in zip(bases, tables):
            tau = _beta(model, b, geo.apply(g, base), base)
            betas = [_beta(model, b, p, base) for p in points]
            for n, products in enumerate(rows, 1):
                assert len(products) == len(points)
                for beta, value in zip(betas, products):
                    assert value >= min(beta + n * tau - 1e-9, 30), (seed, model.kind, n)
                    below[model.kind] += value < beta + n * tau - 1e-9
    assert below["half_plane"] and not below["bass_serre"] and not below["cayley_tree"]


def _ns_by_walk(model, u_plus, u_minus, sample, table, n_max):
    """ns_dynamics_check's outcome from every step of a table of the lab's
    products of the sample, each a float or an outcome of _outcome: the
    check without the floor."""
    if not neighborhoods_disjoint(model, u_plus, u_minus, sample):
        return ValueError, "U+ and U- are not disjoint"
    outside = [j for j, p in enumerate(sample) if not contains_point(model, u_minus, p)]
    failing = 0
    for n, row in enumerate(table[:n_max], 1):
        for j in outside:
            if isinstance(row[j], tuple):
                return row[j]
            if not row[j] > u_plus.threshold:
                failing = n
                break
    if failing < n_max:
        return failing + 1
    return NoPassingN, f"no N <= {n_max} works for {len(outside)} sample points"


def _past_float_range(p) -> bool:
    """Whether a plane point's y underflows to 0 or a coordinate overflows a float."""
    try:
        _, y = map(float, lab(HalfPlaneModel())._xy(p))
    except OverflowError:
        return True
    return y == 0.0


def test_ns_floor_matches_the_full_walk():
    # walking every step of the lab's products, as the check did before it
    # stopped at the Busemann floor, gives the same N (or error) at n_max 64,
    # thresholds 0.5-6; and at 200 for the plane actions of seeds 0-9, where
    # some orbits leave float range past the floor
    compared, past_floats = Counter(), 0
    for seed, action, g in _sampled_witnesses():
        model, geo = action.model, lab(action.model)
        ends = model.classify(g).hyperbolic.fixed_points
        sample = sample_points(model, 8, rng_from_seed(seed))
        depths = (64, 200) if seed < 10 and model.kind == "half_plane" else (64,)
        [table], last = _products_by_iteration(model, g, ends[0], sample, [geo.basepoint], depths[-1])
        past_floats += model.kind == "half_plane" and any(map(_past_float_range, last))
        for threshold, n_max in product((0.5, 1, 3, 6), depths):
            plus, minus = neighborhoods(model, model.classify(g), threshold)
            found = _outcome(ns_dynamics_check, geo, g, threshold, sample, n_max)
            assert found == _ns_by_walk(model, plus, minus, sample, table, n_max)
            compared[model.kind, type(found)] += 1
    assert {kind for kind, _ in compared} == {"half_plane", "bass_serre", "cayley_tree"}
    assert compared["half_plane", int] and compared["half_plane", tuple] and past_floats


def test_ns_floor_with_a_zero_float_shift(plane):
    # g = [[1, e], [e, 1 + e^2]], e = 10^-20, is hyperbolic with translation
    # length about 2e, so its float tau = beta(w, g w) reads 0.0: there is
    # no floor, every step is walked, and the outcome is direct iteration's
    geo, e = lab(plane), Fraction(1, 10**20)
    g = plane.matrix(1, e, e, 1 + e * e)
    attracting = plane.classify(g).hyperbolic.fixed_plus
    assert plane.tag(g) == "hyperbolic" and _beta(plane, attracting, geo.apply(g, geo.basepoint), geo.basepoint) == 0.0
    for seed in range(3):
        args = (geo, g, 1.0, sample_plane_points(geo, 12, rng_from_seed(seed)), 8)
        assert _outcome(ns_dynamics_check, *args) == _outcome(_ns_by_iteration, *args)
        assert _outcome(ns_dynamics_check, *args)[0] is NoPassingN


def test_plane_products_past_float_range_match_the_floats(plane, monkeypatch):
    # the exact logs that read a product past float range, forced on points
    # within it, give the float products to 1e-9: the sampled plane
    # witnesses' fixed points and infinity, at the basepoint and off it
    geo, cases = lab(plane), []
    for seed, action, g in _sampled_witnesses():
        if action.model.kind == "half_plane":
            points = sample_points(plane, 8, rng_from_seed(seed))
            for b in (*plane.classify(g).hyperbolic.fixed_points, plane.own(None)):
                cases += [(b, y, w) for w in (geo.basepoint, points[0]) for y in points[1:]]
    floats = [geo.gromov_boundary_point(*case) for case in cases]

    def past_float_range(self, p):
        raise OverflowError

    monkeypatch.setattr(PlaneGeometry, "_floats", past_float_range)
    assert [geo.gromov_boundary_point(*case) for case in cases] == pytest.approx(floats, rel=1e-9, abs=1e-9)
    assert len(cases) > 1000


def test_ns_reads_no_step_past_the_floor(monkeypatch, capsys):
    # at orbit-depth 1,000, on configs/ and on the systems of seeds 0-29 with
    # the samples hypiso dynamics draws, each check applies g to its points
    # outside U- on no step past the floor, which is a few steps, and reads
    # each sample point's product with each center once
    floors, applied, reads, samples = [], [], [], []
    floor, check = dynamics._busemann_floor, dynamics.ns_dynamics_check

    def recorded_floor(geo, g, b, threshold, outside, n_max):
        applied.append(0)
        floors.append((floor(geo, g, b, threshold, outside, n_max), len(outside)))
        applied[-1] = 0  # the floor's own g w is no orbit step
        return floors[-1][0]

    def recorded_check(geo, g, threshold, sample, n_max):
        samples.append({id(p) for p in sample})
        reads.append(Counter())
        return check(geo, g, threshold, sample, n_max)

    def counted(geometry):
        apply, read = geometry.apply, geometry.gromov_boundary_point

        def counted_apply(self, iso, p):
            applied[-1] += 1
            return apply(self, iso, p)

        def counted_read(self, b, y, base):
            if id(y) in samples[-1]:
                reads[-1][id(y), id(b)] += 1
            return read(self, b, y, base)

        monkeypatch.setattr(geometry, "apply", counted_apply)
        monkeypatch.setattr(geometry, "gromov_boundary_point", counted_read)

    monkeypatch.setattr(dynamics, "_busemann_floor", recorded_floor)
    monkeypatch.setattr(dynamics, "ns_dynamics_check", recorded_check)
    for geometry in (PlaneGeometry, TreeGeometry):
        counted(geometry)
    for config in sorted(CONFIGS.glob("*.cfg")):
        argv = ["dynamics", "--input", str(config), "--orbit-depth", "1000", "--checks", "ns"]
        assert cli.main(argv) == 0 and "failed" not in capsys.readouterr().out
    for seed, action, g in _sampled_witnesses():
        geo = lab(action.model)
        dynamics.ns_dynamics_check(geo, g, 1.0, cli._sample(action, geo, seed, 24, 3), 1000)
    assert len(applied) == len(floors) == len(reads) > 90
    assert all(steps <= last * size for steps, (last, size) in zip(applied, floors))
    assert max(last for last, _ in floors) <= 4
    assert all(len(counts) == 2 * len(ids) and set(counts.values()) == {1} for counts, ids in zip(reads, samples))


def test_separation_identity(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    cls = plane.classify(D)
    u_plus, u_minus = neighborhoods(plane, cls)
    sample = sample_plane_points(lab(plane), 20, rng_from_seed(2))
    assert not separation_witnesses(act, GroupWord(()), u_plus, u_minus, sample)


def test_separation_rotation_violates(plane):
    # the order-2 rotation at i swaps 0 and infinity, carrying U+ into U-
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    R = plane.matrix(0, -1, 1, 0)
    act = Action("p", plane, {"f": D, "r": R})
    cls = plane.classify(D)
    u_plus, u_minus = neighborhoods(plane, cls)
    sample = [lab(plane).point_xy(0, Fraction(k)) for k in (8, 16, 64)] + [
        lab(plane).point_xy(Fraction(1, 10), 32)
    ]
    witnesses = separation_witnesses(act, GroupWord.parse("r"), u_plus, u_minus, sample)
    assert witnesses
    assert contains_point(plane, u_plus, witnesses[0])


def test_separation_high_power_independent(plane):
    # Prop 4.2 setting: independent f, g; high powers of g separate U+ from U-
    F = plane.matrix(2, 1, 1, 1)
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": F, "g": D})
    u_plus, u_minus = neighborhoods(plane, plane.classify(F))
    sample = sample_plane_points(lab(plane), 25, rng_from_seed(3))
    n = ns_dynamics_check(lab(plane), act.image(GroupWord.parse("g")), 1.0, sample, 64)
    for k in range(n, n + 4):
        assert not separation_witnesses(act, GroupWord.parse(f"g^{k}"), u_plus, u_minus, sample)


def test_neighborhoods_disjoint(plane):
    # ns_dynamics_check refuses U+ and U- that are not disjoint, by their
    # ends' product (<infinity|0>_i = 0) or by a sample point in both
    # (1 + i, whose products are 0.48 and 0.13), as the reference does
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    cls = plane.classify(D)
    far, both = lab(plane).point_xy(5, 40), lab(plane).point_xy(1, 1)
    assert neighborhoods_disjoint(plane, *neighborhoods(plane, cls), [far, both])
    assert ns_dynamics_check(lab(plane), D, 1.0, [far, both], 64) >= 1
    assert not neighborhoods_disjoint(plane, *neighborhoods(plane, cls, -0.5))
    assert neighborhoods_disjoint(plane, *neighborhoods(plane, cls, 0.1), [far])
    assert not neighborhoods_disjoint(plane, *neighborhoods(plane, cls, 0.1), [far, both])
    for threshold, sample in ((-0.5, [far]), (0.1, [far, both])):
        with pytest.raises(ValueError, match="not disjoint"):
            ns_dynamics_check(lab(plane), D, threshold, sample, 64)
    assert ns_dynamics_check(lab(plane), D, 0.1, [far], 64) >= 1


def test_internal_points_tree_median(bs23):
    ball = lab(bs23).ball_vertices(3)
    points, insize = internal_points(lab(bs23), ball[0], ball[4], ball[9])
    assert insize == 0
    assert points[0] == points[1] == points[2]


def test_internal_points_plane_example(plane):
    x = lab(plane).point_xy(0, 1)
    y = lab(plane).point_xy(0, 8)
    z = lab(plane).point_xy(6, 1)
    points, insize = internal_points(lab(plane), x, y, z)
    assert insize <= 1.0
    # defining equalities hold to the stated resolution
    gx = gromov_product(plane, y, z, x)
    assert abs(lab(plane).distance(x, points[1]) - gx) <= 2**-20
    assert abs(lab(plane).distance(x, points[2]) - gx) <= 2**-20


def test_internal_points_degenerate(plane):
    x = lab(plane).point_xy(0, 1)
    y = lab(plane).point_xy(0, 8)
    with pytest.raises(DegenerateTriangle):
        internal_points(lab(plane), x, x, y)


def _slim_delta(plane, triangles, samples_per_side: int) -> float:
    """Max over sampled points of each side of the distance to the other two
    sides, each side sampled at equal steps, ends included."""

    def side(p, q):
        total = lab(plane).distance(p, q)
        steps = range(1, samples_per_side - 1)
        return [p] + [lab(plane)._point_at(p, q, total * k / (samples_per_side - 1)) for k in steps] + [q]

    worst = 0.0
    for x, y, z in triangles:
        sides = (side(y, z), side(z, x), side(x, y))
        for i in range(3):
            others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
            for pt in sides[i]:
                worst = max(worst, min(lab(plane).distance(pt, q) for q in others))
    return worst


def test_insize_within_slim_estimate(plane):
    # The slim estimate is taken on ideal-triangle approximants (whose
    # slimness witnesses the space constant ln(1+sqrt 2)); the sampled
    # triangles are diameter-bounded, keeping their insizes below it.
    # (Unrestricted families would violate this: the ideal triangle has
    # insize arccosh(3/2) > ln(1+sqrt 2).)
    rng = rng_from_seed(7)
    pts = sample_plane_points(lab(plane), 80, rng)
    triangles = []
    i = 0
    while len(triangles) < 40 and i < 77:
        t = (pts[i], pts[i + 1], pts[i + 2])
        i += 1
        sides = [lab(plane).distance(t[a], t[b]) for a, b in ((0, 1), (1, 2), (0, 2))]
        if min(sides) > 1e-9 and max(sides) <= 2.5:
            triangles.append(t)
    insize_est = estimate_delta_insize(lab(plane), triangles)
    witnesses = [
        (lab(plane).point_xy(0, Fraction(1, 50)), lab(plane).point_xy(1, Fraction(1, 50)), lab(plane).point_xy(0, 50)),
        (lab(plane).point_xy(0, Fraction(1, 200)), lab(plane).point_xy(1, Fraction(1, 200)), lab(plane).point_xy(0, 200)),
    ]
    assert insize_est <= _slim_delta(plane, witnesses, 100) + 2**-10


def test_orbit_projection_basepoint(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    assert orbit_projection(lab(plane), act.image(GroupWord.parse("f")), [lab(plane).basepoint], 8) == [0.0]


def test_orbit_projection_tree_axis(bs23):
    w = bs23.word([(0, 1), (1, 1)])
    act = Action("b", bs23, {"w": w})
    z = lab(bs23).apply(power(bs23, w, 3), lab(bs23).basepoint)
    assert orbit_projection(lab(bs23), act.image(GroupWord.parse("w")), [z], 6) == [0.0]


def test_orbit_projection_takes_the_least_exponent_among_ties():
    # on trees the nearest orbit points often tie, at different |n| too: x_z
    # is f^n x of the least |n| (n > 0 first), and the defect is read there.
    # The reference builds each orbit point by power and measures by BFS
    cayley, bs = CayleyTreeModel(2), BassSerreModel(2, 3)
    words = [cayley.word(w) for w in ([1, 2], [1, -2], [1, 1, 2], [1, 2, -1], [2, 1, 1, -2])]
    words += [bs.word(w) for w in ([(0, 1), (1, 1)], [(0, 1), (1, 2)], [(1, 1), (0, 1), (1, 1)])]
    ties = Counter()
    for g in words:
        model, geo = (cayley, lab(cayley)) if g.model_id == cayley.model_id else (bs, lab(bs))
        x, zs = geo.basepoint, geo.ball_vertices(2)
        orbit = {n: geo.apply(power(model, g, n), x) for n in range(-3, 4)}
        expected = []
        for z in zs:
            d = {n: bfs_distance(model, p, z) for n, p in orbit.items()}
            nearest = [n for n in orbit if d[n] == min(d.values())]
            n = min(nearest, key=lambda n: (abs(n), -n))
            ties[len({abs(m) for m in nearest}) > 1] += 1
            expected.append(max(0.0, float(bfs_distance(model, x, orbit[n]) + d[n] - bfs_distance(model, x, z))))
        assert orbit_projection(geo, g, zs, 3) == expected
    assert ties[True] > 20 and ties[False] > 20


def test_orbit_projection_plane_bounded(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    z = lab(plane).point_xy(3, 1)
    [defect] = orbit_projection(lab(plane), act.image(GroupWord.parse("f")), [z], 8)
    assert 0.0 <= defect <= 4.0


def test_orbit_projection_requires_hyperbolic(plane):
    act = Action("p", plane, {"r": plane.matrix(0, -1, 1, 0)})
    with pytest.raises(NotHyperbolic):
        orbit_projection(lab(plane), act.image(GroupWord.parse("r")), [lab(plane).basepoint], 4)


def test_claim1_defect_bound(plane, bs23):
    # defect bounded by 4*(delta^ + axis-offset); axis-offset is read as
    # <A+|A->_base + tau/2 (the orbit's Morse radius must absorb the
    # spacing tau between consecutive orbit points)
    rng = rng_from_seed(3)
    sample = sample_plane_points(lab(plane), 40, rng)
    delta_hat = estimate_delta_four_point(lab(plane), sample, lab(plane).basepoint)
    checked = 0
    for _ in range(12):
        iso = random_plane_hyperbolic(plane, rng)
        act = Action("p", plane, {"x": iso})
        cls = plane.classify(iso)
        tau = cls.hyperbolic.translation_length
        offset = lab(plane).gromov_boundary_pair(
            cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus, lab(plane).basepoint
        )
        zs = sample_plane_points(lab(plane), 10, rng)
        for defect in orbit_projection(lab(plane), act.image(GroupWord.parse("x")), zs, 10):
            assert defect <= 4 * (delta_hat + offset + tau / 2)
            checked += 1
    assert checked >= 100

    w = bs23.word([(0, 1), (1, 2)])
    act = Action("b", bs23, {"x": w})
    cls = bs23.classify(w)
    tau = cls.hyperbolic.translation_length
    rngb = rng_from_seed(5)
    zs = sample_tree_points(bs23, 100, rngb)
    for defect in orbit_projection(lab(bs23), act.image(GroupWord.parse("x")), zs, 10):
        assert defect <= 4 * (0 + 0 + tau / 2)


def test_prop41_final_clause_family(plane):
    # In these exact models only the identity both has a fixed point and
    # fixes A-; the separation conclusion is exercised on the identity and
    # on finite-order elliptics rotating far from f's axis.
    F = plane.matrix(2, 1, 1, 1)
    cls = plane.classify(F)
    u_plus, u_minus = neighborhoods(plane, cls)
    sample = sample_plane_points(lab(plane), 25, rng_from_seed(9))
    act = Action("p", plane, {"f": F, "e": plane.matrix(0, -1, 1, 0)})
    for k in range(0, 6):
        assert not separation_witnesses(act, GroupWord(()) ** k, u_plus, u_minus, sample)
    # far-away rotation: conjugate the order-2 rotation by a large shear
    h = plane.matrix(1, 30, 0, 1)
    far = plane.compose(plane.compose(h, plane.matrix(0, -1, 1, 0)), plane.invert(h))
    act_far = Action("p", plane, {"f": F, "e": plane.own(far.payload)})
    for k in range(1, 7):
        assert not separation_witnesses(act_far, GroupWord.parse(f"e^{k}"), u_plus, u_minus, sample)

