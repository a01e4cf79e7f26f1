from fractions import Fraction

import pytest

from hypiso.actions import Action
from hypiso.dynamics import (
    NeighborhoodSpec,
    boundary_approach_profile,
    contains_point,
    estimate_delta_insize,
    estimate_delta_slim,
    internal_points,
    local_quasigeodesic_check,
    neighborhoods_disjoint,
    ns_dynamics_check,
    orbit_projection,
    separation_check,
)
from hypiso.errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from hypiso.geometry import estimate_delta_four_point, gromov_product
from hypiso.halfplane import HalfPlaneModel
from hypiso.models import fixed_points
from hypiso.combiner import resolve_witness
from hypiso.sampling import (
    random_action_system,
    random_plane_hyperbolic,
    rng_from_seed,
    sample_plane_points,
    sample_points,
    sample_tree_points,
)
from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord


@pytest.fixture
def plane():
    return HalfPlaneModel()


@pytest.fixture
def bs23():
    return BassSerreModel(2, 3)


def k1_neighborhoods(model, cls):
    plus = NeighborhoodSpec(cls.hyperbolic.fixed_plus, 1.0, model.basepoint)
    minus = NeighborhoodSpec(cls.hyperbolic.fixed_minus, 1.0, model.basepoint)
    return plus, minus


def test_ns_dynamics_diagonal(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    sample = sample_plane_points(plane, 30, rng_from_seed(1))
    n = ns_dynamics_check(act, GroupWord.parse("f"), u_plus, u_minus, sample, 64)
    assert 1 <= n <= 64
    # direct iteration oracle: all points outside U- land in U+ from step n on
    g = act.image(GroupWord.parse("f"))
    outside = [p for p in sample if not contains_point(plane, u_minus, p)]
    for p in outside:
        cur = p
        for _ in range(n):
            cur = plane.apply(g, cur)
        for _ in range(n, 8):
            assert contains_point(plane, u_plus, cur)
            cur = plane.apply(g, cur)


def test_ns_dynamics_tree(bs23):
    w = bs23.word([(0, 1), (1, 1)])
    act = Action("b", bs23, {"w": w})
    cls = bs23.classify(w)
    u_plus, u_minus = k1_neighborhoods(bs23, cls)
    sample = bs23.ball_vertices(3)
    n = ns_dynamics_check(act, GroupWord.parse("w"), u_plus, u_minus, sample, 64)
    assert 1 <= n <= 64


def test_ns_dynamics_empty_range(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    with pytest.raises(NoPassingN):
        ns_dynamics_check(act, GroupWord.parse("f"), u_plus, u_minus, [plane.basepoint], 0)


def test_ns_dynamics_requires_hyperbolic(plane):
    R = plane.matrix(0, -1, 1, 0)
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"r": R})
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    with pytest.raises(NotHyperbolic):
        ns_dynamics_check(act, GroupWord.parse("r"), u_plus, u_minus, [], 8)


# -- the orbit products against direct iteration ---------------------------------


def _outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the comparison is of the exception
        return type(exc), str(exc)


def _ns_by_iteration(action, word, u_plus, u_minus, sample, n_max):
    """ns_dynamics_check by direct iteration: apply g to every point, then
    contains_point on each until one fails."""
    model = action.model
    g = action.image(word)
    if model.tag(g) != "hyperbolic":
        raise NotHyperbolic(f"word is {model.tag(g)} in action {action.name!r}")
    if not neighborhoods_disjoint(model, u_plus, u_minus, sample):
        raise ValueError("U+ and U- are not disjoint")
    outside = [p for p in sample if not contains_point(model, u_minus, p)]
    good, current = [], list(outside)
    for _ in range(n_max):
        current = [model.apply(g, p) for p in current]
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
            witness, cls = resolve_witness(system, i)
            sample = sample_points(model, 8, rng_from_seed(seed))
            for base, threshold in ((model.basepoint, 1.0), (sample[1], 0.5)):
                plus = NeighborhoodSpec(cls.hyperbolic.fixed_plus, threshold, base)
                minus = NeighborhoodSpec(cls.hyperbolic.fixed_minus, threshold, base)
                args = (action, witness, plus, minus, sample, 20)
                assert _outcome(ns_dynamics_check, *args) == _outcome(_ns_by_iteration, *args)
    assert kinds == {"half_plane", "bass_serre", "cayley_tree"}


def _products_by_iteration(model, iso, b, points, base, steps):
    """Each step's products <b|g^n p>_base by apply and gromov_boundary_point,
    up to the first error; and the last orbit."""
    rows, current = [], list(points)
    for _ in range(steps):
        current = [model.apply(iso, p) for p in current]
        rows.append([])
        for p in current:
            rows[-1].append(_outcome(model.gromov_boundary_point, b, p, base))
            if isinstance(rows[-1][-1], tuple):
                break
    return rows, current


def _orbit_products(model, iso, b, points, base, steps):
    rows = []
    for products in model.orbit_boundary_products(iso, b, points, base, steps):
        rows.append([])
        for _ in points:
            rows[-1].append(_outcome(next, products))
            if isinstance(rows[-1][-1], tuple):
                break
    return rows


@pytest.mark.parametrize(
    "entries, steps",
    [
        # converges to (1 + sqrt 5)/2: past step ~360 cosh d(y, i) overflows a
        # float and y underflows to 0
        ((2, 1, 1, 1), 400),
        # y grows fourfold a step towards infinity, and overflows a float
        ((2, 0, 0, Fraction(1, 2)), 520),
        # entries with denominators: the primitive matrix has s = 6
        ((Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(5, 6)), 60),
    ],
)
def test_plane_orbit_products_match_direct_iteration(plane, entries, steps):
    g = plane.matrix(*entries)
    cls = plane.classify(g)
    points = [plane.basepoint, plane.point_xy(Fraction(-7, 3), Fraction(1, 9)), plane.point_xy(2, 5)]
    for center in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
        for base in (plane.basepoint, plane.point_xy(Fraction(1, 2), Fraction(3, 4))):
            direct, last = _products_by_iteration(plane, g, center, points, base, steps)
            assert _orbit_products(plane, g, center, points, base, steps) == direct
    if steps > 300:  # the orbit has left the floats
        with pytest.raises(OverflowError):
            float(plane.cosh_distance(last[0], plane.basepoint))


def test_tree_orbit_products_match_direct_iteration(bs23):
    cayley = CayleyTreeModel(3)
    words = ((bs23, bs23.word([(0, 1), (1, 2), (0, 1), (1, 1)])), (cayley, cayley.word([1, 2, -1, 3])))
    for model, g in words:
        cls = model.classify(g)
        points = model.ball_vertices(2)
        for center in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
            for base in (model.basepoint, points[-1]):
                direct, _ = _products_by_iteration(model, g, center, points, base, 12)
                assert _orbit_products(model, g, center, points, base, 12) == direct


def test_separation_identity(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    sample = sample_plane_points(plane, 20, rng_from_seed(2))
    assert separation_check(act, GroupWord.identity(), u_plus, u_minus, sample).ok


def test_separation_rotation_violates(plane):
    # the order-2 rotation at i swaps 0 and infinity, carrying U+ into U-
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    R = plane.matrix(0, -1, 1, 0)
    act = Action("p", plane, {"f": D, "r": R})
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    sample = [plane.point_xy(0, Fraction(k)) for k in (8, 16, 64)] + [
        plane.point_xy(Fraction(1, 10), 32)
    ]
    res = separation_check(act, GroupWord.parse("r"), u_plus, u_minus, sample)
    assert not res.ok
    assert res.witness is not None
    assert contains_point(plane, u_plus, res.witness)


def test_separation_high_power_independent(plane):
    # Prop 4.2 setting: independent f, g; high powers of g separate U+ from U-
    F = plane.matrix(2, 1, 1, 1)
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": F, "g": D})
    cls_f = plane.classify(F)
    cls_g = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls_f)
    v_plus, v_minus = k1_neighborhoods(plane, cls_g)
    sample = sample_plane_points(plane, 25, rng_from_seed(3))
    n = ns_dynamics_check(act, GroupWord.parse("g"), v_plus, v_minus, sample, 64)
    for k in range(n, n + 4):
        assert separation_check(act, GroupWord.parse(f"g^{k}"), u_plus, u_minus, sample).ok


def test_neighborhoods_disjoint(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    cls = plane.classify(D)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    assert neighborhoods_disjoint(plane, u_plus, u_minus)
    tight_plus = NeighborhoodSpec(cls.hyperbolic.fixed_plus, 0.0, plane.basepoint)
    tight_minus = NeighborhoodSpec(cls.hyperbolic.fixed_minus, -0.5, plane.basepoint)
    assert not neighborhoods_disjoint(plane, tight_plus, tight_minus, [plane.point_xy(5, 40)])


def test_internal_points_tree_median(bs23):
    ball = bs23.ball_vertices(3)
    tri = internal_points(bs23, ball[0], ball[4], ball[9])
    assert tri.insize.exact_value == 0
    assert tri.internal[0] == tri.internal[1] == tri.internal[2]


def test_internal_points_plane_example(plane):
    x = plane.point_xy(0, 1)
    y = plane.point_xy(0, 8)
    z = plane.point_xy(6, 1)
    tri = internal_points(plane, x, y, z)
    assert tri.insize.value <= 1.0
    # defining equalities hold to the stated resolution
    gx = gromov_product(plane, y, z, x).value
    assert abs(plane.distance(x, tri.internal[1]).value - gx) <= 2**-20
    assert abs(plane.distance(x, tri.internal[2]).value - gx) <= 2**-20


def test_internal_points_degenerate(plane):
    x = plane.point_xy(0, 1)
    y = plane.point_xy(0, 8)
    with pytest.raises(DegenerateTriangle):
        internal_points(plane, x, x, y)


def test_insize_within_slim_estimate(plane):
    # The slim estimate is taken on ideal-triangle approximants (whose
    # slimness witnesses the space constant ln(1+sqrt 2)); the sampled
    # triangles are diameter-bounded, keeping their insizes below it.
    # (Unrestricted families would violate this: the ideal triangle has
    # insize arccosh(3/2) > ln(1+sqrt 2).)
    rng = rng_from_seed(7)
    pts = sample_plane_points(plane, 80, rng)
    triangles = []
    i = 0
    while len(triangles) < 40 and i < 77:
        t = (pts[i], pts[i + 1], pts[i + 2])
        i += 1
        sides = [plane.distance(t[a], t[b]).value for a, b in ((0, 1), (1, 2), (0, 2))]
        if min(sides) > 1e-9 and max(sides) <= 2.5:
            triangles.append(t)
    insize_est = estimate_delta_insize(plane, triangles)
    witnesses = [
        (plane.point_xy(0, Fraction(1, 50)), plane.point_xy(1, Fraction(1, 50)), plane.point_xy(0, 50)),
        (plane.point_xy(0, Fraction(1, 200)), plane.point_xy(1, Fraction(1, 200)), plane.point_xy(0, 200)),
    ]
    slim_est = estimate_delta_slim(plane, witnesses, 100)
    assert insize_est.delta <= slim_est.delta + 2**-10


def test_quasigeodesic_worked_word(plane):
    R = plane.matrix(0, -1, 1, 0)
    F = plane.matrix(2, 1, 1, 1)
    act = Action("p1", plane, {"f": F, "g": R})
    rep = local_quasigeodesic_check(
        act, GroupWord.parse("f^2"), GroupWord.parse("g^2"), 1, plane.basepoint, 4
    )
    assert rep.verdict
    assert rep.lam == 1.0
    assert rep.eps < 2.0
    assert rep.scale.value > 0


def test_quasigeodesic_identity_fails(plane):
    act = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1)})
    rep = local_quasigeodesic_check(
        act, GroupWord.identity(), GroupWord.identity(), 1, plane.basepoint, 3
    )
    assert not rep.verdict


def test_quasigeodesic_large_translation_close_to_geodesic(plane):
    F = plane.matrix(2, 1, 1, 1)
    act = Action("p", plane, {"f": F, "g": F})
    rep = local_quasigeodesic_check(
        act, GroupWord.parse("f^3"), GroupWord.parse("f"), 1, plane.basepoint, 4
    )
    # f^4: single hyperbolic with large tau: nearly additive parameters
    assert rep.verdict and rep.eps <= 0.5


def test_orbit_projection_basepoint(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    proj = orbit_projection(act, GroupWord.parse("f"), plane.basepoint, plane.basepoint, 8)
    assert proj.defect == 0.0
    assert proj.exponents[0] == 0
    assert proj.nearest[0].coords == plane.basepoint.coords


def test_orbit_projection_tree_axis(bs23):
    w = bs23.word([(0, 1), (1, 1)])
    act = Action("b", bs23, {"w": w})
    z = bs23.apply(bs23.power(w, 3), bs23.basepoint)
    proj = orbit_projection(act, GroupWord.parse("w"), bs23.basepoint, z, 6)
    assert proj.defect == 0.0
    assert proj.exponents == (3,)


def test_orbit_projection_plane_bounded(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": D})
    proj = orbit_projection(act, GroupWord.parse("f"), plane.basepoint, plane.point_xy(3, 1), 8)
    assert 0.0 <= proj.defect <= 4.0


def test_orbit_projection_requires_hyperbolic(plane):
    act = Action("p", plane, {"r": plane.matrix(0, -1, 1, 0)})
    with pytest.raises(NotHyperbolic):
        orbit_projection(act, GroupWord.parse("r"), plane.basepoint, plane.basepoint, 4)


def test_claim1_defect_bound(plane, bs23):
    # defect bounded by 4*(delta^ + axis-offset); axis-offset is read as
    # <A+|A->_base + tau/2 (the orbit's Morse radius must absorb the
    # spacing tau between consecutive orbit points)
    rng = rng_from_seed(3)
    sample = sample_plane_points(plane, 40, rng)
    delta_hat = estimate_delta_four_point(plane, sample, plane.basepoint).delta
    checked = 0
    for _ in range(12):
        iso = random_plane_hyperbolic(plane, rng)
        act = Action("p", plane, {"x": iso})
        cls = plane.classify(iso)
        tau = cls.hyperbolic.translation_length.value
        offset = plane.gromov_boundary_pair(
            cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus, plane.basepoint
        )
        for z in sample_plane_points(plane, 10, rng):
            d = orbit_projection(act, GroupWord.parse("x"), plane.basepoint, z, 10).defect
            assert d <= 4 * (delta_hat + offset + tau / 2)
            checked += 1
    assert checked >= 100

    w = bs23.word([(0, 1), (1, 2)])
    act = Action("b", bs23, {"x": w})
    cls = bs23.classify(w)
    tau = cls.hyperbolic.translation_length.value
    rngb = rng_from_seed(5)
    for z in sample_tree_points(bs23, 100, rngb):
        d = orbit_projection(act, GroupWord.parse("x"), bs23.basepoint, z, 10).defect
        assert d <= 4 * (0 + 0 + tau / 2)


def test_prop41_final_clause_family(plane):
    # In these exact models only the identity both has a fixed point and
    # fixes A-; the separation conclusion is exercised on the identity and
    # on finite-order elliptics rotating far from f's axis.
    F = plane.matrix(2, 1, 1, 1)
    cls = plane.classify(F)
    u_plus, u_minus = k1_neighborhoods(plane, cls)
    sample = sample_plane_points(plane, 25, rng_from_seed(9))
    act = Action("p", plane, {"f": F, "e": plane.matrix(0, -1, 1, 0)})
    for k in range(0, 6):
        assert separation_check(act, GroupWord.identity() ** k, u_plus, u_minus, sample).ok
    # far-away rotation: conjugate the order-2 rotation by a large shear
    h = plane.matrix(1, 30, 0, 1)
    far = plane.compose(plane.compose(h, plane.matrix(0, -1, 1, 0)), plane.invert(h))
    act_far = Action("p", plane, {"f": F, "e": plane.isometry(far.payload)})
    for k in range(1, 7):
        assert separation_check(act_far, GroupWord.parse(f"e^{k}"), u_plus, u_minus, sample).ok


def test_boundary_approach_profile(plane):
    # measurement only: translating f's attracting point by powers of an
    # independent hyperbolic g drives it toward g's attracting point
    F = plane.matrix(2, 1, 1, 1)
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    act = Action("p", plane, {"f": F, "g": D})
    a_plus, _ = fixed_points(plane, F)
    g_plus, _ = fixed_points(plane, D)
    values = boundary_approach_profile(
        act, GroupWord.parse("g"), a_plus, g_plus, plane.basepoint, [1, 2, 4, 8]
    )
    assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))
    assert values[-1] > values[0]
