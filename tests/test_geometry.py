import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypiso.errors import InsufficientSample, MixedModels
from hypiso import geometry
from hypiso.dynamics import internal_points
from hypiso.geometry import estimate_delta_four_point, lab
from hypiso.halfplane import HalfPlaneModel, _acosh_ratio
from hypiso.sampling import rng_from_seed, sample_plane_points
from hypiso.trees import BassSerreModel, CayleyTreeModel

from reference import (
    four_point_defect,
    geodesic,
    gromov_product,
    plane_cosh,
    plane_internal_points_reference,
    sample_points,
    vertex,
)


@pytest.fixture
def plane():
    return HalfPlaneModel()


@pytest.fixture
def cayley():
    return CayleyTreeModel(2)


@pytest.fixture
def bs23():
    return BassSerreModel(2, 3)


def test_gromov_product_degenerate(plane):
    x = lab(plane).point_xy(1, 2)
    w = lab(plane).point_xy(-1, Fraction(1, 2))
    assert gromov_product(plane, x, w, w) == 0.0


def test_gromov_product_tree_oracle(cayley):
    # <ab|aab>_e = distance from e to the geodesic [ab, aab]
    x = vertex(cayley, [1, 2])
    y = vertex(cayley, [1, 1, 2])
    geo = lab(cayley)
    gp = geo._gromov(x.payload, y.payload, geo.basepoint.payload)
    assert gp == 1
    assert min(geo.distance_key(geo.basepoint, v) for v in geodesic(cayley, x, y)) == gp
    assert gromov_product(cayley, x, y, geo.basepoint) == gp


def test_gromov_product_collinear_plane(plane):
    x = lab(plane).point_xy(0, 1)
    y = lab(plane).point_xy(0, 4)
    w = lab(plane).point_xy(0, 2)
    # w lies on the geodesic [x, y], so <x|y>_w = 0
    assert abs(gromov_product(plane, x, y, w)) < 1e-12
    # with the base at x, the two collinear points on one side give
    # <y|w>_x = min(d(y,x), d(w,x)) = ln 2
    gp = gromov_product(plane, y, w, x)
    dxy = lab(plane).distance(x, y)
    dxw = lab(plane).distance(x, w)
    assert abs(gp - math.log(2)) < 1e-12
    assert abs(gp - min(dxy, dxw)) < 1e-12


def test_gromov_product_upper_bound(plane):
    rng = rng_from_seed(11)
    pts = sample_plane_points(lab(plane), 12, rng)
    for x, y, w in zip(pts, pts[4:], pts[8:]):
        gp = gromov_product(plane, x, y, w)
        assert gp <= min(lab(plane).distance(x, w), lab(plane).distance(y, w)) + 1e-9
        assert gp >= -1e-12


def test_plane_internal_points_match_the_reference_products(plane):
    # the lab reads each side of a triangle once; its internal points and
    # insize are bit for bit those placed at three reference Gromov
    # products, on sampled triangles, on collinear ones (where float sums
    # dip below 0 and the clamp is read) and on triangles a hair off a
    # geodesic, in every vertex order
    geo, rng = lab(plane), random.Random(35)
    pts = sample_plane_points(geo, 45, rng_from_seed(7))
    triangles = list(zip(pts[::3], pts[1::3], pts[2::3]))
    for _ in range(12):  # on vertical geodesics
        x, (a, b, c) = rng.randint(-5, 5), sorted(rng.sample(range(1, 200), 3))
        triangles.append(tuple(geo.point_xy(x, Fraction(h, 7)) for h in (a, b, c)))
    for eps in (0, Fraction(1, 10**17), Fraction(1, 10**12), Fraction(1, 10**6)):
        triangles += [
            (geo.point_xy(0, 1), geo.point_xy(eps, 2), geo.point_xy(0, 4)),
            (geo.point_xy(Fraction(-3, 5), Fraction(4, 5)), geo.point_xy(eps, 1 + eps),
             geo.point_xy(Fraction(3, 5), Fraction(4, 5))),  # on or off the unit circle
        ]
    clamped = 0
    for triangle in triangles:
        for x, y, z in itertools.permutations(triangle):
            assert internal_points(geo, x, y, z) == plane_internal_points_reference(plane, x, y, z)
            dxy, dyz, dxz = geo.distance(x, y), geo.distance(y, z), geo.distance(x, z)
            clamped += 0.5 * (dxy + dyz - dxz) < 0.0
    assert clamped > 0


def test_four_point_insufficient(plane):
    geo = lab(plane)
    with pytest.raises(InsufficientSample):
        estimate_delta_four_point(geo, sample_plane_points(geo, 2, rng_from_seed(0)), geo.basepoint)


def test_four_point_tree_exact_zero(bs23):
    geo = lab(bs23)
    delta = estimate_delta_four_point(geo, geo.ball_vertices(4), geo.basepoint)
    assert delta == 0.0 and type(delta) is float


def test_four_point_collinear_zero(plane):
    geo = lab(plane)
    pts = [geo.point_xy(0, Fraction(k)) for k in (1, 2, 4, 8, 16)]
    assert estimate_delta_four_point(geo, pts, geo.point_xy(0, 3)) <= 1e-9


def test_four_point_plane_bounded(plane):
    geo = lab(plane)
    pts = sample_plane_points(geo, 80, rng_from_seed(5))
    assert 0.0 <= estimate_delta_four_point(geo, pts, geo.basepoint) <= 1.0


def test_four_point_matches_cubic_formula(plane):
    # the blocked maximum equals the all-triples n x n x n formula, bit for bit
    geo = lab(plane)
    pts = sample_plane_points(geo, 40, rng_from_seed(3))
    base = geo.basepoint
    n = len(pts)
    d_base = np.array([lab(plane).distance(p, base) for p in pts])
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = lab(plane).distance(pts[i], pts[j])
    G2 = d_base[:, None] + d_base[None, :] - D
    maxmin = np.minimum(G2[:, :, None], G2[None, :, :]).max(axis=1)
    expected = max(0.0, float((maxmin - G2).max()) / 2.0)
    assert expected > 0.0
    assert estimate_delta_four_point(geo, pts, base) == expected


def _four_point_by_distance(model, sample, base) -> float:
    """The four-point delta from a matrix filled pair by pair by the lab's
    distance, or on trees its exact edge count."""
    n = len(sample)
    value = lab(model).distance if isinstance(model, HalfPlaneModel) else lab(model).distance_key

    d_base = np.array([value(p, base) for p in sample])
    D = np.zeros((n, n), dtype=d_base.dtype)
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = value(sample[i], sample[j])
    G2 = d_base[:, None] + d_base[None, :] - D
    defect2 = max((np.minimum(row[:, None], G2).max(axis=0) - row).max() for row in G2)
    return max(0.0, float(defect2) / 2.0)


def test_four_point_matches_pairwise_distance_fill(plane):
    bs = BassSerreModel(3, 4)
    cayley3 = CayleyTreeModel(3)
    cases = [
        (plane, sample_plane_points(lab(plane), 45, rng_from_seed(11)), lab(plane).point_xy(Fraction(-5, 7), 2)),
        (bs, lab(bs).ball_vertices(4), lab(bs).basepoint),
        (cayley3, lab(cayley3).ball_vertices(2), vertex(cayley3, [2, -3])),
    ]
    for model, sample, base in cases:
        for b in (lab(model).basepoint, base):
            assert estimate_delta_four_point(lab(model), sample, b) == _four_point_by_distance(model, sample, b)
        pts = sample[:20] + [base]
        rows = lab(model).pairwise_distances(pts).tolist()
        assert rows == [[lab(model).distance(p, q) for q in pts] for p in pts]
    assert _four_point_by_distance(plane, cases[0][1], cases[0][2]) > 0.0


def test_four_point_memory_is_quadratic():
    # 300 vertices: the n^3 int64 array alone would take 216 MB
    geo = lab(CayleyTreeModel(3))
    ball = geo.ball_vertices(4)[:300]
    tracemalloc.start()
    try:
        delta = estimate_delta_four_point(geo, ball, geo.basepoint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert delta == 0.0
    assert peak < 32 * 2**20


class _ScaledCycle:
    """A lab of a 5-cycle's vertices, scaled: integer distances with a
    four-point defect, so a wrapped narrow dtype would change the estimate."""

    def __init__(self, scale):
        self.scale = scale

    def pairwise_distances(self, points):
        return np.array([[min((p - q) % 5, (q - p) % 5) * self.scale for q in points] for p in points])


@pytest.mark.parametrize("depth, narrower", [(40, np.int8), (9000, np.int16)])
def test_four_point_dtype_guard_is_exact(depth, narrower):
    # at the root, max G2 = 2*depth: the guard 2*max|G2| + 1 passes the narrower dtype
    line = CayleyTreeModel(1)
    sample = [vertex(line, [e] * k) for e in (1, -1) for k in (0, 1, 2, depth // 2, depth - 1, depth)]
    assert 4 * depth + 1 > np.iinfo(narrower).max
    for base in (lab(line).basepoint, vertex(line, [1] * 3)):
        assert estimate_delta_four_point(lab(line), sample, base) == _four_point_by_distance(line, sample, base)


def test_four_point_dtype_guard_keeps_a_defect():
    for scale in (1, 30, 8000, 3_000_000_000):  # int8, int16, int32, int64
        assert estimate_delta_four_point(_ScaledCycle(scale), [0, 1, 2, 3], 4) == scale / 2


class _Matrix:
    """A lab whose points are the indices of a given distance matrix: the
    four-point estimator reads only its ``pairwise_distances``."""

    def __init__(self, rows):
        self.rows = rows

    def pairwise_distances(self, points):
        return self.rows[np.ix_(points, points)]


def _cubic_delta(rows) -> float:
    """The four-point delta at the last point of rows, from the all-triples
    n x n x n array of min(<x|y>, <y|z>) in the rows' own dtype."""
    D, d_base = rows[:-1, :-1], rows[-1, :-1]
    G2 = d_base[:, None] + d_base[None, :] - D
    maxmin = np.minimum(G2[:, :, None], G2[None, :, :]).max(axis=1)
    return max(0.0, float((maxmin - G2).max()) / 2.0)


@pytest.mark.parametrize("top, kind", [(15, np.int8), (4000, np.int16), (None, np.float64)])
def test_four_point_blocks_match_the_cubic_formula(top, kind):
    # n = 100: blocks of 2^18 // n^2 = 26 rows, the last of 22.  On random
    # metrics, and on a dented constant one whose defect lies only in rows
    # n - 2 and n - 1 of the last block, each narrowed to int8 or int16 by
    # the dtype guard, or in floats
    n, rng = 100, np.random.default_rng(41)
    assert n % (2**18 // n**2) and n > 2**18 // n**2
    for seed in range(3):
        if top is None:
            A = rng.random((n + 1, n + 1)) * 3.0
        else:
            A = rng.integers(0, top, (n + 1, n + 1))
        rows = A + A.T
        np.fill_diagonal(rows, 0)
        dent = np.full((n + 1, n + 1), top or 3.0)  # G2 = top off the diagonal: no defect
        np.fill_diagonal(dent, 0)
        dent[n - 2, n - 1] = dent[n - 1, n - 2] = (top or 3.0) + seed + 1  # G2 falls by seed + 1 there
        for matrix in (rows, dent):
            if top is not None:
                G2 = matrix[-1, :-1][:, None] + matrix[-1, :-1][None, :] - matrix[:-1, :-1]
                assert np.iinfo(kind).max // 4 < 2 * np.abs(G2).max() + 1 <= np.iinfo(kind).max
            assert estimate_delta_four_point(_Matrix(matrix), list(range(n)), n) == _cubic_delta(matrix)
        assert _cubic_delta(dent) == (seed + 1) / 2


def test_plane_distances_take_int64_arrays_only_below_2_to_25(monkeypatch, plane):
    # over the common denominator 5 the largest coordinate is top: the int64
    # path's ratios match the pair formula bit for bit while top is below
    # 2^25, and from 2^25 on the pairs are read one at a time.  Past 2^25 a
    # float64 ratio of the same integers is no longer int/int's float
    geo, rng = lab(plane), random.Random(25)
    pairs = []
    monkeypatch.setattr(geometry, "_acosh_ratio", lambda num, den: pairs.append(1) or _acosh_ratio(num, den))
    for top, paired in ((2**25 - 1, False), (2**25, True), (2**26 + 3, True), (2**90, True)):
        scaled = [(top, 1), (2 - top, top)] + [(rng.randrange(-top, top), rng.randrange(1, top)) for _ in range(38)]
        points = [geo.point_xy(Fraction(x, 5), Fraction(y, 5)) for x, y in scaled]
        triples = [p.payload for p in points]
        pairs.clear()
        rows = geo.pairwise_distances(points).tolist()
        assert bool(pairs) == paired, top
        assert rows == [[_acosh_ratio(*geometry._cosh_ratio(p, q)) for q in triples] for p in triples]
        if top == 2**26 + 3:
            X, Y = np.array(scaled, dtype=np.int64).T
            floats = ((X[:, None] - X) ** 2 + Y[:, None] ** 2 + Y**2) / (2 * Y[:, None] * Y)
            exact = [[((x - u) ** 2 + y * y + v * v) / (2 * y * v) for u, v in scaled] for x, y in scaled]
            assert floats.tolist() != exact


def test_plane_nearest_is_exact_past_float_ties(plane):
    # cosh d(y i, i) = (y + 1/y) / 2: at y = 2^30 and 2^30 + 2^-30 the two
    # ratios differ, but round to one float, and at 2^1100 and 2^1101 both
    # are past float range; the nearer point is found exactly either way
    geo = lab(plane)
    near, far = geo.point_xy(0, 2**30), geo.point_xy(0, Fraction(2**60 + 1, 2**30))
    ratio = lambda p: geometry._cosh_ratio(p.payload, geo.basepoint.payload)
    (a, b), (c, d) = ratio(near), ratio(far)
    assert a * d < c * b and a / b == c / d
    huge, huger = geo.point_xy(0, 2**1100), geo.point_xy(0, 2**1101)
    with pytest.raises(OverflowError):
        operator.truediv(*ratio(huge))
    for points, nearest in (([far, near], [1]), ([near, far, near], [0, 2]), ([huger, huge], [1]),
                            ([huge, far, huger], [1]), ([far, far], [0, 1])):
        assert geo.nearest(points, geo.basepoint) == nearest
        keys = [plane_cosh(p, geo.basepoint) for p in points]
        assert nearest == [i for i, key in enumerate(keys) if key == min(keys)]


def test_gromov_inequality_with_sampled_delta(plane, cayley):
    for model in (plane, cayley):
        rng = rng_from_seed(17)
        pts = sample_points(model, 24, rng)
        base = lab(model).basepoint
        delta_hat = estimate_delta_four_point(lab(model), pts, base)
        for i in range(0, 20, 2):
            x, y, z = pts[i], pts[(i + 3) % 24], pts[(i + 7) % 24]
            assert four_point_defect(model, x, y, z, base) <= delta_hat + 2**-20


def test_base_change_bound(plane, bs23):
    for model, seed in ((plane, 2), (bs23, 3)):
        rng = rng_from_seed(seed)
        pts = sample_points(model, 10, rng)
        x, y, w, w2 = pts[0], pts[1], pts[2], pts[3]
        g1 = gromov_product(model, x, y, w)
        g2 = gromov_product(model, x, y, w2)
        assert abs(g1 - g2) <= lab(model).distance(w, w2) + 1e-9


def test_translation_conjugation_invariance(plane):
    F = plane.matrix(3, 1, 2, 1)
    h = plane.matrix(1, 2, 0, 1)
    conj = plane.compose(plane.compose(h, F), plane.invert(h))
    c1, c2 = plane.classify(F), plane.classify(conj)
    h1, h2 = c1.hyperbolic, c2.hyperbolic
    assert Fraction(h1.a + h1.d, 2 * h1.s) == Fraction(h2.a + h2.d, 2 * h2.s)  # cosh(tau/2)


def test_elliptic_decay(plane):
    # a rotation of order 2 or 3: M^period is +-I, so every orbit repeats
    # with that period and stays within a bounded distance of its start
    x = lab(plane).point_xy(Fraction(1, 3), 2)
    for mat in (plane.matrix(0, -1, 1, 0), plane.matrix(1, -1, 1, 0)):
        period = plane.classify(mat).period
        m, top = mat.payload, mat.payload
        for _ in range(period - 1):
            top = top * m
        assert top.is_proj_identity()
        orbit = [x]
        for _ in range(4 * period):
            orbit.append(lab(plane).apply(mat, orbit[-1]))
        assert orbit[::period] == [x] * 5
        assert len({plane_cosh(x, p) for p in orbit}) <= period  # exact values


def test_distance_checks_models(plane, cayley):
    with pytest.raises(MixedModels):
        lab(plane).distance(lab(plane).basepoint, lab(cayley).basepoint)
