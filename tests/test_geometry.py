import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypiso.errors import InsufficientSample, MixedModels
from hypiso import geometry
from hypiso.dynamics import internal_points
from hypiso.geometry import estimate_delta_four_point, lab
from hypiso.halfplane import HalfPlaneModel
from hypiso.sampling import rng_from_seed, sample_plane_points
from hypiso.trees import BassSerreModel, CayleyTreeModel

from reference import (
    four_point_defect,
    geodesic,
    gromov_product,
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
    pts = sample_plane_points(plane, 12, rng)
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
    pts = sample_plane_points(plane, 45, rng_from_seed(7))
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
            tri = internal_points(plane, x, y, z)
            assert (tri.internal, tri.insize) == plane_internal_points_reference(plane, x, y, z)
            dxy, dyz, dxz = geo.distance(x, y), geo.distance(y, z), geo.distance(x, z)
            clamped += 0.5 * (dxy + dyz - dxz) < 0.0
    assert clamped > 0


def test_four_point_insufficient(plane):
    with pytest.raises(InsufficientSample):
        estimate_delta_four_point(plane, sample_plane_points(plane, 2, rng_from_seed(0)), lab(plane).basepoint)


def test_four_point_tree_exact_zero(bs23):
    ball = lab(bs23).ball_vertices(4)
    est = estimate_delta_four_point(bs23, ball, lab(bs23).basepoint)
    assert est.delta == 0.0
    assert est.condition == "four_point"
    assert est.sample_size == len(ball)


def test_four_point_collinear_zero(plane):
    pts = [lab(plane).point_xy(0, Fraction(k)) for k in (1, 2, 4, 8, 16)]
    est = estimate_delta_four_point(plane, pts, lab(plane).point_xy(0, 3))
    assert est.delta <= 1e-9


def test_four_point_plane_bounded(plane):
    pts = sample_plane_points(plane, 80, rng_from_seed(5))
    est = estimate_delta_four_point(plane, pts, lab(plane).basepoint)
    assert 0.0 <= est.delta <= 1.0


def test_four_point_matches_cubic_formula(plane):
    # the row-by-row maximum equals the all-triples n x n x n formula, bit for bit
    pts = sample_plane_points(plane, 40, rng_from_seed(3))
    base = lab(plane).basepoint
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
    assert estimate_delta_four_point(plane, pts, base).delta == expected


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
        (plane, sample_plane_points(plane, 45, rng_from_seed(11)), lab(plane).point_xy(Fraction(-5, 7), 2)),
        (bs, lab(bs).ball_vertices(4), lab(bs).basepoint),
        (cayley3, lab(cayley3).ball_vertices(2), vertex(cayley3, [2, -3])),
    ]
    for model, sample, base in cases:
        for b in (lab(model).basepoint, base):
            est = estimate_delta_four_point(model, sample, b)
            assert est.delta == _four_point_by_distance(model, sample, b)
        pts = sample[:20] + [base]
        rows = lab(model).pairwise_distances(pts).tolist()
        assert rows == [[lab(model).distance(p, q) for q in pts] for p in pts]
    assert _four_point_by_distance(plane, cases[0][1], cases[0][2]) > 0.0


def test_four_point_memory_is_quadratic():
    # 300 vertices: the n^3 int64 array alone would take 216 MB
    cayley3 = CayleyTreeModel(3)
    ball = lab(cayley3).ball_vertices(4)[:300]
    tracemalloc.start()
    try:
        est = estimate_delta_four_point(cayley3, ball, lab(cayley3).basepoint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.delta == 0.0
    assert peak < 32 * 2**20


class _ScaledCycle:
    """The metric of a 5-cycle's vertices, scaled: integer distances with a
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
        assert estimate_delta_four_point(line, sample, base).delta == _four_point_by_distance(line, sample, base)


def test_four_point_dtype_guard_keeps_a_defect(monkeypatch):
    monkeypatch.setattr(geometry, "lab", lambda cycle: cycle)  # the cycle is its own lab
    for scale in (1, 30, 8000, 3_000_000_000):  # int8, int16, int32, int64
        assert estimate_delta_four_point(_ScaledCycle(scale), [0, 1, 2, 3], 4).delta == scale / 2


def test_gromov_inequality_with_sampled_delta(plane, cayley):
    for model in (plane, cayley):
        rng = rng_from_seed(17)
        pts = sample_points(model, 24, rng)
        base = lab(model).basepoint
        delta_hat = estimate_delta_four_point(model, pts, base).delta
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
        assert len({lab(plane).distance_key(x, p) for p in orbit}) <= period  # exact values


def test_distance_checks_models(plane, cayley):
    with pytest.raises(MixedModels):
        lab(plane).distance(lab(plane).basepoint, lab(cayley).basepoint)
