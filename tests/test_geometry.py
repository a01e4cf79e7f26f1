import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypiso.actions import Action
from hypiso.errors import InsufficientSample, MixedModels
from hypiso.geometry import (
    estimate_delta_four_point,
    estimate_translation_length,
    four_point_defect,
    gromov_product,
)
from hypiso.halfplane import HalfPlaneModel
from hypiso.sampling import rng_from_seed, sample_plane_points, sample_points
from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord


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
    x = plane.point_xy(1, 2)
    w = plane.point_xy(-1, Fraction(1, 2))
    assert gromov_product(plane, x, w, w).value == 0.0


def test_gromov_product_tree_oracle(cayley):
    # <ab|aab>_e = distance from e to the geodesic [ab, aab]
    x = cayley.vertex([1, 2])
    y = cayley.vertex([1, 1, 2])
    gp = gromov_product(cayley, x, y, cayley.basepoint)
    assert gp.exact_value == 1
    oracle = min(
        cayley.distance(cayley.basepoint, v).exact_value for v in cayley.geodesic(x, y)
    )
    assert gp.exact_value == oracle


def test_gromov_product_collinear_plane(plane):
    x = plane.point_xy(0, 1)
    y = plane.point_xy(0, 4)
    w = plane.point_xy(0, 2)
    # w lies on the geodesic [x, y], so <x|y>_w = 0
    assert abs(gromov_product(plane, x, y, w).value) < 1e-12
    # with the base at x, the two collinear points on one side give
    # <y|w>_x = min(d(y,x), d(w,x)) = ln 2
    gp = gromov_product(plane, y, w, x)
    dxy = plane.distance(x, y).value
    dxw = plane.distance(x, w).value
    assert abs(gp.value - math.log(2)) < 1e-12
    assert abs(gp.value - min(dxy, dxw)) < 1e-12


def test_gromov_product_upper_bound(plane):
    rng = rng_from_seed(11)
    pts = sample_plane_points(plane, 12, rng)
    for x, y, w in zip(pts, pts[4:], pts[8:]):
        gp = gromov_product(plane, x, y, w).value
        assert gp <= min(plane.distance(x, w).value, plane.distance(y, w).value) + 1e-9
        assert gp >= -1e-12


def test_four_point_insufficient(plane):
    with pytest.raises(InsufficientSample):
        estimate_delta_four_point(plane, sample_plane_points(plane, 2, rng_from_seed(0)), plane.basepoint)


def test_four_point_tree_exact_zero(bs23):
    ball = bs23.ball_vertices(4)
    est = estimate_delta_four_point(bs23, ball, bs23.basepoint)
    assert est.delta == 0.0
    assert est.condition == "four_point"
    assert est.sample_size == len(ball)


def test_four_point_collinear_zero(plane):
    pts = [plane.point_xy(0, Fraction(k)) for k in (1, 2, 4, 8, 16)]
    est = estimate_delta_four_point(plane, pts, plane.point_xy(0, 3))
    assert est.delta <= 1e-9


def test_four_point_plane_bounded(plane):
    pts = sample_plane_points(plane, 80, rng_from_seed(5))
    est = estimate_delta_four_point(plane, pts, plane.basepoint)
    assert 0.0 <= est.delta <= 1.0


def test_four_point_matches_cubic_formula(plane):
    # the row-by-row maximum equals the all-triples n x n x n formula, bit for bit
    pts = sample_plane_points(plane, 40, rng_from_seed(3))
    base = plane.basepoint
    n = len(pts)
    d_base = np.array([plane.distance(p, base).value for p in pts])
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = plane.distance(pts[i], pts[j]).value
    G2 = d_base[:, None] + d_base[None, :] - D
    maxmin = np.minimum(G2[:, :, None], G2[None, :, :]).max(axis=1)
    expected = max(0.0, float((maxmin - G2).max()) / 2.0)
    assert expected > 0.0
    assert estimate_delta_four_point(plane, pts, base).delta == expected


def _four_point_by_distance(model, sample, base) -> float:
    """The four-point delta from a matrix filled by model.distance, pair by pair."""
    n = len(sample)
    exact = model.distance(sample[0], base).exact_value is not None

    def value(p, q):
        length = model.distance(p, q)
        return int(length.exact_value) if exact else length.value

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
        (plane, sample_plane_points(plane, 45, rng_from_seed(11)), plane.point_xy(Fraction(-5, 7), 2)),
        (bs, bs.ball_vertices(4), bs.basepoint),
        (cayley3, cayley3.ball_vertices(2), cayley3.vertex([2, -3])),
    ]
    for model, sample, base in cases:
        for b in (model.basepoint, base):
            est = estimate_delta_four_point(model, sample, b)
            assert est.delta == _four_point_by_distance(model, sample, b)
        pts = sample[:20] + [base]
        rows = model.pairwise_distances(pts)
        assert rows == [[model.distance(p, q).value for q in pts] for p in pts]
    assert _four_point_by_distance(plane, cases[0][1], cases[0][2]) > 0.0


def test_four_point_memory_is_quadratic():
    # 300 vertices: the n^3 int64 array alone would take 216 MB
    cayley3 = CayleyTreeModel(3)
    ball = cayley3.ball_vertices(4)[:300]
    tracemalloc.start()
    try:
        est = estimate_delta_four_point(cayley3, ball, cayley3.basepoint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.delta == 0.0
    assert peak < 32 * 2**20


def test_gromov_inequality_with_sampled_delta(plane, cayley):
    for model in (plane, cayley):
        rng = rng_from_seed(17)
        pts = sample_points(model, 24, rng)
        base = model.basepoint
        delta_hat = estimate_delta_four_point(model, pts, base).delta
        for i in range(0, 20, 2):
            x, y, z = pts[i], pts[(i + 3) % 24], pts[(i + 7) % 24]
            assert four_point_defect(model, x, y, z, base) <= delta_hat + 2**-20


def test_base_change_bound(plane, bs23):
    for model, seed in ((plane, 2), (bs23, 3)):
        rng = rng_from_seed(seed)
        pts = sample_points(model, 10, rng)
        x, y, w, w2 = pts[0], pts[1], pts[2], pts[3]
        g1 = gromov_product(model, x, y, w).value
        g2 = gromov_product(model, x, y, w2).value
        assert abs(g1 - g2) <= model.distance(w, w2).value + 1e-9


def test_translation_estimate_plane_example(plane):
    act = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1)})
    est = estimate_translation_length(act, GroupWord.parse("f"), plane.basepoint, 64)
    exact = 2 * math.acosh(1.5)
    assert abs(est.value - exact) < 0.1
    assert est.lower_bound is not None
    assert est.value >= est.lower_bound.value - 1e-9  # orbit quotient never undershoots
    assert est.n_used == 64


def test_translation_estimate_identity(plane):
    act = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1)})
    est = estimate_translation_length(act, GroupWord.identity(), plane.basepoint, 8)
    assert est.value == 0.0
    assert est.exact


def test_translation_estimate_bass_serre_exact(bs23):
    act = Action("b", bs23, {"w": bs23.word([(0, 1), (1, 1)])})
    est = estimate_translation_length(act, GroupWord.parse("w"), bs23.basepoint, 64)
    assert est.value == 2.0
    assert est.exact
    assert est.lower_bound.exact_value == 2


def test_translation_estimate_requires_nmax(plane):
    act = Action("p", plane, {"f": plane.matrix(2, 1, 1, 1)})
    with pytest.raises(ValueError):
        estimate_translation_length(act, GroupWord.parse("f"), plane.basepoint, 1)


def test_translation_estimate_monotone_refinable(plane):
    act = Action("p", plane, {"f": plane.compose(plane.matrix(1, 2, 0, 1), plane.matrix(1, 0, 1, 1))})
    word = GroupWord.parse("f")
    values = [
        estimate_translation_length(act, word, plane.basepoint, n).value for n in (4, 8, 16, 32, 64)
    ]
    lower = estimate_translation_length(act, word, plane.basepoint, 4).lower_bound.value
    for v in values:
        assert v >= lower - 1e-9


def test_translation_conjugation_invariance(plane):
    F = plane.matrix(3, 1, 2, 1)
    h = plane.matrix(1, 2, 0, 1)
    conj = plane.compose(plane.compose(h, F), plane.invert(h))
    c1, c2 = plane.classify(F), plane.classify(conj)
    assert c1.hyperbolic.translation_length.exact_cosh == c2.hyperbolic.translation_length.exact_cosh


def test_elliptic_decay(plane):
    for mat in (plane.matrix(0, -1, 1, 0), plane.matrix(1, -1, 1, 0)):
        cls = plane.classify(mat)
        period = cls.elliptic.period
        diam = cls.elliptic.orbit_diameter.exact_cosh
        x = cls.elliptic.orbit_point
        cur = x
        for n in range(1, 4 * period + 1):
            cur = plane.apply(mat, cur)
            assert plane.cosh_distance(x, cur) <= diam  # exact comparison


def test_distance_checks_models(plane, cayley):
    with pytest.raises(MixedModels):
        plane.distance(plane.basepoint, cayley.basepoint)
