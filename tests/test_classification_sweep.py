"""Exhaustive small-entry sweeps of the classification trichotomy, plus a
concurrency smoke test for the pure-function contract."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.actions import Action
from hypiso.geometry import estimate_translation_length
from hypiso.halfplane import HalfPlaneModel, Matrix2
from hypiso.trees import BassSerreModel
from hypiso.words import GroupWord


def det_one_matrices(bound: int):
    for a, b, c in itertools.product(range(-bound, bound + 1), repeat=3):
        # a d - b c = 1 with integer d
        if a == 0:
            if b * c != -1:
                continue
            for d in range(-bound, bound + 1):
                yield Matrix2.of(a, b, c, d)
            continue
        num = 1 + b * c
        if num % a != 0:
            continue
        d = num // a
        if abs(d) <= bound:
            yield Matrix2.of(a, b, c, d)


def test_trichotomy_exhaustive_small_entries():
    plane = HalfPlaneModel()
    seen = {"elliptic": 0, "hyperbolic": 0, "hypothesis_violation": 0}
    for m in det_one_matrices(3):
        cls = plane.classify(plane.isometry(m))
        seen[cls.tag] += 1
        t = abs(m.trace)
        if cls.tag == "hyperbolic":
            assert t > 2
            # symbolic eigenvector identity at both fixed points
            a, b, c, d = m.entries()
            for bp in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
                pp = bp.payload
                if pp.is_infinity:
                    assert c == 0
                else:
                    z = pp.finite
                    assert a * z + b == (c * z + d) * z
            assert not plane.boundary_equal(
                cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus
            )
            assert cls.hyperbolic.translation_length.value > 0
        elif cls.tag == "hypothesis_violation":
            assert t == 2 and not m.is_proj_identity()
        else:
            assert t < 2 or m.is_proj_identity()
            w = cls.elliptic
            if w.period is not None and not m.is_proj_identity():
                # finite rotation order: the matrix power is projectively trivial
                power = m
                for _ in range(w.period - 1):
                    power = power * m
                assert power.is_proj_identity()
            elif w.period is None:
                # infinite order: the witness is an exactly fixed point
                moved = plane.apply(plane.isometry(m), w.orbit_point)
                assert moved.coords[0] == w.orbit_point.coords[0]
                assert moved.coords[1] == w.orbit_point.coords[1]
    assert all(seen.values()), seen


def test_tag_matches_classify_on_sweep():
    plane = HalfPlaneModel()
    sweep = list(det_one_matrices(3))
    assert Matrix2.of(1, 0, 0, 1) in sweep and Matrix2.of(-1, 0, 0, -1) in sweep
    tags = set()
    for m in sweep:
        iso = plane.isometry(m)
        tags.add(plane.tag(iso))
        assert plane.tag(iso) == plane.classify(iso).tag
    assert tags == {"elliptic", "hyperbolic", "hypothesis_violation"}


def test_fixed_points_are_distinct_roots_sympy():
    # an oracle outside hypiso: each boundary fixed point a + b sqrt(d) of a
    # hyperbolic matrix is a root of c z^2 + (d - a) z - b, and the two differ
    sympy = pytest.importorskip("sympy")

    def exact(x: Fraction):
        return sympy.Rational(x.numerator, x.denominator)

    plane = HalfPlaneModel()
    checked = 0
    for m in det_one_matrices(3):
        cls = plane.classify(plane.isometry(m))
        if not cls.is_hyperbolic:
            continue
        a, b, c, d = (exact(x) for x in m.entries())
        roots = []
        for bp in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
            pp = bp.payload
            if pp.is_infinity:
                assert c == 0  # the quadratic drops a degree: a root at infinity
                roots.append(sympy.oo)
                continue
            q = pp.finite
            z = exact(q.a) + exact(q.b) * sympy.sqrt(exact(q.d))
            assert sympy.expand(c * z**2 + (d - a) * z - b) == 0
            roots.append(z)
        if sympy.oo in roots:
            assert roots.count(sympy.oo) == 1
        else:
            assert sympy.expand(roots[0] - roots[1]).is_zero is False
        checked += 1
    assert checked >= 40  # the hyperbolic matrices of the sweep


def test_parabolic_estimate_still_returns():
    plane = HalfPlaneModel()
    act = Action("p", plane, {"f": plane.matrix(1, 1, 0, 1)})
    est = estimate_translation_length(act, GroupWord.parse("f"), plane.basepoint, 32)
    assert est.value >= 0.0 and not est.exact and est.lower_bound_t is None


small = st.integers(min_value=-5, max_value=5)


@given(small, small, small, small)
@settings(max_examples=200)
def test_cosh_float_consistency(x1, y1n, x2, y2n):
    plane = HalfPlaneModel()
    p = plane.point_xy(Fraction(x1, 3), Fraction(abs(y1n) + 1, 4))
    q = plane.point_xy(Fraction(x2, 5), Fraction(abs(y2n) + 1, 2))
    L = plane.distance(p, q)
    err = abs(math.cosh(L.value) - float(L.exact_cosh))
    assert err <= 2**-40 * max(1.0, float(L.exact_cosh))


def test_power_negative_exponents():
    plane = HalfPlaneModel()
    F = plane.matrix(2, 1, 1, 1)
    assert plane.iso_equal(plane.power(F, -2), plane.invert(plane.power(F, 2)))
    assert plane.power(F, 0).payload.is_proj_identity()
    bs = BassSerreModel(2, 3)
    w = bs.word([(0, 1), (1, 2)])
    assert bs.require_iso(bs.compose(bs.power(w, -3), bs.power(w, 3))) == ()


def test_ray_equality_different_period_lengths():
    bs = BassSerreModel(2, 3)
    per = ((0, 1), (1, 1))
    double = per + per
    assert bs.boundary_equal(bs.ray((), per), bs.ray((), double))
    assert not bs.boundary_equal(bs.ray((), per), bs.ray((), ((0, 1), (1, 2))))


def test_concurrent_classification_is_stable():
    # models are immutable and operations pure: concurrent use must agree
    # with the sequential answers bit for bit
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3, ball_radius=6)
    mats = [m for m in det_one_matrices(2)][:60]
    words = [bs.word([(0, 1), (1, e)]) for e in (1, 2)] * 30
    expected_plane = [plane.classify(plane.isometry(m)).tag for m in mats]
    expected_tree = [
        bs.classify(w).hyperbolic.translation_length.exact_value for w in words
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got_plane = list(pool.map(lambda m: plane.classify(plane.isometry(m)).tag, mats))
        got_tree = list(
            pool.map(lambda w: bs.classify(w).hyperbolic.translation_length.exact_value, words)
        )
        dists = list(
            pool.map(
                lambda p: bs.distance(p[0], p[1]).exact_value,
                [(bs.basepoint, v) for v in bs.ball_vertices(4) for _ in (0, 1)],
            )
        )
    assert got_plane == expected_plane
    assert got_tree == expected_tree
    assert all(isinstance(d, Fraction) for d in dists)
