import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypiso.actions import Action
from hypiso.errors import MixedModels
from hypiso.geometry import lab
from hypiso.halfplane import HalfPlaneModel, Matrix2
from hypiso.quadratic import QuadraticNumber
from hypiso.records import class_invariant, witness_line
from hypiso.trees import CayleyTreeModel
from hypiso.words import GroupWord

from reference import parts, plane_cosh, power


@pytest.fixture
def plane():
    return HalfPlaneModel()


def test_distance_vertical_axis(plane):
    # cosh d((0,1),(0,4)) = 1 + 9/8 = 17/8; d = ln 4
    p, q = lab(plane).point_xy(0, 1), lab(plane).point_xy(0, 4)
    L = lab(plane).distance(p, q)
    assert plane_cosh(p, q) == Fraction(17, 8)
    assert abs(L - math.log(4)) < 1e-12
    assert abs(L - math.acosh(17 / 8)) < 1e-12


def test_distance_identity_and_symmetry(plane):
    p = lab(plane).point_xy(Fraction(1, 3), Fraction(5, 7))
    q = lab(plane).point_xy(-2, Fraction(1, 2))
    assert lab(plane).distance(p, p) == 0.0
    assert plane_cosh(p, q) == plane_cosh(q, p)


def test_cosh_value_consistency(plane):
    # the exact cosh and the float distance agree to relative 2^-40
    p = lab(plane).point_xy(Fraction(-7, 4), Fraction(2, 9))
    q = lab(plane).point_xy(3, Fraction(11, 3))
    L, ch = lab(plane).distance(p, q), plane_cosh(p, q)
    err = abs(math.cosh(L) - float(ch))
    assert err <= 2**-40 * max(1.0, float(ch))


def test_mixed_models_rejected(plane):
    tree = CayleyTreeModel(2)
    with pytest.raises(MixedModels):
        lab(plane).distance(lab(plane).basepoint, lab(tree).basepoint)


def test_apply_diagonal(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    assert lab(plane)._xy(lab(plane).apply(D, lab(plane).point_xy(0, 1))) == (Fraction(0), Fraction(4))


def test_apply_identity(plane):
    p = lab(plane).point_xy(Fraction(2, 3), Fraction(3, 5))
    assert lab(plane).apply(plane.identity(), p).payload == p.payload


def test_compose_matrix_product(plane):
    F = plane.matrix(2, 1, 1, 1)
    sq = plane.compose(F, F)
    assert sq.payload.entries() == (Fraction(5), Fraction(3), Fraction(3), Fraction(2))
    inv = plane.compose(F, plane.invert(F))
    assert inv.payload.is_proj_identity()


def test_matrix_checks_its_determinant(plane):
    with pytest.raises(ValueError, match="determinant is 2, must be exactly 1"):
        plane.matrix(2, 0, 0, 1)


def test_parse_word_reads_rational_entries(plane):
    # an entry is p/q or p, in lowest terms or not; a zero denominator is refused
    assert plane.parse_word("[[-3/6, 7], [0, -2]]").payload.entries() == (Fraction(-1, 2), 7, 0, -2)
    with pytest.raises(ValueError, match="^bad rational entry: zero denominator$"):
        plane.parse_word("[[1/0, 0], [0, 1]]")


def _matrix_by_fractions(entries):
    """Matrix2.of by Fraction arithmetic: the matrix, or the ValueError message."""
    q = [Fraction(x) for x in entries]
    det = q[0] * q[3] - q[1] * q[2]
    if det != 1:
        return f"determinant is {det}, must be exactly 1"
    s = math.lcm(*(x.denominator for x in q))
    return Matrix2(*(int(x * s) for x in q), s)


def test_matrix_of_matches_fraction_determinant_on_sweep():
    values = [*range(-3, 4), *(Fraction(p, q) for p, q in ((1, 2), (2, 3), (3, 2)) for p in (p, -p))]
    accepted = 0
    for entries in itertools.product(values, repeat=4):
        expected = _matrix_by_fractions(entries)
        try:
            got = Matrix2.of(*entries)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, entries
        accepted += isinstance(got, Matrix2)
    assert accepted > 100


def test_matrix_of_converts_other_inputs():
    assert Matrix2.of("1/2", 0, "-3/4", 2) == Matrix2(2, 0, -3, 8, 4)
    assert Matrix2.of(True, False, 0, 1) == Matrix2(1, 0, 0, 1, 1)
    assert [type(x) for x in Matrix2.of(True, False, 0, True)] == [int] * 5
    assert Matrix2.of(0.5, 0, 0, 2.0) == Matrix2(1, 0, 0, 4, 2)
    with pytest.raises(ValueError, match="determinant is 3/2, must be exactly 1"):
        Matrix2.of("3/2", 0, 0, True)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Matrix2.of("x", 0, 0, 1)


def test_classify_hyperbolic_trace_3(plane):
    cls = plane.classify(plane.matrix(2, 1, 1, 1))
    assert cls.tag == "hyperbolic"
    tl, h = cls.hyperbolic.translation_length, cls.hyperbolic
    half = Fraction(h.a + h.d, 2 * h.s)  # cosh(tau/2)
    assert 2 * half * half - 1 == Fraction(7, 2)  # cosh tau = 2 cosh^2(tau/2) - 1
    assert class_invariant(cls) == "cosh-half=3/2"
    assert abs(tl - 2 * math.acosh(1.5)) < 1e-12


def test_classify_parabolic(plane):
    assert plane.classify(plane.matrix(1, 1, 0, 1)).tag == "hypothesis_violation"
    assert plane.classify(plane.matrix(-1, 5, 0, -1)).tag == "hypothesis_violation"
    # +-identity is elliptic, not parabolic
    assert plane.classify(plane.matrix(-1, 0, 0, -1)).tag == "elliptic"


def test_classify_rotation_period_2(plane):
    iso = plane.matrix(0, -1, 1, 0)
    cls = plane.classify(iso)
    assert cls.tag == "elliptic"
    assert cls.period == 2
    # z -> -1/z: a half turn about i, so M^2 = -I and M fixes i
    m = iso.payload
    assert not m.is_proj_identity() and (m * m).is_proj_identity()
    assert lab(plane).apply(iso, lab(plane).basepoint) == lab(plane).basepoint


def test_classify_rotation_period_3(plane):
    cls = plane.classify(plane.matrix(1, -1, 1, 0))
    assert cls.period == 3
    m = Matrix2.of(1, -1, 1, 0)
    cube = m * m * m
    assert cube.is_proj_identity()


# infinite-order rotations: trace 1/2, -1/2 and 1/3, none of them 0 or +-1
ROTATIONS = [(0, -1, 1, Fraction(1, 2)), (0, -1, 1, Fraction(-1, 2)), (0, -1, 1, Fraction(1, 3))]


def test_infinite_order_rotation_fixed_point(plane):
    # the one fixed point has y = sqrt(4 - tr^2) / 2|c|, irrational here, and
    # the class keeps no point: it says only that the order is infinite
    for entries in ROTATIONS:
        iso = plane.matrix(*entries)
        cls = plane.classify(iso)
        assert cls.tag == "elliptic" and cls.period is None
        assert class_invariant(cls) == "period=inf"
        # no power up to 12 is +-I, as none would be for a rotation of finite order
        m, current = iso.payload, iso.payload
        for _ in range(12):
            assert not current.is_proj_identity()
            current = current * m


def test_fixed_points_diagonal(plane):
    D = plane.matrix(2, 0, 0, Fraction(1, 2))
    hyp = plane.classify(D).hyperbolic
    plus, minus = hyp.fixed_plus, hyp.fixed_minus
    assert plus.payload is None
    assert parts(minus.payload) == (0, 0, 0)


def test_fixed_points_eigenvector_identity(plane):
    F = plane.matrix(2, 1, 1, 1)
    hyp = plane.classify(F).hyperbolic
    plus, minus = hyp.fixed_plus, hyp.fixed_minus
    a, b, c, d = F.payload.entries()
    for bp in (plus, minus):
        # z = u + v sqrt(w) is a root of c z^2 + (d - a) z - b, part by part
        u, v, w = parts(bp.payload)
        assert c * (u * u + v * v * w) + (d - a) * u - b == 0
        assert (2 * c * u + d - a) * v == 0
    # golden ratio eigendirection
    assert plus.payload == QuadraticNumber((1, -1, -1), 1)  # z^2 - z - 1
    assert parts(plus.payload) == (Fraction(1, 2), Fraction(1, 2), 5)


def test_fixed_points_swap_under_inverse(plane):
    F = plane.matrix(2, 1, 1, 1)
    hyp, inv = plane.classify(F).hyperbolic, plane.classify(plane.invert(F)).hyperbolic
    assert plane.boundary_equal(inv.fixed_plus, hyp.fixed_minus)
    assert plane.boundary_equal(inv.fixed_minus, hyp.fixed_plus)


def test_rational_fixed_points_from_a_square_discriminant(plane):
    # trace 5/2, tr^2 - 4 = 9/4: the fixed points (a - d +- 3/2) / 2c are rational
    iso = plane.matrix(3, 1, Fraction(-5, 2), Fraction(-1, 2))
    line = witness_line(0, "one", plane, plane.classify(iso))
    assert line == "witness 0 one half_plane hyperbolic cosh-half=5/4 plus=rat:-1 minus=rat:-2/5"
    a, b, c, d = iso.payload.entries()
    hyp = plane.classify(iso).hyperbolic
    for bp in (hyp.fixed_plus, hyp.fixed_minus):
        z, v, _ = parts(bp.payload)
        assert v == 0
        assert a * z + b == (c * z + d) * z


def test_witness_line_takes_one_isqrt(plane, monkeypatch):
    # a witness line prints both fixed points, and the class builds the two
    # together from one isqrt of its discriminant: irrational (D = 5, 32),
    # rational (D = 9/4, 9) and with infinity (c = 0, no isqrt at all)
    calls, isqrt = [], math.isqrt

    def counted(n):
        calls.append(n)
        return isqrt(n)

    cases = [((2, 1, 1, 1), 1), ((3, 2, 4, 3), 1), ((3, 1, Fraction(-5, 2), Fraction(-1, 2)), 1),
             ((2, 0, Fraction(3, 2), Fraction(1, 2)), 1), ((2, 3, 0, Fraction(1, 2)), 0)]
    for entries, expected in cases:
        cls = plane.classify(plane.matrix(*entries))
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(math, "isqrt", counted)
            line = witness_line(0, "one", plane, cls)
        assert len(calls) == expected and "plus=" in line and "minus=" in line


def test_boundary_equal_powers(plane):
    F = plane.matrix(2, 1, 1, 1)
    h1, h2 = plane.classify(F).hyperbolic, plane.classify(power(plane, F, 2)).hyperbolic
    assert plane.boundary_equal(h1.fixed_plus, h2.fixed_plus)
    assert plane.boundary_equal(h1.fixed_minus, h2.fixed_minus)
    assert not plane.boundary_equal(h1.fixed_plus, h1.fixed_minus)


def test_boundary_apply(plane):
    F = plane.matrix(2, 1, 1, 1)
    plus = plane.classify(F).hyperbolic.fixed_plus
    moved = plane.boundary_apply(F, plus)
    assert plane.boundary_equal(moved, plus)
    R = plane.matrix(0, -1, 1, 0)
    zero = plane.own(QuadraticNumber.of((1, 0)))
    inf = plane.own(None)
    assert plane.boundary_equal(plane.boundary_apply(R, zero), inf)
    assert plane.boundary_equal(plane.boundary_apply(R, inf), zero)


def test_projective_convention(plane):
    F = plane.matrix(2, 1, 1, 1)
    a, b, c, d, s = F.payload
    negF = plane.own(Matrix2(-a, -b, -c, -d, s))
    cls1 = plane.classify(F)
    cls2 = plane.classify(negF)
    h1, h2 = cls1.hyperbolic, cls2.hyperbolic
    assert Fraction(h1.a + h1.d, 2 * h1.s) == Fraction(h2.a + h2.d, 2 * h2.s)  # cosh(tau/2)
    assert plane.boundary_equal(cls1.hyperbolic.fixed_plus, cls2.hyperbolic.fixed_plus)


def test_power_translation_scaling_chebyshev(plane):
    # tau(g^n) = n tau(g) exactly: |tr(g^n)|/2 = T_n(|tr g|/2)
    def half_trace(m: Matrix2) -> Fraction:
        return abs(Fraction(m.a + m.d, m.s)) / 2

    for mat in (Matrix2.of(2, 1, 1, 1), Matrix2.of(3, 1, 2, 1), Matrix2.of(5, 2, 2, 1)):
        x = half_trace(mat)
        two = half_trace(mat * mat)
        three = half_trace(mat * mat * mat)
        assert two == 2 * x * x - 1
        assert three == 4 * x**3 - 3 * x


small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
positive_rational = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)
shears = st.integers(min_value=-3, max_value=3)


@given(small_rational, positive_rational, small_rational, positive_rational, shears, shears)
def test_isometry_invariance_exact(x1, y1, x2, y2, u, v):
    plane = HalfPlaneModel()
    p = lab(plane).point_xy(x1, y1)
    q = lab(plane).point_xy(x2, y2)
    m = plane.compose(plane.matrix(1, u, 0, 1), plane.matrix(1, 0, v, 1))
    before = plane_cosh(p, q)
    after = plane_cosh(lab(plane).apply(m, p), lab(plane).apply(m, q))
    assert before == after  # exact rational equality


@given(small_rational, positive_rational, small_rational, positive_rational)
def test_rational_cosh_distance_is_the_textbook_fraction(x1, y1, x2, y2):
    plane = HalfPlaneModel()
    ch = plane_cosh(lab(plane).point_xy(x1, y1), lab(plane).point_xy(x2, y2))
    assert isinstance(ch, Fraction)
    assert ch == 1 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2)


def test_image_composes_powers_by_squaring(plane, monkeypatch):
    F, G = Matrix2.of(2, 1, 1, 1), Matrix2.of(0, -1, 1, 0)
    act = Action("p", plane, {"f": plane.own(F), "g": plane.own(G)})
    expected = Matrix2.identity()
    for m in [F] * 3 + [G.inverse()] * 2 + [F]:
        expected = expected * m
    assert act.image(GroupWord.parse("f^3 g^-2 f")).payload == expected

    squared = power(plane, plane.own(F), 4096)
    calls = []
    original = HalfPlaneModel._mul  # the payload product that image and power run on

    def counted(first, second):
        calls.append(1)
        return original(first, second)

    monkeypatch.setattr(HalfPlaneModel, "_mul", staticmethod(counted))
    assert act.image(GroupWord.parse("f^4096")) == squared
    assert 0 < len(calls) <= 30  # letter by letter this takes 4096


def test_point_xy_takes_rationals(plane):
    assert lab(plane)._xy(lab(plane).point_xy(Fraction(1, 2), 3)) == (Fraction(1, 2), Fraction(3))
    assert lab(plane)._xy(lab(plane).point_xy(Fraction(-1, 4), Fraction(2, 7))) == (Fraction(-1, 4), Fraction(2, 7))
    for y in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="y > 0"):
            lab(plane).point_xy(0, y)
