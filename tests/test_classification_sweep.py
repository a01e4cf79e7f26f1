"""Exhaustive small-entry sweeps of the classification trichotomy, plus a
concurrency smoke test for the pure-function contract."""

import contextlib
import dataclasses
import itertools
import math
import random
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.cli import MAX_PRINT_DIGITS, _tau_display
from hypiso.errors import ValidationError
from hypiso.geometry import PlaneGeometry, lab
from hypiso.halfplane import HalfPlaneModel, Matrix2, PlaneHyperbolic
from hypiso.quadratic import QuadraticNumber
from hypiso import records
from hypiso.records import check_printable, class_invariant, witness_line
from hypiso.sampling import rng_from_seed, sample_plane_points
from hypiso.trees import BassSerreModel, CayleyTreeModel, RayDescriptor, TreeHyperbolic

from reference import (
    parts,
    plane_class_reference,
    plane_cosh,
    plane_witness_line_reference,
    plane_xy,
    power,
    xy_apply_reference,
    xy_boundary_product_reference,
    xy_cosh_reference,
    xy_distance_reference,
    xy_floats_reference,
)


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


def fraction_product(x, y):
    """The product of two 2x2 matrices given as entry 4-tuples, in Fractions."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# z -> 4z, z -> z/9, z -> z + 1/2, z -> z - 2/3: their conjugates of integer
# matrices have denominators, so Matrix2 stores them with s > 1
CONJUGATORS = [(Fraction(2), 0, 0, Fraction(1, 2)), (Fraction(1, 3), 0, 0, Fraction(3)),
               (1, Fraction(1, 2), 0, 1), (1, Fraction(-2, 3), 0, 1)]


def sweep_matrices():
    """det_one_matrices(3), then the rational conjugates of det_one_matrices(2)."""
    yield from det_one_matrices(3)
    for m in det_one_matrices(2):
        for p, q, r, t in CONJUGATORS:
            conj = fraction_product(fraction_product((p, q, r, t), m.entries()), (t, -q, -r, p))
            yield Matrix2.of(*conj)


def chain_sized_matrices():
    """Matrices with entries of a few hundred to over a thousand bits, as a
    chain-k search builds: seeded products of shears, their conjugates by
    CONJUGATORS (s > 1), the negatives, and conjugates of z -> p^2 z (a
    square discriminant: rational fixed points) and of z -> p^2 z + 1
    (c = 0).  [[2, 1], [1, 1]]^800 has a trace past float range."""
    rng = random.Random(26)
    steps = [Matrix2.of(*e) for e in ((1, 1, 0, 1), (1, 0, 1, 1), (1, -2, 0, 1), (1, 0, -3, 1), (2, 1, 1, 1))]
    shears = []
    for n in (400, 800, 1600):
        m = Matrix2.identity()
        for _ in range(n):
            m = m * rng.choice(steps)
        shears.append(m)
    out = [*shears, _power_of(Matrix2.of(2, 1, 1, 1), 800)]
    for m in list(out):
        out += [Matrix2.of(*e) * m * Matrix2.of(*e).inverse() for e in CONJUGATORS[:2]]
        out.append(Matrix2(-m.a, -m.b, -m.c, -m.d, m.s))
    for p in (2, 3, Fraction(5, 3)):
        for fixes_infinity in (Matrix2.of(p, 0, 0, 1 / Fraction(p)), Matrix2.of(p, 1, 0, 1 / Fraction(p))):
            out += [fixes_infinity, fixes_infinity.inverse()]
            out += [m * fixes_infinity * m.inverse() for m in shears[:2]]
    return out


def _power_of(m: Matrix2, n: int) -> Matrix2:
    out = Matrix2.identity()
    for _ in range(n):
        out = out * m
    return out


def _raise(*_args):
    raise AssertionError("read the Fraction view or walked an orbit")


@contextlib.contextmanager
def integer_only(monkeypatch):
    """Classification and the boundary action may read only (a, b, c, d, s)."""
    with monkeypatch.context() as mp:
        mp.setattr(Matrix2, "entries", _raise)
        mp.setattr(PlaneGeometry, "apply", _raise)
        mp.setattr(PlaneGeometry, "distance", _raise)
        yield


def assert_primitive(m: Matrix2):
    assert m.s >= 1 and math.gcd(m.a, m.b, m.c, m.d) == 1
    assert m.a * m.d - m.b * m.c == m.s * m.s


def test_trichotomy_exhaustive_small_entries(monkeypatch):
    plane = HalfPlaneModel()
    seen = {"elliptic": 0, "hyperbolic": 0, "hypothesis_violation": 0}
    rotations = []  # s of each rotation of order 2 or 3
    previous = Matrix2.identity()
    inf, half = plane.own(None), plane.own(QuadraticNumber.of((2, -1)))
    # last, a product of content exactly 2: diag(2, 1/2) [[1, 1/2], [0, 1]] is
    # (4, 0, 0, 1) (2, 1, 0, 2) = 2 (4, 2, 0, 1), s = 2
    content_2 = (Matrix2.of(1, Fraction(1, 2), 0, 1), Matrix2.of(2, 0, 0, Fraction(1, 2)))
    for m in (*sweep_matrices(), *content_2):
        iso = plane.own(m)
        with integer_only(monkeypatch):
            tag, cls = plane.tag(iso), plane.classify(iso)
            images = [plane.boundary_apply(iso, z) for z in (inf, half)]
            if cls.is_hyperbolic:
                fixed = (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus)
                assert all(plane.boundary_equal(plane.boundary_apply(iso, z), z) for z in fixed)
        assert tag == cls.tag
        e = m.entries()
        for z, got in zip((None, Fraction(1, 2)), images):
            den = e[2] if z is None else e[2] * z + e[3]
            num = e[0] if z is None else e[0] * z + e[1]
            assert (None if got.payload is None else parts(got.payload)) == (None if den == 0 else (num / den, 0, 0))
        # the integer form against Fraction arithmetic kept apart from Matrix2
        a, b, c, d = e
        assert m.inverse().entries() == (d, -b, -c, a)
        for other in (m, previous, m.inverse()):
            product = m * other
            assert product.entries() == fraction_product(m.entries(), other.entries())
            assert_primitive(product)
        assert_primitive(m)
        previous = m
        seen[cls.tag] += 1
        t = abs(Fraction(m.a + m.d, m.s))
        if cls.tag == "hyperbolic":
            assert t > 2
            # each fixed point z = u + v sqrt(w) is a root of c z^2 + (d - a) z - b,
            # part by part (w is never a square when v != 0)
            a, b, c, d = m.entries()
            for bp in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
                z = bp.payload
                if z is None:
                    assert c == 0
                else:
                    u, v, w = parts(z)
                    assert c * (u * u + v * v * w) + (d - a) * u - b == 0
                    assert (2 * c * u + d - a) * v == 0
            assert not plane.boundary_equal(
                cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus
            )
            assert cls.hyperbolic.translation_length > 0
        elif cls.tag == "hypothesis_violation":
            assert t == 2 and not m.is_proj_identity()
        else:
            assert t < 2 or m.is_proj_identity()
            # the order of the rotation: M^period is +-I, and no smaller power
            # is; an infinite-order rotation has no power +-I up to M^12
            period = cls.period
            powers = [m]
            for _ in range(12 if period is None else period - 1):
                powers.append(powers[-1] * m)
            if period is None:
                assert not any(p.is_proj_identity() for p in powers)
            else:
                assert powers[-1].is_proj_identity()
                assert not any(p.is_proj_identity() for p in powers[:-1])
            if period in (2, 3):
                rotations.append(m.s)
    assert all(seen.values()), seen
    assert len(rotations) == 106 and sum(s > 1 for s in rotations) == 72  # conjugates too


def test_tag_matches_classify_on_sweep():
    plane = HalfPlaneModel()
    sweep = list(sweep_matrices())
    assert any(m.s > 1 for m in sweep)
    assert Matrix2.of(1, 0, 0, 1) in sweep and Matrix2.of(-1, 0, 0, -1) in sweep
    tags = set()
    for m in sweep:
        iso = plane.own(m)
        tags.add(plane.tag(iso))
        assert plane.tag(iso) == plane.classify(iso).tag
    assert tags == {"elliptic", "hyperbolic", "hypothesis_violation"}


def test_fixed_points_are_distinct_roots_sympy():
    # an oracle outside hypiso: each boundary fixed point u + v sqrt(w) of a
    # hyperbolic matrix is a root of c z^2 + (d - a) z - b, and the two differ
    sympy = pytest.importorskip("sympy")

    def exact(x: Fraction):
        return sympy.Rational(x.numerator, x.denominator)

    plane = HalfPlaneModel()
    checked = 0
    for m in sweep_matrices():
        cls = plane.classify(plane.own(m))
        if not cls.is_hyperbolic:
            continue
        a, b, c, d = (exact(x) for x in m.entries())
        roots = []
        for bp in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
            q = bp.payload
            if q is None:
                assert c == 0  # the quadratic drops a degree: a root at infinity
                roots.append(sympy.oo)
                continue
            u, v, w = map(exact, parts(q))
            z = u + v * sympy.sqrt(w)
            assert sympy.expand(c * z**2 + (d - a) * z - b) == 0
            roots.append(z)
        if sympy.oo in roots:
            assert roots.count(sympy.oo) == 1
        else:
            assert sympy.expand(roots[0] - roots[1]).is_zero is False
        checked += 1
    assert checked >= 40  # the hyperbolic matrices of the sweep


def test_boundary_apply_on_irrational_fixed_points_sympy():
    # an oracle outside hypiso: sympy's own arithmetic in Q(sqrt(w)) maps each
    # irrational fixed point z = u + v sqrt(w) of the sweep's hyperbolics by
    # every sweep matrix, (a z + b) / (c z + d); the image stays in the field:
    # its form's discriminant is w times a rational square
    sympy = pytest.importorskip("sympy")

    def exact(x: Fraction):
        return sympy.Rational(x.numerator, x.denominator)

    fields = {}

    def in_field(q, w):
        """q = u + v sqrt(w') as an element of Q(sqrt(w))."""
        if w not in fields:
            field = sympy.QQ.algebraic_field(sympy.sqrt(exact(w)))
            fields[w] = field, field.from_sympy(sympy.sqrt(exact(w)))
        field, root = fields[w]
        u, v, w2 = parts(q)
        k = sympy.sqrt(exact(w2 / w))
        assert k.is_Rational, (q, w)
        return field.convert(exact(u)) + field.convert(exact(v) * k) * root

    plane = HalfPlaneModel()
    sweep = list(map(plane.own, sweep_matrices()))
    points = []
    for cls in map(plane.classify, sweep):
        if cls.is_hyperbolic:
            for bp in (cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus):
                if bp.payload is not None and bp.payload.root and bp not in points:
                    points.append(bp)
    assert len(points) == 36
    points = [(bp, parts(bp.payload)[2]) for bp in points]
    points = [(bp, w, in_field(bp.payload, w)) for bp, w in points]
    for iso in sweep:
        entries = [exact(x) for x in iso.payload.entries()]
        matrix = {w: [field.convert(x) for x in entries] for w, (field, _) in fields.items()}
        for bp, w, z in points:
            image = plane.boundary_apply(iso, bp).payload
            assert image.root
            a, b, c, d = matrix[w]
            assert in_field(image, w) == (a * z + b) / (c * z + d)


def test_record_cosh_half_is_half_the_raw_trace():
    # the record prints cosh(tau/2) = |a + d|/2, recovered exactly from the
    # class's cosh tau; the expected string comes from the integer entries
    plane = HalfPlaneModel()
    raw = [tuple(int(x) for x in m.entries()) for m in det_one_matrices(3)]
    for n in (50, 200):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(n):  # times [[2, 1], [1, 1]] on the right
            a, b, c, d = 2 * a + b, a + b, 2 * c + d, c + d
        raw.append((a, b, c, d))
    checked = 0
    for a, b, c, d in raw:
        t = abs(a + d)
        if t <= 2:
            continue
        cls = plane.classify(plane.matrix(a, b, c, d))
        assert class_invariant(cls) == (f"cosh-half={t // 2}" if t % 2 == 0 else f"cosh-half={t}/2")
        checked += 1
    assert checked == 42  # the 40 hyperbolic matrices of the sweep and both powers


@pytest.fixture
def cli_print_limit():
    """The interpreter's int-string limit set to the CLI's for one test, and
    restored after: the library reads the interpreter's limit, and these
    tests print numbers sized against the CLI's."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
    yield
    sys.set_int_max_str_digits(limit)


def test_plane_classes_match_the_fraction_derivation(cli_print_limit):
    # the class keeps integers; its record line, tau~ column, tau float and
    # cosh tau must be those of the derivation in Fractions (reference.py),
    # on the sweep and on chain-sized matrices, whichever kind the fixed
    # points are and wherever tau's float comes from
    plane = HalfPlaneModel()
    kinds = Counter()
    for m in [*sweep_matrices(), *chain_sized_matrices()]:
        cls = plane.classify(plane.own(m))
        if not cls.is_hyperbolic:
            continue
        _, plus, minus, tau, cosh = plane_class_reference(m)
        assert witness_line(3, "p", plane, cls) == plane_witness_line_reference(3, "p", m)
        assert [bp.payload for bp in cls.hyperbolic.fixed_points] == [plus, minus]
        h = cls.hyperbolic
        half = Fraction(h.a + h.d, 2 * h.s)  # cosh(tau/2), from the class's integers
        assert repr(h.translation_length) == repr(tau) and 2 * half * half - 1 == cosh
        assert _tau_display(cls) == f"{tau:.6f}"
        kinds["infinity" if None in (plus, minus) else "quadratic" if plus.root else "rational"] += 1
        kinds["past float range"] += abs(Fraction(m.a + m.d, 2 * m.s)) > 2**1024
        kinds["large"] += max(map(abs, m)).bit_length() > 300
    assert kinds == {"quadratic": 88, "rational": 12, "infinity": 12, "past float range": 4, "large": 24}


def test_integer_witness_lines_match_the_fraction_derivation(cli_print_limit):
    # witness_line prints a plane class from its integers, one gcd per
    # rational: the sweep must reach each case of the fixed points, and every
    # line must be the one derived in Fractions
    plane = HalfPlaneModel()
    cases = Counter()
    for m in [*sweep_matrices(), *chain_sized_matrices()]:
        cls = plane.classify(plane.own(m))
        if not cls.is_hyperbolic:
            continue
        assert witness_line(0, "w", plane, cls) == plane_witness_line_reference(0, "w", m)
        a, _, c, _, s, disc = cls.hyperbolic
        if c == 0:
            cases["infinity attracting" if a > s else "infinity repelling"] += 1
        else:
            cases["square discriminant" if math.isqrt(disc) ** 2 == disc else "irrational"] += 1
            cases["negative c"] += c < 0
    assert min(cases.values()) > 0 and len(cases) == 5, cases


def test_witness_line_past_the_digit_limit(cli_print_limit):
    # a class whose cosh-half, or only a fixed point's D/s^2 (about twice its
    # entries' digits), passes the limit on printing an int is a
    # ValidationError with the limit in its message
    plane = HalfPlaneModel()
    limit = sys.get_int_max_str_digits()
    message = f"an exact number has over {limit} digits, the limit for printing one"
    big = 10**limit
    fib = power(plane, plane.matrix(2, 1, 1, 1), 5 * limit // 3)  # entries of about 0.7 limit digits
    assert class_invariant(plane.classify(fib)).startswith("cosh-half=")
    for m in (Matrix2.of(big, 1, big - 1, 1), Matrix2.of(1, big - 1, 1, big), fib.payload, fib.payload.inverse()):
        cls = plane.classify(plane.own(m))
        with pytest.raises(ValidationError, match=re.escape(message)):
            witness_line(0, "w", plane, cls)
    assert witness_line(0, "w", plane, plane.classify(plane.matrix(2, 1, 1, 1))) == (
        "witness 0 w half_plane hyperbolic cosh-half=3/2 plus=quad:1/2;1/2;5 minus=quad:1/2;-1/2;5"
    )


@pytest.mark.parametrize("limit", [640, 641])
def test_check_printable_on_each_side_of_its_digit_bound(monkeypatch, limit):
    # check_printable prints a plane class only when its integers, of at most
    # 2L + 2 bits for L-bit entries, may pass 3 bits per digit of the limit.
    # f = (2^(L-1), 1, 2^(L-1) - 1, 1) has L-bit entries: the last L within
    # the bound prints nothing, the next prints once and succeeds, and
    # L = 1100 prints and raises what witness_line raises.  641 makes the
    # bound odd, so that 2L + 1 and 2L + 2 part on it
    plane, printed = HalfPlaneModel(), []
    monkeypatch.setattr(records, "witness_line", lambda *args: printed.append(args) or witness_line(*args))
    within = (3 * limit - 2) // 2
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for bits, prints in ((within, 0), (within + 1, 1), (1100, 1)):
            cls = plane.classify(plane.own(Matrix2.of(2 ** (bits - 1), 1, 2 ** (bits - 1) - 1, 1)))
            printed.clear()
            if bits < 1100:
                check_printable(plane, cls)
            else:
                with pytest.raises(ValidationError, match=f"over {limit} digits"):
                    check_printable(plane, cls)
            assert len(printed) == prints, bits
    finally:
        sys.set_int_max_str_digits(old)


def _leaves(value):
    """The values under a dataclass's fields, recursively, through tuples; a
    hyperbolic class's fixed points too, which it builds when read (a tree
    class yields its length and rays, not its core and model)."""
    if isinstance(value, TreeHyperbolic):
        yield from _leaves((value.length, value.fixed_points))
    elif isinstance(value, PlaneHyperbolic):
        yield from _leaves((*value, value.fixed_points))
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_classes_hold_no_float_or_fraction():
    # a class keeps the integers its record prints: no field, down to the
    # boundary points' payloads, is a float or a Fraction
    plane, cayley, bs = HalfPlaneModel(), CayleyTreeModel(2), BassSerreModel(2, 3)
    classes = [plane.classify(plane.own(m)) for m in [*sweep_matrices(), *chain_sized_matrices()]]
    for model, units in ((cayley, (1, -1, 2, -2)), (bs, ((0, 1), (1, 1), (1, 2)))):
        classes += [model.classify(model.word(w)) for n in range(4) for w in itertools.product(units, repeat=n)]
    assert {(type(cls.hyperbolic).__name__, cls.tag) for cls in classes} == {
        ("PlaneHyperbolic", "hyperbolic"), ("TreeHyperbolic", "hyperbolic"),
        ("NoneType", "elliptic"), ("NoneType", "hypothesis_violation"),
    }
    found = [(cls, leaf) for cls in classes for leaf in _leaves(cls) if isinstance(leaf, (float, Fraction))]
    assert found == []


def test_fixes_matches_the_boundary_action_on_sweep():
    # the plane reads +-identity and rotations off the integer matrix; every
    # answer must be the boundary action's, for every sweep matrix against
    # infinity, small rationals and the fixed points of the sweep's hyperbolics
    plane = HalfPlaneModel()
    sweep = [(iso, plane.classify(iso)) for iso in map(plane.own, sweep_matrices())]
    points = {plane.own(None)}
    points |= {plane.own(QuadraticNumber.of((d, -n))) for n in range(-3, 4) for d in (1, 2, 3)}
    points |= {
        p for _, c in sweep if c.is_hyperbolic for p in (c.hyperbolic.fixed_plus, c.hyperbolic.fixed_minus)
    }
    assert len(points) == 52
    answers = Counter()
    for iso, cls in sweep:
        for b in points:
            expected = plane.boundary_equal(plane.boundary_apply(iso, b), b)
            assert plane.fixes(iso, b) == expected
            answers[cls.tag, expected] += 1
    assert answers["elliptic", True] and answers["elliptic", False]
    assert answers["hyperbolic", True] and answers["hypothesis_violation", True]


@pytest.mark.parametrize(
    "model, units",
    [(BassSerreModel(2, 3), [(0, 1), (1, 1), (1, 2)]), (CayleyTreeModel(2), [1, -1, 2, -2])],
    ids=["bass_serre", "cayley_tree"],
)
def test_fixes_matches_the_boundary_action_on_trees(model, units):
    # every word of up to three units against the rays it and the others fix
    words = {model.word(w) for n in range(4) for w in itertools.product(units, repeat=n)}
    rays = [model.own(RayDescriptor((), model.cyclic_reduce(model.require(w))[1])) for w in words
            if model.tag(w) == "hyperbolic"]
    for w in words:
        cls = model.classify(w)
        if cls.is_hyperbolic:
            rays += [cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus]
    answers = Counter()
    for w in words:
        for b in rays:
            expected = model.boundary_equal(model.boundary_apply(w, b), b)
            assert model.fixes(w, b) == expected
            answers[expected] += 1
    assert answers[True] and answers[False]


small = st.integers(min_value=-5, max_value=5)


@given(small, small, small, small)
@settings(max_examples=200)
def test_cosh_float_consistency(x1, y1n, x2, y2n):
    plane = HalfPlaneModel()
    p = lab(plane).point_xy(Fraction(x1, 3), Fraction(abs(y1n) + 1, 4))
    q = lab(plane).point_xy(Fraction(x2, 5), Fraction(abs(y2n) + 1, 2))
    L, ch = lab(plane).distance(p, q), plane_cosh(p, q)
    err = abs(math.cosh(L) - float(ch))
    assert err <= 2**-40 * max(1.0, float(ch))


# -- the plane lab's points: integer triples against (x, y) in Fractions ------


def _plane_sweep_points(plane):
    """Sampled points, the basepoint and points of unlike denominators;
    points that _point_at places on the geodesics between them, vertical
    ones included; and orbit points past float range: under [[2, 1], [1,
    1]]^400 y underflows to 0, under diag(2, 1/2)^520 x and y overflow."""
    geo = lab(plane)
    points = sample_plane_points(geo, 8, rng_from_seed(34)) + [
        geo.basepoint, geo.point_xy(0, Fraction(5, 2)), geo.point_xy(Fraction(-5, 7), Fraction(1, 9)),
        geo.point_xy(Fraction(7, 3), Fraction(22, 7)),
    ]
    along = [geo._point_at(p, q, t) for p, q in zip(points, points[1:]) for t in (0.25, 1.0, 3.0)]
    far = [
        geo.apply(power(plane, plane.matrix(*entries), n), p)
        for entries, n in (((2, 1, 1, 1), 400), ((2, 0, 0, Fraction(1, 2)), 520))
        for p in points[:3]
    ]
    return points, along, far


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_plane_lab_matches_the_fraction_metric():
    # value for value, the triples' Mobius action (exact), floats, cosh,
    # distances, pairwise distances and boundary products equal those of
    # the (x, y) pairs of Fractions: on sampled points moved by every sweep
    # matrix, on _point_at's points and on points past float range
    plane = HalfPlaneModel()
    geo = lab(plane)
    points, along, far = _plane_sweep_points(plane)
    moved = []
    for m in sweep_matrices():
        for p in points[:4]:
            moved.append(geo.apply(plane.own(m), p))
            assert plane_xy(moved[-1]) == xy_apply_reference(m, plane_xy(p))
    everything = points + along + far + moved[::9]
    assert any(_outcome(geo._floats, p) is OverflowError for p in far[3:])
    assert all(geo._floats(p)[1] == 0.0 for p in far[:3])
    hyperbolic = [g for g in map(plane.own, sweep_matrices()) if plane.tag(g) == "hyperbolic"]
    ends = [b for g in hyperbolic[::40] for b in plane.classify(g).hyperbolic.fixed_points] + [plane.own(None)]
    assert {b.payload is None for b in ends} == {True, False} and any(b.payload and b.payload.root for b in ends)
    for p in everything:
        assert _outcome(geo._floats, p) == _outcome(xy_floats_reference, plane_xy(p))
        for w in (geo.basepoint, points[2], far[0]):
            assert plane_cosh(p, w) == xy_cosh_reference(plane_xy(p), plane_xy(w))
            assert geo.distance(p, w) == xy_distance_reference(plane_xy(p), plane_xy(w))
            if w is not far[0]:
                for b in ends:
                    xi = None if b.payload is None else float(b.payload)
                    want = xy_boundary_product_reference(xi, plane_xy(p), plane_xy(w))
                    assert geo.gromov_boundary_point(b, p, w) == want
    sample = points + along + far
    rows = geo.pairwise_distances(sample)
    assert rows.tolist() == [[xy_distance_reference(plane_xy(p), plane_xy(q)) for q in sample] for p in sample]


def test_a_plane_point_has_one_spelling():
    # a point's triple is primitive with D > 0, so equal points have equal
    # payloads however they were built: from rationals, ints over a common d
    # or floats, moved by +-identity, or moved by g and back by g^-1
    plane = HalfPlaneModel()
    geo = lab(plane)
    points, along, far = _plane_sweep_points(plane)
    assert geo.point_xy(Fraction(1, 2), 3).payload == geo.point_xy(2, 12, 4).payload == geo.point_xy(0.5, 3.0).payload
    for p in points + along + far:
        (x, y), (X, Y, D) = plane_xy(p), p.payload
        assert D > 0 and Y > 0 and math.gcd(X, Y, D) == 1
        assert geo.point_xy(x, y).payload == geo.point_xy(3 * X, 3 * Y, 3 * D).payload == p.payload
        for identity in (plane.identity(), plane.matrix(-1, 0, 0, -1)):
            assert geo.apply(identity, p).payload == p.payload
    for m in list(sweep_matrices())[::5]:
        g = plane.own(m)
        for p in points + far[:1]:
            assert geo.apply(plane.invert(g), geo.apply(g, p)).payload == p.payload


def test_power_negative_exponents():
    plane = HalfPlaneModel()
    F = plane.matrix(2, 1, 1, 1)
    assert power(plane, F, -2).payload == plane.invert(power(plane, F, 2)).payload
    assert power(plane, F, 0).payload.is_proj_identity()
    bs = BassSerreModel(2, 3)
    w = bs.word([(0, 1), (1, 2)])
    assert bs.require(bs.compose(power(bs, w, -3), power(bs, w, 3))) == ()


def test_ray_equality_different_period_lengths():
    bs = BassSerreModel(2, 3)
    per = ((0, 1), (1, 1))
    double = per + per
    assert bs.boundary_equal(bs.own(RayDescriptor((), per)), bs.own(RayDescriptor((), double)))
    assert not bs.boundary_equal(bs.own(RayDescriptor((), per)), bs.own(RayDescriptor((), ((0, 1), (1, 2)))))


def test_concurrent_classification_is_stable():
    # models are immutable and operations pure: concurrent use must agree
    # with the sequential answers bit for bit
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3)
    mats = [m for m in det_one_matrices(2)][:60]
    words = [bs.word([(0, 1), (1, e)]) for e in (1, 2)] * 30
    expected_plane = [plane.classify(plane.own(m)).tag for m in mats]
    expected_tree = [bs.classify(w).hyperbolic.length for w in words]
    pairs = [(lab(bs).basepoint, v) for v in lab(bs).ball_vertices(4) for _ in (0, 1)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got_plane = list(pool.map(lambda m: plane.classify(plane.own(m)).tag, mats))
        got_tree = list(pool.map(lambda w: bs.classify(w).hyperbolic.length, words))
        dists = list(pool.map(lambda p: lab(bs).distance_key(*p), pairs))
    assert got_plane == expected_plane
    assert got_tree == expected_tree
    assert dists == [lab(bs).distance_key(*p) for p in pairs] and all(type(d) is int for d in dists)
