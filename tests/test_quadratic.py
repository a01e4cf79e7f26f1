from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.halfplane import acosh_fraction
from hypiso.quadratic import QuadraticNumber, parse_rational, rational_sqrt

import math


def test_perfect_square_radicand_folds():
    assert QuadraticNumber(3, 1, 4) == QuadraticNumber(5)
    assert QuadraticNumber(0, Fraction(1, 2), Fraction(9, 4)) == QuadraticNumber(Fraction(3, 4))


def test_cross_field_equality():
    # 2*sqrt(2) == sqrt(8) despite different radicands
    assert QuadraticNumber(0, 2, 2) == QuadraticNumber(0, 1, 8)
    assert QuadraticNumber(1, 2, 2) != QuadraticNumber(1, 1, 7)
    assert QuadraticNumber(0, 1, 2) != QuadraticNumber(0, 1, 3)
    assert QuadraticNumber(0, 1, 2) != QuadraticNumber(0, -1, 2)
    assert QuadraticNumber(5) != QuadraticNumber(0, 1, 2)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_acosh_fraction_small_and_huge():
    assert acosh_fraction(Fraction(1)) == 0.0
    assert abs(acosh_fraction(Fraction(17, 8)) - math.log(4)) < 1e-12
    huge = Fraction(10**400)
    expected = math.log(2) + 400 * math.log(10)
    assert abs(acosh_fraction(huge) - expected) < 1e-9


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None


def test_parse_rational():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(ValueError):
        parse_rational("1/0")


@st.composite
def respelled_and_unrelated(draw):
    """x = a + b sqrt(d); x respelled as a + (b/k) sqrt(d k^2); and an
    unrelated value, whose radicand may share x's square-free part or not."""
    radicand = st.fractions(min_value=0, max_value=12, max_denominator=4)
    a, b, d = draw(rationals), draw(rationals), draw(radicand)
    k = draw(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3))
    unrelated = QuadraticNumber(draw(rationals), draw(rationals), draw(radicand))
    return QuadraticNumber(a, b, d), QuadraticNumber(a, b / k, d * k * k), unrelated


@given(respelled_and_unrelated())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_equality_and_hash_match_sympy(values):
    # an oracle outside hypiso: sympy's own radicals and zero test
    sympy = pytest.importorskip("sympy")

    def exact(v: QuadraticNumber):
        r = [sympy.Rational(q.numerator, q.denominator) for q in (v.a, v.b, v.d)]
        return r[0] + r[1] * sympy.sqrt(r[2])

    x, respelled, unrelated = values
    assert x == respelled and hash(x) == hash(respelled)
    for p in values:
        for q in values:
            equal = sympy.expand(exact(p) - exact(q)) == 0
            assert (p == q) == equal
            if equal:
                assert hash(p) == hash(q)
