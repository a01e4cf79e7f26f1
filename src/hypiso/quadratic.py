"""Exact values a + b*sqrt(d) with rational a, b and d >= 0, and exact
rational helpers.

A QuadraticNumber is a value, not a field: it is a boundary point of the
plane, and the plane's Mobius map on boundary points is written out over
the parts in ``halfplane``.  Values are normalized so that a rational one
has ``b == 0, d == 0`` (perfect-square radicands fold into the rational
part).  Equality is exact, across radicands too; there is no sign or order.
Floats appear only in ``float()``, for display and the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadraticNumber:
    """The real number a + b*sqrt(d)."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __init__(self, a, b=0, d=0):
        a, b, d = _frac(a), _frac(b), _frac(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            a, b, d = a, Fraction(0), Fraction(0)
        else:
            root = rational_sqrt(d)
            if root is not None:
                a, b, d = a + b * root, Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def of_parts(a: Fraction, b: Fraction, d: Fraction) -> "QuadraticNumber":
        """a + b*sqrt(d) from parts already normalized (b nonzero, d > 0 not
        a rational square), built without a square-root test of d."""
        out = object.__new__(QuadraticNumber)
        for name, value in (("a", a), ("b", b), ("d", d)):
            object.__setattr__(out, name, value)
        return out

    # -- exact equality ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadraticNumber(_frac(other))
        if not isinstance(other, QuadraticNumber):
            return NotImplemented
        if self.d == other.d:
            return self.a == other.a and self.b == other.b
        if self.b == 0 or other.b == 0:
            # one rational, one irrational (normalized radicands differ)
            return False
        # both irrational in distinct fields: equal only when the rational
        # parts agree and b1*sqrt(d1) == b2*sqrt(d2)
        if self.a != other.a:
            return False
        if (self.b > 0) != (other.b > 0):
            return False
        return self.b * self.b * self.d == other.b * other.b * other.d

    def __hash__(self):
        # equal values share (a, sign(b), b^2 d) even across radicands
        return hash((self.a, (self.b > 0) - (self.b < 0), self.b * self.b * self.d))

    # -- conversion/display --------------------------------------------

    def __float__(self) -> float:
        try:
            out = float(self.a)
        except OverflowError:
            out = math.inf if self.a > 0 else -math.inf
        if self.b != 0:
            try:
                out += float(self.b) * math.sqrt(float(self.d))
            except OverflowError:
                out = math.inf if self.b > 0 else -math.inf
        return out

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self.d}))"


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction; denominators must be nonzero."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError("zero denominator")
        return Fraction(int(num), d)
    return Fraction(int(text))
