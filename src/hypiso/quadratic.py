"""Exact arithmetic in real quadratic extensions of the rationals.

Values are stored as ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a
nonnegative rational radicand ``d``.  The representation is normalized so
that rational values always have ``b == 0, d == 0`` (perfect-square
radicands are folded into the rational part), which keeps equality and
sign tests purely rational.  Equality across different radicands is
decided exactly; no floats are involved anywhere except the explicit
``float()`` conversion used for display.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError

Rationalish = Union[int, Fraction]


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
    """An element a + b*sqrt(d) of a real quadratic field."""

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

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def _compatible(self, other: "QuadraticNumber") -> Fraction:
        """Radicand of the common field, or raise for mixed irrational fields."""
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d == other.d:
            return self.d
        raise ValueError(f"mixed radicands {self.d} and {other.d}")

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadraticNumber":
        if isinstance(x, QuadraticNumber):
            return x
        return QuadraticNumber(_frac(x))

    def __add__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._compatible(o)
        return QuadraticNumber(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        d = self._compatible(o)
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticNumber":
        """a - b*sqrt(d), built without a second square-root test of d."""
        out = object.__new__(QuadraticNumber)
        for name, value in (("a", self.a), ("b", -self.b), ("d", self.d)):
            object.__setattr__(out, name, value)
        return out

    def inverse(self) -> "QuadraticNumber":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return QuadraticNumber(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- exact comparisons ---------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value (-1, 0, +1)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(d) decides
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

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

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        d = self._compatible(o)  # raises for mixed irrational fields
        return QuadraticNumber(self.a - o.a, self.b - o.b, d).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.d})"


def acosh_fraction(c: Fraction) -> float:
    """arccosh of an exact rational >= 1, robust far beyond float range.

    Orbit computations routinely produce cosh values like 10**150, which
    overflow binary64; for those we use log(c) + log1p(sqrt(1 - 1/c^2)).
    """
    if c < 1:
        raise ValueError(f"acosh argument {c} < 1")
    try:
        x = float(c)
    except OverflowError:
        x = math.inf
    if math.isfinite(x):
        return math.acosh(x)
    # ln(c + sqrt(c^2 - 1)) with c astronomically large: 1/c^2 underflows to 0
    lnc = math.log(c.numerator) - math.log(c.denominator)
    try:
        inv2 = float(Fraction(c.denominator, c.numerator) ** 2)
    except OverflowError:
        inv2 = 0.0
    return lnc + math.log1p(math.sqrt(max(0.0, 1.0 - inv2)))


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


def format_rational(q: Fraction) -> str:
    """'p/q' or 'p'.  Raises ValidationError past Python's limit on the
    digits of an int turned into a string; the limit stays, because it
    also guards int() parsing of config input."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ValidationError(
            f"an exact number has over {sys.get_int_max_str_digits()} digits, "
            "the limit for printing one"
        ) from None
