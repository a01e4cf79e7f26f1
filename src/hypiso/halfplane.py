"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Points are (x, y) pairs with y > 0; coordinates are Fractions, or
QuadraticNumbers for fixed points of infinite-order rotations.  Matrices
are stored as primitive integer matrices, their determinant checked once,
where they are built from input (Matrix2.of).  They are identified
projectively with their negatives (-I acts trivially), so rotation orders
and classification are computed for the Mobius action, not the matrix group.

Classification is by trace, exactly:
  |tr| > 2  hyperbolic, translation length 2*arccosh(|tr|/2), boundary
            fixed points solve c z^2 + (d - a) z - b = 0 in Q(sqrt(tr^2-4))
  |tr| = 2  parabolic unless +-identity: rejected as hypothesis_violation
  |tr| < 2  elliptic; the Mobius fixed point is exact, and by Niven's
            theorem a rational trace gives finite rotation order only for
            tr in {0, +-1} (orders 2 and 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .models import (
    ELLIPTIC,
    HYPERBOLIC,
    HYPOTHESIS_VIOLATION,
    BoundaryPoint,
    Isometry,
    IsometryClass,
    Length,
    Point,
    SpaceModel,
)
from .quadratic import QuadraticNumber, acosh_fraction

HALF_PLANE_ID = "half_plane"

_ZERO = Length(0.0, exact_cosh=Fraction(1))


@dataclass(frozen=True, slots=True)
class Matrix2:
    """A determinant-1 rational matrix M as its primitive integer matrix
    (a, b, c, d) = s*M, s >= 1 and a*d - b*c = s*s.  ``of`` alone checks the
    determinant; products, inverses and negations are integer arithmetic."""

    a: int
    b: int
    c: int
    d: int
    s: int

    @staticmethod
    def of(a, b, c, d) -> "Matrix2":
        q = [Fraction(x) for x in (a, b, c, d)]
        det = q[0] * q[3] - q[1] * q[2]
        if det != 1:
            raise ValueError(f"determinant is {det}, must be exactly 1")
        # s*M is primitive: a prime p dividing it divides det = s^2, and s/p clears M
        s = math.lcm(*(x.denominator for x in q))
        return Matrix2(*(x.numerator * (s // x.denominator) for x in q), s)

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1, 1)

    def __mul__(self, o: "Matrix2") -> "Matrix2":
        a = self.a * o.a + self.b * o.c
        b = self.a * o.b + self.b * o.d
        c = self.c * o.a + self.d * o.c
        d = self.c * o.b + self.d * o.d
        s = self.s * o.s
        if s > 1:  # the content divides s, since the determinant is s^2
            g = math.gcd(a, b, c, d)
            if g > 1:
                a, b, c, d, s = a // g, b // g, c // g, d // g, s // g
        return Matrix2(a, b, c, d, s)

    def inverse(self) -> "Matrix2":
        return Matrix2(self.d, -self.b, -self.c, self.a, self.s)

    def neg(self) -> "Matrix2":
        return Matrix2(-self.a, -self.b, -self.c, -self.d, self.s)

    @property
    def trace(self) -> Fraction:
        return Fraction(self.a + self.d, self.s)

    def is_proj_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """M itself, the determinant-1 rational matrix."""
        return tuple(Fraction(x, self.s) for x in (self.a, self.b, self.c, self.d))


class HalfPlaneModel(SpaceModel):
    """Boundary payloads are finite coordinates on the real line
    (QuadraticNumbers), or None for the point at infinity."""

    kind = "half_plane"

    def __init__(self):
        self.model_id = HALF_PLANE_ID
        self._basepoint = self.point((Fraction(0), Fraction(1)))

    @property
    def basepoint(self) -> Point:
        return self._basepoint

    def point_xy(self, x, y) -> Point:
        if not isinstance(x, (Fraction, QuadraticNumber)):
            x = Fraction(x)
        if not isinstance(y, (Fraction, QuadraticNumber)):
            y = Fraction(y)
        ysign = y.sign() if isinstance(y, QuadraticNumber) else ((y > 0) - (y < 0))
        if ysign <= 0:
            raise ValueError("half-plane points need y > 0")
        return self.point((x, y))

    def matrix(self, a, b, c, d) -> Isometry:
        return self.isometry(Matrix2.of(a, b, c, d))

    # -- metric -----------------------------------------------------------

    def cosh_distance(self, p: Point, q: Point):
        """cosh d(p, q) = 1 + |p - q|^2 / (2 Im p Im q), exactly."""
        x1, y1 = self.require_point(p)
        x2, y2 = self.require_point(q)
        dx = x1 - x2
        dy = y1 - y2
        return 1 + (dx * dx + dy * dy) / (2 * y1 * y2)

    def distance(self, x: Point, y: Point) -> Length:
        ch = self.cosh_distance(x, y)
        if isinstance(ch, QuadraticNumber):
            if ch.is_rational:
                ch = ch.as_fraction()
            else:
                return Length(math.acosh(max(1.0, float(ch))), exact_cosh=ch)
        return Length(acosh_fraction(ch), exact_cosh=ch)

    # -- action -----------------------------------------------------------

    def apply(self, iso: Isometry, p: Point) -> Point:
        m: Matrix2 = self.require_iso(iso)
        x, y = self.require_point(p)
        a, b, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        den = (c * x + d) ** 2 + (c * y) * (c * y)
        nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den
        ny = y * (m.s * m.s) / den
        return self.point((nx, ny))

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.require_iso(first) * self.require_iso(second))

    def invert(self, iso: Isometry) -> Isometry:
        return self.isometry(self.require_iso(iso).inverse())

    def identity(self) -> Isometry:
        return self.isometry(Matrix2.identity())

    def iso_equal(self, a: Isometry, b: Isometry) -> bool:
        m, n = self.require_iso(a), self.require_iso(b)
        return m == n or m == n.neg()

    # -- classification -----------------------------------------------------

    def tag(self, iso: Isometry) -> str:
        m: Matrix2 = self.require_iso(iso)
        if m.is_proj_identity():
            return ELLIPTIC
        at, two = abs(m.a + m.d), 2 * m.s  # |tr M| against 2, scaled by s
        if at > two:
            return HYPERBOLIC
        return HYPOTHESIS_VIOLATION if at == two else ELLIPTIC

    def classify(self, iso: Isometry) -> IsometryClass:
        tag = self.tag(iso)
        m: Matrix2 = iso.payload
        if tag == HYPERBOLIC:
            return self._classify_hyperbolic(m)
        if tag == HYPOTHESIS_VIOLATION:
            return IsometryClass.make_violation("parabolic: |trace| = 2 and not +-identity")
        return self._classify_elliptic(m)  # +-identity: period 1

    def _classify_hyperbolic(self, m: Matrix2) -> IsometryClass:
        if m.a + m.d < 0:
            m = m.neg()  # same Mobius action; normalize to trace > 2
        t = m.trace
        # cosh(tau/2) = t/2, so cosh tau = 2 (t/2)^2 - 1
        tl = Length(2.0 * acosh_fraction(t / 2), exact_cosh=t * t / 2 - 1)
        a, b, c, d = m.entries()
        if c == 0:
            # fixes infinity (eigenvalue a) and b/(d-a)
            finite = QuadraticNumber(b / (d - a))
            plus, minus = (None, finite) if a > 1 else (finite, None)
        else:
            disc = t * t - 4  # QuadraticNumber folds a square disc into a rational
            plus = QuadraticNumber((a - d) / (2 * c), Fraction(1, 2) / c, disc)
            minus = QuadraticNumber((a - d) / (2 * c), Fraction(-1, 2) / c, disc)
            # plus carries eigenvalue (t + sqrt(disc))/2 > 1: attracting
        return IsometryClass.make_hyperbolic(tl, self.boundary(plus), self.boundary(minus))

    def _classify_elliptic(self, m: Matrix2) -> IsometryClass:
        t = abs(m.a + m.d)  # s*|tr M|; the order of the Mobius action, when finite
        period = 1 if m.is_proj_identity() else 2 if t == 0 else 3 if t == m.s else None
        if period is not None:
            base = self.basepoint
            orbit = [base]
            cur = base
            iso = self.isometry(m)
            for _ in range(period - 1):
                cur = self.apply(iso, cur)
                orbit.append(cur)
            diam = max(
                (self.distance(p, q) for i, p in enumerate(orbit) for q in orbit[i + 1 :]),
                key=lambda length: length.exact_cosh,
                default=_ZERO,
            )
            return IsometryClass.make_elliptic(period, base, diam)
        # infinite-order rotation: exact fixed point, one-element orbit
        fp = self.elliptic_fixed_point(m)
        return IsometryClass.make_elliptic(None, fp, _ZERO)

    def elliptic_fixed_point(self, m: Matrix2) -> Point:
        """The unique fixed point in the upper half-plane, |tr| < 2."""
        a, b, c, d = m.entries()
        t = m.trace
        if abs(t) >= 2:
            raise ValueError("not elliptic")
        # c != 0 here: with det 1, c = 0 gives d = 1/a and |tr| = |a + 1/a| >= 2
        x = (a - d) / (2 * c)
        y = QuadraticNumber(0, Fraction(1, 2) / abs(c), 4 - t * t)
        if y.is_rational:
            return self.point((x, y.as_fraction()))
        return self.point((x, y))

    # -- boundary ----------------------------------------------------------

    def boundary_infinity(self) -> BoundaryPoint:
        return self.boundary(None)

    def boundary_finite(self, value) -> BoundaryPoint:
        if not isinstance(value, QuadraticNumber):
            value = QuadraticNumber(Fraction(value))
        return self.boundary(value)

    def boundary_equal(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        bp: QuadraticNumber | None = self.require_boundary(p)
        bq: QuadraticNumber | None = self.require_boundary(q)
        if bp is None or bq is None:
            return bp is bq
        return bp == bq

    def boundary_apply(self, iso: Isometry, b: BoundaryPoint) -> BoundaryPoint:
        m: Matrix2 = self.require_iso(iso)
        z: QuadraticNumber | None = self.require_boundary(b)
        a, bb, c, d = m.entries()
        if z is None:
            return self.boundary(None if c == 0 else QuadraticNumber(a / c))
        den = c * z + d
        if den == 0:
            return self.boundary(None)
        return self.boundary((a * z + bb) / den)

    # -- extended Gromov products (diagnostic floats) ------------------------

    def _floats(self, p: Point) -> tuple[float, float]:
        x, y = self.require_point(p)
        return float(x), float(y)

    def gromov_boundary_point(self, b: BoundaryPoint, y: Point, base: Point) -> float:
        """<xi|y>_w = ln(|xi-w| / |xi-y|) + (1/2) ln(Im y / Im w) + d(y,w)/2."""
        pp: QuadraticNumber | None = self.require_boundary(b)
        yx, yy = self._floats(y)
        wx, wy = self._floats(base)
        dyw = self.distance(y, base).value
        if pp is None:
            return 0.5 * math.log(yy / wy) + 0.5 * dyw
        xi = float(pp)
        num = math.hypot(xi - wx, wy)
        den = math.hypot(xi - yx, yy)
        if den == 0.0:
            return math.inf  # y has reached xi in floats
        return math.log(num / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw

    def gromov_boundary_pair(self, b1: BoundaryPoint, b2: BoundaryPoint, base: Point) -> float:
        """<xi|eta>_w = ln(|xi-w| |eta-w| / (|xi-eta| Im w)); inf when equal."""
        p1: QuadraticNumber | None = self.require_boundary(b1)
        p2: QuadraticNumber | None = self.require_boundary(b2)
        if self.boundary_equal(b1, b2):
            return math.inf
        wx, wy = self._floats(base)
        if p1 is None or p2 is None:
            xi = float(p2 if p1 is None else p1)
            return math.log(math.hypot(xi - wx, wy) / wy)
        x1 = float(p1)
        x2 = float(p2)
        sep = abs(x1 - x2)
        if sep == 0.0:
            # distinct quadratic values collapsing in float: resolve minimally
            sep = 1e-300
        return math.log(math.hypot(x1 - wx, wy) * math.hypot(x2 - wx, wy) / (sep * wy))
