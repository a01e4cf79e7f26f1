"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Points are (x, y) pairs with y > 0; coordinates are Fractions, or
QuadraticNumbers for fixed points of infinite-order rotations.  A matrix M
is stored as its primitive integer matrix s*M = (a, b, c, d), its
determinant checked once, where it is built (Matrix2.of).  Classification
(of the Mobius action: M and -M are one map), fixed points, the elliptic
orbit and the boundary action read a, b, c, d, s; tr = (a + d)/s:
  |tr| > 2  hyperbolic, translation length 2*arccosh(|tr|/2), boundary fixed
            points ((a-d) +- s*sqrt(tr^2-4))/2c, roots of c z^2 + (d-a) z - b
  |tr| = 2  parabolic unless +-identity: rejected as hypothesis_violation
  |tr| < 2  elliptic.  By Niven's theorem a rational trace has finite order
            only for |a+d| in {0, s} (orders 2 and 3), and the orbit of i is
            then equilateral, of cosh diameter (a^2+b^2+c^2+d^2)/2s^2 (Beardon,
            The Geometry of Discrete Groups, 7.2); else the fixed point is exact"""

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
        """M itself as Fractions: a view for readers; no decision reads it."""
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

    def _point_matrix(self, p: Point) -> tuple[int, int, int]:
        """(Y, X, D) for the integer matrix [[Y, X], [0, D]] that maps i to
        the rational point p = (X + Y i)/D."""
        x, y = self.require_point(p)
        if not (isinstance(x, Fraction) and isinstance(y, Fraction)):
            raise ValueError("the sample points must be rational")
        den = math.lcm(x.denominator, y.denominator)
        return y.numerator * (den // y.denominator), x.numerator * (den // x.denominator), den

    def pairwise_distances(self, points: list[Point]) -> list[list[float]]:
        """d(p, q) for every two rational points, row p, column q: the floats
        of ``distance``, from cosh = ((X - X')^2 + Y^2 + Y'^2) / 2YY' over one
        common denominator of all the coordinates."""
        mats = [self._point_matrix(p) for p in points]
        den = math.lcm(*(m[2] for m in mats))
        xs = [x * (den // d) for _, x, d in mats]
        ys = [y * (den // d) for y, _, d in mats]
        rows = [[0.0] * len(mats) for _ in mats]
        for i, (x, y) in enumerate(zip(xs, ys)):
            for j in range(i + 1, len(mats)):
                dx, yj = x - xs[j], ys[j]
                rows[i][j] = rows[j][i] = _acosh_ratio(dx * dx + y * y + yj * yj, 2 * y * yj)
        return rows

    # -- action -----------------------------------------------------------

    def apply(self, iso: Isometry, p: Point) -> Point:
        m: Matrix2 = self.require_iso(iso)
        x, y = self.require_point(p)
        a, b, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        den = (c * x + d) ** 2 + (c * y) * (c * y)
        nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den
        ny = y * (m.s * m.s) / den
        return self.point((nx, ny))

    def size(self, iso: Isometry) -> int:
        m: Matrix2 = self.require_iso(iso)
        return max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)).bit_length()

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
        a, b, c, d, s = m.a, m.b, m.c, m.d, m.s
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d  # same Mobius action; normalize to trace > 2
        t = Fraction(a + d, s)
        # cosh(tau/2) = t/2, so cosh tau = 2 (t/2)^2 - 1
        tl = Length(2.0 * acosh_fraction(t / 2), exact_cosh=t * t / 2 - 1)
        if c == 0:
            # fixes infinity (eigenvalue a/s) and b/(d-a)
            finite = QuadraticNumber(Fraction(b, d - a))
            plus, minus = (None, finite) if a > s else (finite, None)
        else:
            # plus carries eigenvalue (t + sqrt(t^2 - 4))/2 > 1: attracting
            x, disc = Fraction(a - d, 2 * c), t * t - 4  # a square disc folds to a rational
            plus = QuadraticNumber(x, Fraction(s, 2 * c), disc)
            minus = QuadraticNumber(x, Fraction(-s, 2 * c), disc)
        return IsometryClass.make_hyperbolic(tl, self.boundary(plus), self.boundary(minus))

    def _classify_elliptic(self, m: Matrix2) -> IsometryClass:
        a, b, c, d, s = m.a, m.b, m.c, m.d, m.s
        t = abs(a + d)  # s*|tr M|; the order of the Mobius action, when finite
        period = 1 if m.is_proj_identity() else 2 if t == 0 else 3 if t == s else None
        if period is None:  # infinite order: the exact fixed point, a one-point orbit
            point, ch = self.elliptic_fixed_point(m), Fraction(1)
        else:
            # the orbit of i under a rotation of order 2 or 3 is equilateral, so its
            # diameter is d(i, M i): 2 cosh d(i, M i) = |M|^2 for det M = 1
            point, ch = self.basepoint, Fraction(a * a + b * b + c * c + d * d, 2 * s * s)
        return IsometryClass.make_elliptic(period, point, Length(acosh_fraction(ch), exact_cosh=ch))

    def elliptic_fixed_point(self, m: Matrix2) -> Point:
        """The unique fixed point in the upper half-plane, |tr| < 2."""
        a, c, d, s = m.a, m.c, m.d, m.s
        if abs(a + d) >= 2 * s:
            raise ValueError("not elliptic")
        # c != 0 here: with det 1, c = 0 gives d = 1/a and |tr| = |a + 1/a| >= 2
        x = Fraction(a - d, 2 * c)
        y = QuadraticNumber(0, Fraction(s, 2 * abs(c)), 4 - Fraction(a + d, s) ** 2)
        return self.point((x, y.as_fraction() if y.is_rational else y))

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
        a, bb, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        if z is None:
            return self.boundary(None if c == 0 else QuadraticNumber(Fraction(a, c)))
        den = c * z + d
        if den == 0:
            return self.boundary(None)
        return self.boundary((a * z + bb) / den)

    # -- extended Gromov products (diagnostic floats) ------------------------

    def _floats(self, p: Point) -> tuple[float, float]:
        x, y = self.require_point(p)
        return float(x), float(y)

    def gromov_boundary_point(self, b: BoundaryPoint, y: Point, base: Point) -> float:
        pp: QuadraticNumber | None = self.require_boundary(b)
        yx, yy = self._floats(y)
        wx, wy = self._floats(base)
        dyw = self.distance(y, base).value
        return _boundary_product(None if pp is None else float(pp), wx, wy, yx, yy, dyw)

    def orbit_boundary_products(
        self, iso: Isometry, b: BoundaryPoint, points: list[Point], base: Point, steps: int
    ):
        """For n = 1..steps, the products <b|g^n p>_base of the rational points
        p, in order, each computed as it is read; see SpaceModel.

        Each orbit point is an integer matrix A with A i = g^n p, stepped by
        the primitive matrix N of g with no gcd: A = [[p, q], [r, t]] gives
        x = (pr + qt)/(r^2 + t^2) and y = det A/(r^2 + t^2), and with C the
        adjugate of the base's matrix times A, 2 det C cosh d(y, base) =
        |C|^2.  The floats of these integer ratios are those of the reduced
        Fractions, since int / int rounds correctly."""
        m: Matrix2 = self.require_iso(iso)
        pp: QuadraticNumber | None = self.require_boundary(b)
        xi = None if pp is None else float(pp)
        wx, wy = self._floats(base)
        by, bx, bd = self._point_matrix(base)  # its adjugate is [[bd, -bx], [0, by]]
        a, bb, c, d = m.a, m.b, m.c, m.d
        orbit = [(y, x, 0, den) for y, x, den in map(self._point_matrix, points)]
        dets = [y * den for y, _, _, den in orbit]
        s2 = m.s * m.s

        def product(A, det):
            p, q, r, t = A
            den = r * r + t * t
            yx, yy = (p * r + q * t) / den, det / den
            c0, c1, c2, c3 = bd * p - bx * r, bd * q - bx * t, by * r, by * t
            dyw = _acosh_ratio(c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3, 2 * by * bd * det)
            return _boundary_product(xi, wx, wy, yx, yy, dyw)

        for _ in range(steps):
            orbit = [(a * p + bb * r, a * q + bb * t, c * p + d * r, c * q + d * t) for p, q, r, t in orbit]
            dets = [det * s2 for det in dets]  # det N = s^2
            yield map(product, orbit, dets)

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


def _acosh_ratio(num: int, den: int) -> float:
    """acosh_fraction(num/den) for a ratio >= 1, reduced to a Fraction only
    when num / den overflows a float (the log branch reads reduced terms)."""
    try:
        return math.acosh(num / den)
    except OverflowError:
        return acosh_fraction(Fraction(num, den))


def _boundary_product(xi, wx: float, wy: float, yx: float, yy: float, dyw: float) -> float:
    """<xi|y>_w = ln(|xi-w| / |xi-y|) + (1/2) ln(Im y / Im w) + d(y,w)/2 in
    floats, xi None for the point at infinity."""
    if xi is None:
        return 0.5 * math.log(yy / wy) + 0.5 * dyw
    num = math.hypot(xi - wx, wy)
    den = math.hypot(xi - yx, yy)
    if den == 0.0:
        return math.inf  # y has reached xi in floats
    return math.log(num / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw
