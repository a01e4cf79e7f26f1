"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Points are (x, y) pairs with y > 0; coordinates are Fractions, or
QuadraticNumbers for fixed points of infinite-order rotations.  Matrices
are identified projectively with their negatives (-I acts trivially), so
rotation orders and classification are computed for the Mobius action,
not the matrix group.

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
from typing import Union

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
    TranslationLengthEstimate,
)
from .quadratic import QuadraticNumber, acosh_fraction, rational_sqrt

Coord = Union[Fraction, QuadraticNumber]

HALF_PLANE_ID = "half_plane"


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over the rationals with determinant exactly 1."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, Fraction):
                raise TypeError("matrix entries must be Fractions")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")

    @staticmethod
    def of(a, b, c, d) -> "Matrix2":
        return Matrix2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2.of(1, 0, 0, 1)

    def __mul__(self, o: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inverse(self) -> "Matrix2":
        return Matrix2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "Matrix2":
        return Matrix2(-self.a, -self.b, -self.c, -self.d)

    @property
    def trace(self) -> Fraction:
        return self.a + self.d

    def proj_equal(self, o: "Matrix2") -> bool:
        same = (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)
        return same or (self.a, self.b, self.c, self.d) == (-o.a, -o.b, -o.c, -o.d)

    def is_proj_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) in ((1, 0, 0, 1), (-1, 0, 0, -1))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


# boundary payload: a finite coordinate on the real line, or None for infinity
@dataclass(frozen=True)
class ProjectivePoint:
    finite: QuadraticNumber | None

    @property
    def is_infinity(self) -> bool:
        return self.finite is None

    def __str__(self):
        return "inf" if self.finite is None else str(self.finite)


INFINITY = ProjectivePoint(None)


def _as_quadratic(x: Coord) -> QuadraticNumber:
    if isinstance(x, QuadraticNumber):
        return x
    return QuadraticNumber(x)


class HalfPlaneModel(SpaceModel):
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
        a, b, c, d = m.entries()
        den = (c * x + d) ** 2 + (c * y) * (c * y)
        nx = (a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / den
        ny = y / den
        return self.point((nx, ny))

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.require_iso(first) * self.require_iso(second))

    def invert(self, iso: Isometry) -> Isometry:
        return self.isometry(self.require_iso(iso).inverse())

    def identity(self) -> Isometry:
        return self.isometry(Matrix2.identity())

    def iso_equal(self, a: Isometry, b: Isometry) -> bool:
        return self.require_iso(a).proj_equal(self.require_iso(b))

    # -- classification -----------------------------------------------------

    def projective_order(self, m: Matrix2) -> int | None:
        """Order of the Mobius action when finite (rational-trace rotations)."""
        if m.is_proj_identity():
            return 1
        t = abs(m.trace)
        if t == 0:
            return 2
        if t == 1:
            return 3
        return None

    def tag(self, iso: Isometry) -> str:
        m: Matrix2 = self.require_iso(iso)
        if m.is_proj_identity():
            return ELLIPTIC
        at = abs(m.trace)
        if at > 2:
            return HYPERBOLIC
        return HYPOTHESIS_VIOLATION if at == 2 else ELLIPTIC

    def classify(self, iso: Isometry) -> IsometryClass:
        tag = self.tag(iso)
        m: Matrix2 = iso.payload
        if tag == HYPERBOLIC:
            return self._classify_hyperbolic(m)
        if tag == HYPOTHESIS_VIOLATION:
            return IsometryClass.make_violation("parabolic: |trace| = 2 and not +-identity")
        return self._classify_elliptic(m)  # +-identity: period 1

    def _classify_hyperbolic(self, m: Matrix2) -> IsometryClass:
        if m.trace < 0:
            m = m.neg()  # same Mobius action; normalize to trace > 2
        t = m.trace
        tau = 2.0 * acosh_fraction(t / 2)
        tl = TranslationLengthEstimate(
            value=tau, n_used=1, exact=True, lower_bound_t=tau, exact_cosh_half=t / 2
        )
        a, b, c, d = m.entries()
        if c == 0:
            # fixes infinity (eigenvalue a) and b/(d-a)
            finite = ProjectivePoint(QuadraticNumber(b / (d - a)))
            plus, minus = (INFINITY, finite) if a > 1 else (finite, INFINITY)
        else:
            disc = t * t - 4
            root = rational_sqrt(disc)
            if root is not None:
                plus = ProjectivePoint(QuadraticNumber((a - d + root) / (2 * c)))
                minus = ProjectivePoint(QuadraticNumber((a - d - root) / (2 * c)))
            else:
                plus = ProjectivePoint(QuadraticNumber((a - d) / (2 * c), Fraction(1, 2) / c, disc))
                minus = ProjectivePoint(QuadraticNumber((a - d) / (2 * c), Fraction(-1, 2) / c, disc))
            # plus carries eigenvalue (t + sqrt(disc))/2 > 1: attracting
        return IsometryClass.make_hyperbolic(tl, self.boundary(plus), self.boundary(minus))

    def _classify_elliptic(self, m: Matrix2) -> IsometryClass:
        period = self.projective_order(m)
        if period is not None:
            base = self.basepoint
            orbit = [base]
            cur = base
            iso = self.isometry(m)
            for _ in range(period - 1):
                cur = self.apply(iso, cur)
                orbit.append(cur)
            diam_cosh = max(
                (self.cosh_distance(p, q) for i, p in enumerate(orbit) for q in orbit[i + 1 :]),
                default=Fraction(1),
            )
            if isinstance(diam_cosh, QuadraticNumber):
                diam = Length(math.acosh(max(1.0, float(diam_cosh))), exact_cosh=diam_cosh)
            else:
                diam = Length(acosh_fraction(diam_cosh), exact_cosh=diam_cosh)
            return IsometryClass.make_elliptic(period, base, diam)
        # infinite-order rotation: exact fixed point, one-element orbit
        fp = self.elliptic_fixed_point(m)
        return IsometryClass.make_elliptic(None, fp, Length(0.0, exact_cosh=Fraction(1)))

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
        return self.boundary(INFINITY)

    def boundary_finite(self, value) -> BoundaryPoint:
        return self.boundary(ProjectivePoint(_as_quadratic(value if isinstance(value, (QuadraticNumber, Fraction)) else Fraction(value))))

    def boundary_equal(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        bp: ProjectivePoint = self.require_boundary(p)
        bq: ProjectivePoint = self.require_boundary(q)
        if bp.is_infinity or bq.is_infinity:
            return bp.is_infinity and bq.is_infinity
        return bp.finite == bq.finite

    def boundary_apply(self, iso: Isometry, b: BoundaryPoint) -> BoundaryPoint:
        m: Matrix2 = self.require_iso(iso)
        pp: ProjectivePoint = self.require_boundary(b)
        a, bb, c, d = m.entries()
        if pp.is_infinity:
            if c == 0:
                return self.boundary(INFINITY)
            return self.boundary(ProjectivePoint(QuadraticNumber(a / c)))
        z = pp.finite
        den = c * z + d
        if den == 0:
            return self.boundary(INFINITY)
        return self.boundary(ProjectivePoint((a * z + bb) / den))

    # -- extended Gromov products (diagnostic floats) ------------------------

    def _floats(self, p: Point) -> tuple[float, float]:
        x, y = self.require_point(p)
        return float(x), float(y)

    def distance_float(self, p: Point, q: Point) -> float:
        return self.distance(p, q).value

    def gromov_boundary_point(self, b: BoundaryPoint, y: Point, base: Point) -> float:
        """<xi|y>_w = ln(|xi-w| / |xi-y|) + (1/2) ln(Im y / Im w) + d(y,w)/2."""
        pp: ProjectivePoint = self.require_boundary(b)
        yx, yy = self._floats(y)
        wx, wy = self._floats(base)
        dyw = self.distance_float(y, base)
        if pp.is_infinity:
            return 0.5 * math.log(yy / wy) + 0.5 * dyw
        xi = float(pp.finite)
        num = math.hypot(xi - wx, wy)
        den = math.hypot(xi - yx, yy)
        return math.log(num / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw

    def gromov_boundary_pair(self, b1: BoundaryPoint, b2: BoundaryPoint, base: Point) -> float:
        """<xi|eta>_w = ln(|xi-w| |eta-w| / (|xi-eta| Im w)); inf when equal."""
        p1: ProjectivePoint = self.require_boundary(b1)
        p2: ProjectivePoint = self.require_boundary(b2)
        if self.boundary_equal(b1, b2):
            return math.inf
        wx, wy = self._floats(base)
        if p1.is_infinity or p2.is_infinity:
            fin = p2 if p1.is_infinity else p1
            xi = float(fin.finite)
            return math.log(math.hypot(xi - wx, wy) / wy)
        x1 = float(p1.finite)
        x2 = float(p2.finite)
        sep = abs(x1 - x2)
        if sep == 0.0:
            # distinct quadratic values collapsing in float: resolve minimally
            sep = 1e-300
        return math.log(math.hypot(x1 - wx, wy) * math.hypot(x2 - wx, wy) / (sep * wy))
