"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Points are (x, y) pairs of Fractions with y > 0: classification builds
none, so every point is a sample, an orbit point or an internal point of
the diagnostics, and all of them are rational.  Boundary points are
QuadraticNumbers u + v*sqrt(w), or None for infinity; boundary_apply writes
its map out over these parts, as QuadraticNumber has no arithmetic.  A
matrix M is stored as its primitive integer matrix s*M = (a, b, c, d), its
determinant checked once, where it is built (Matrix2.of).  Classification
(of the Mobius action: M and -M are one map), fixed points and the
boundary action read a, b, c, d, s; tr = (a + d)/s:
  |tr| > 2  hyperbolic (PlaneHyperbolic): cosh(tau/2) = |a+d|/2s, boundary fixed
            points ((a-d) +- sqrt(D))/2c, roots of c z^2 + (d-a) z - b
  |tr| = 2  parabolic unless +-identity: rejected as hypothesis_violation
  |tr| < 2  elliptic.  By Niven's theorem a rational trace has finite order
            only for |a+d| in {0, s} (orders 2 and 3); any other rotation
            has infinite order, and its class keeps the period None

The hypothesis check's tag of every reduced word up to a length
(parabolic_words) runs one level of the word tree at a time.  The tree's
shape depends only on the number of steps r, so its index arrays (each
word's parent and last step, in the order of words.reduced_words) are built
once per r and process, and grown as deeper calls ask.  A level is a stack
of 2x2 integer matrices and a vector of s, and the next level is one
stacked product, each word's matrix its parent's times one step with no
gcd: the tag reads |a + d| against 2s, and "b = c = 0, a = d" only on the
words that reach it, both of which scaling keeps.  The arrays are int64
while every entry of the level (s included) and of the steps is below 2^30,
so that a sum of two products fits in 62 bits, and Python ints (dtype
object) from the level past that.  A level's largest entry is read only
when a bound on it (twice the previous level's times the steps') reaches
2^30."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

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
from .quadratic import QuadraticNumber

HALF_PLANE_ID = "half_plane"

# parabolic_words multiplies in int64 while every entry is below this
_INT64_BOUND = 2**30

# the reduced-word tree on r steps, by r: see _word_tree
_WORD_TREES: dict[int, list] = {}

_new = tuple.__new__


class Matrix2(NamedTuple):
    """A determinant-1 rational matrix M as its primitive integer matrix
    (a, b, c, d) = s*M, s >= 1 and a*d - b*c = s*s.  ``of`` alone checks the
    determinant; products and inverses are integer arithmetic.
    A plain tuple, so a product is four integer products and one
    ``tuple.__new__``: the plane's payload on every hot path."""

    a: int
    b: int
    c: int
    d: int
    s: int

    @staticmethod
    def of(a, b, c, d) -> "Matrix2":
        q = [x if type(x) in (int, Fraction) else Fraction(x) for x in (a, b, c, d)]
        # s*M is integer, so det M = 1 reads a*d - b*c = s^2 in integers; s*M is
        # then primitive: a prime p dividing it divides s^2, and s/p clears M
        s = math.lcm(*(x.denominator for x in q))
        a, b, c, d = (x.numerator * (s // x.denominator) for x in q)
        if a * d - b * c != s * s:
            raise ValueError(f"determinant is {Fraction(a * d - b * c, s * s)}, must be exactly 1")
        return _new(Matrix2, (a, b, c, d, s))

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1, 1)

    def __mul__(self, o: "Matrix2") -> "Matrix2":
        a1, b1, c1, d1, s = self
        a2, b2, c2, d2, s2 = o
        a, b = a1 * a2 + b1 * c2, a1 * b2 + b1 * d2
        c, d = c1 * a2 + d1 * c2, c1 * b2 + d1 * d2
        s *= s2
        if s > 1:  # the content divides s, since the determinant is s^2
            g = math.gcd(a, b, c, d)
            if g > 1:
                a, b, c, d, s = a // g, b // g, c // g, d // g, s // g
        return _new(Matrix2, (a, b, c, d, s))

    def inverse(self) -> "Matrix2":
        return Matrix2(self.d, -self.b, -self.c, self.a, self.s)

    def is_proj_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """M itself as Fractions: a view for readers; no decision reads it."""
        return tuple(Fraction(x, self.s) for x in (self.a, self.b, self.c, self.d))


class PlaneHyperbolic(NamedTuple):
    """A hyperbolic class (a plain tuple, as Matrix2 is): the primitive
    integer matrix (a, b, c, d) = s*M of its Mobius map, signed so that
    a + d > 2s, and D = disc = (a + d)^2 - 4s^2.
    The fixed points are built from one isqrt(D) when read: rational when D
    is a square, else the parts (a - d)/2c, +-s/2c and D/s^2.  No float is
    computed but tau = 2 arccosh((a + d)/2s), for a reader that asks."""

    a: int
    b: int
    c: int
    d: int
    s: int
    disc: int

    @property
    def translation_length(self) -> Length:
        half = Fraction(self.a + self.d, 2 * self.s)  # cosh tau = 2 half^2 - 1
        return Length(2.0 * acosh_fraction(half), exact_cosh=2 * half * half - 1)

    fixed_plus = property(lambda self: self._fixed(1))
    fixed_minus = property(lambda self: self._fixed(-1))

    def _fixed(self, sign: int) -> BoundaryPoint:
        a, b, c, d, s, disc = self
        if c == 0:  # infinity attracts when its eigenvalue a/s is the larger
            z = None if (a > s) == (sign > 0) else QuadraticNumber(Fraction(b, d - a))
        else:  # the + root carries the eigenvalue (t + sqrt(t^2 - 4))/2 > 1: attracting
            r = math.isqrt(disc)
            if r * r == disc:
                z = QuadraticNumber(Fraction(a - d + sign * r, 2 * c))
            else:
                x, y = Fraction(a - d, 2 * c), Fraction(sign * s, 2 * c)
                z = QuadraticNumber.of_parts(x, y, Fraction(disc, s * s))
        return BoundaryPoint(HALF_PLANE_ID, z)


class HalfPlaneModel(SpaceModel):
    """Boundary payloads are finite coordinates on the real line
    (QuadraticNumbers), or None for the point at infinity."""

    kind = "half_plane"

    def __init__(self):
        self.model_id = HALF_PLANE_ID
        self.basepoint = self.point((Fraction(0), Fraction(1)))

    def point_xy(self, x, y) -> Point:
        """The point (x, y) for rationals x and y > 0."""
        x, y = Fraction(x), Fraction(y)
        if y <= 0:
            raise ValueError("half-plane points need y > 0")
        return self.point((x, y))

    def matrix(self, a, b, c, d) -> Isometry:
        return self.isometry(Matrix2.of(a, b, c, d))

    # -- metric -----------------------------------------------------------

    def cosh_distance(self, p: Point, q: Point) -> Fraction:
        """cosh d(p, q) = ((x1 - x2)^2 + y1^2 + y2^2) / (2 y1 y2), exactly,
        with the coordinates put over one common denominator, so the sum is
        integer arithmetic."""
        x1, y1 = self.require_point(p)
        x2, y2 = self.require_point(q)
        den = math.lcm(x1.denominator, x2.denominator, y1.denominator, y2.denominator)
        dx = x1.numerator * (den // x1.denominator) - x2.numerator * (den // x2.denominator)
        r1, r2 = y1.numerator * (den // y1.denominator), y2.numerator * (den // y2.denominator)
        return Fraction(dx * dx + r1 * r1 + r2 * r2, 2 * r1 * r2)

    def distance(self, x: Point, y: Point) -> Length:
        ch = self.cosh_distance(x, y)
        return Length(acosh_fraction(ch), exact_cosh=ch)

    def _point_matrix(self, p: Point) -> tuple[int, int, int]:
        """(Y, X, D) for the integer matrix [[Y, X], [0, D]] that maps i to
        the point p = (X + Y i)/D."""
        x, y = self.require_point(p)
        den = math.lcm(x.denominator, y.denominator)
        return y.numerator * (den // y.denominator), x.numerator * (den // x.denominator), den

    def pairwise_distances(self, points: list[Point]):
        """d(p, q) for every two points, row p, column q, as a
        float array: the floats of ``distance``, from cosh = ((X - X')^2 +
        Y^2 + Y'^2) / 2YY' over one common denominator of all the
        coordinates."""
        import numpy as np  # here, so that loading the checker loads no numpy

        mats = [self._point_matrix(p) for p in points]
        den = math.lcm(*(m[2] for m in mats))
        xs = [x * (den // d) for _, x, d in mats]
        ys = [y * (den // d) for y, _, d in mats]
        rows = [[0.0] * len(mats) for _ in mats]
        for i, (x, y) in enumerate(zip(xs, ys)):
            for j in range(i + 1, len(mats)):
                dx, yj = x - xs[j], ys[j]
                rows[i][j] = rows[j][i] = _acosh_ratio(dx * dx + y * y + yj * yj, 2 * y * yj)
        return np.array(rows)

    # -- action -----------------------------------------------------------

    def apply(self, iso: Isometry, p: Point) -> Point:
        """M (x + iy): with den = |c (x + iy) + d|^2 the image's y is
        y s^2 / den, as ad - bc = s^2."""
        m: Matrix2 = self.require_iso(iso)
        x, y = self.require_point(p)
        a, b, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        y2 = y * y
        den = (c * x + d) ** 2 + c * c * y2
        nx = (a * c * (x * x + y2) + (a * d + b * c) * x + b * d) / den
        return self.point((nx, y * (m.s * m.s) / den))

    # the payload hooks of SpaceModel
    _mul, _inv, _one = staticmethod(Matrix2.__mul__), staticmethod(Matrix2.inverse), Matrix2.identity()

    @staticmethod
    def _size(m: Matrix2) -> int:
        return max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)).bit_length()

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.require_iso(first) * self.require_iso(second))

    # -- classification -----------------------------------------------------

    def tag(self, iso: Isometry) -> str:
        m: Matrix2 = self.require_iso(iso)
        if m.is_proj_identity():
            return ELLIPTIC
        at, two = abs(m.a + m.d), 2 * m.s  # |tr M| against 2, scaled by s
        if at > two:
            return HYPERBOLIC
        return HYPOTHESIS_VIOLATION if at == two else ELLIPTIC

    def parabolic_words(self, generators: list[Isometry], depth: int) -> tuple[tuple[int, ...], ...]:
        """``tag`` on every reduced word up to depth (see SpaceModel), one
        level at a time as a stack of unreduced matrices (see the module
        docstring).  The steps are each generator image, then its inverse;
        the paths of the failing words are rebuilt from the word tree."""
        import numpy as np  # here, so that loading the checker loads no numpy

        rows = []
        for m in map(self.require_iso, generators):
            rows += (m, m.inverse())
        top = step_top = max(map(abs, itertools.chain(*rows)))  # s included
        table = np.array(rows, dtype=np.int64 if top < _INT64_BOUND else object)
        steps, ss = table[:, :4].reshape(-1, 2, 2), table[:, 4]
        tree = _word_tree(len(rows), depth)
        found = []
        for n, (parent, last) in enumerate(tree):
            if n:
                level, s = level.take(parent, 0) @ steps.take(last, 0), s.take(parent) * ss.take(last)
                # each new entry is a sum of two products: read the true
                # largest entry only when this bound on it reaches the guard
                top *= 2 * step_top
                if level.dtype != object and top >= _INT64_BOUND:
                    top = int(max(np.abs(level).max(), s.max()))
                    if top >= _INT64_BOUND:
                        level, s, steps, ss = (x.astype(object) for x in (level, s, steps, ss))
            else:
                level, s = steps, ss
            for j in (abs(level[:, 0, 0] + level[:, 1, 1]) == 2 * s).nonzero()[0].tolist():
                (a, b), (c, d) = level[j].tolist()
                if b == 0 and c == 0 and a == d:
                    continue  # +-identity: elliptic
                path = []
                for k in range(n, -1, -1):
                    path.append(int(tree[k][1][j]))
                    j = tree[k][0][j]
                found.append(tuple(reversed(path)))
        return tuple(found)

    def classify(self, iso: Isometry) -> IsometryClass:
        tag = self.tag(iso)
        m: Matrix2 = iso.payload
        if tag == HYPERBOLIC:
            return self._classify_hyperbolic(m)
        if tag == HYPOTHESIS_VIOLATION:
            return IsometryClass(HYPOTHESIS_VIOLATION)
        # the order of the Mobius action: 1 for +-identity, and by Niven 2 or
        # 3 for s*|tr M| = 0 or s; any other rotation has infinite order
        t = abs(m.a + m.d)
        return IsometryClass.make_elliptic(1 if m.is_proj_identity() else 2 if t == 0 else 3 if t == m.s else None)

    def _classify_hyperbolic(self, m: Matrix2) -> IsometryClass:
        a, b, c, d, s = m
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d  # same Mobius action; normalize to trace > 2
        t = a + d
        return IsometryClass(HYPERBOLIC, hyperbolic=_new(PlaneHyperbolic, (a, b, c, d, s, t * t - 4 * s * s)))

    # -- boundary ----------------------------------------------------------

    def boundary_equal(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        bp: QuadraticNumber | None = self.require_boundary(p)
        bq: QuadraticNumber | None = self.require_boundary(q)
        if bp is None or bq is None:
            return bp is bq
        return bp == bq

    def fixes(self, iso: Isometry, b: BoundaryPoint) -> bool:
        """+-identity fixes every boundary point and a rotation, |a + d| < 2s,
        none: its fixed points are a conjugate pair off the real line."""
        m: Matrix2 = self.require_iso(iso)
        self.require_boundary(b)
        if m.is_proj_identity():
            return True
        if abs(m.a + m.d) < 2 * m.s:
            return False
        return super().fixes(iso, b)

    def boundary_apply(self, iso: Isometry, b: BoundaryPoint) -> BoundaryPoint:
        """(a z + b) / (c z + d) for z = u + v sqrt(w): with p = cu + d,
        q = cv and N = p^2 - q^2 w, times the conjugate p - q sqrt(w) over N
        it is ((au + b) p - a v q w) / N + (v s^2 / N) sqrt(w), as
        ad - bc = s^2.  N = 0 only for a rational z with cz + d = 0."""
        m: Matrix2 = self.require_iso(iso)
        z: QuadraticNumber | None = self.require_boundary(b)
        a, bb, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        if z is None:
            return self.boundary(None if c == 0 else QuadraticNumber(Fraction(a, c)))
        u, v, w = z.a, z.b, z.d
        p, q = c * u + d, c * v
        n = p * p - q * q * w
        if n == 0:
            return self.boundary(None)
        return self.boundary(QuadraticNumber(((a * u + bb) * p - a * v * q * w) / n, v * (m.s * m.s) / n, w))

    # -- extended Gromov products (diagnostic floats) ------------------------

    def _floats(self, p: Point) -> tuple[float, float]:
        x, y = self.require_point(p)
        return float(x), float(y)

    def gromov_boundary_point(self, b: BoundaryPoint, y: Point, base: Point) -> float:
        pp: QuadraticNumber | None = self.require_boundary(b)
        yx, yy = self._floats(y)
        wx, wy = self._floats(base)
        dyw = self.distance(y, base).value
        xi = None if pp is None else float(pp)
        return _boundary_product(xi, None if xi is None else math.hypot(xi - wx, wy), wy, yx, yy, dyw)

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
        xi_w = None if xi is None else math.hypot(xi - wx, wy)  # once, not per point and step
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
            return _boundary_product(xi, xi_w, wy, yx, yy, dyw)

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


def acosh_fraction(c: Fraction) -> float:
    """arccosh of an exact rational c >= 1; see _acosh_ratio."""
    return _acosh_ratio(c.numerator, c.denominator)


def _acosh_ratio(num: int, den: int) -> float:
    """arccosh(num/den) for integers num >= den > 0, robust far beyond float
    range: orbits reach cosh values like 10**400, where arccosh c =
    ln(c + sqrt(c^2 - 1)) is ln c + ln 2 in floats, ln c from lowest terms."""
    try:
        return math.acosh(num / den)
    except OverflowError:
        c = Fraction(num, den)
        return math.log(c.numerator) - math.log(c.denominator) + math.log(2.0)


def _boundary_product(xi, xi_w, wy: float, yx: float, yy: float, dyw: float) -> float:
    """<xi|y>_w = ln(|xi-w| / |xi-y|) + (1/2) ln(Im y / Im w) + d(y,w)/2 in
    floats, xi None for the point at infinity; xi_w is |xi-w| = hypot(xi -
    Re w, Im w), read by the callers once per base."""
    if xi is None:
        return 0.5 * math.log(yy / wy) + 0.5 * dyw
    den = math.hypot(xi - yx, yy)
    if den == 0.0:
        return math.inf  # y has reached xi in floats
    return math.log(xi_w / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw


def _word_tree(r: int, depth: int) -> list:
    """The first depth levels of the tree of reduced words on r steps, step
    j ^ 1 the inverse of step j: level n holds the (parent, last) index
    arrays of the words of length n + 1 in the order of words.reduced_words,
    the parent's index in level n - 1 (0, the empty word, on level 0) and
    the last step.  Read-only, kept per r and grown only as deeper calls
    ask; check_hypotheses bounds the depth, so no level passes
    MAX_HYPOTHESIS_PAIRS words."""
    import numpy as np

    levels = _WORD_TREES.setdefault(r, [])
    while len(levels) < depth:
        if levels:
            prev = levels[-1][1]
            parent = np.repeat(np.arange(len(prev)), r)
            last = np.tile(np.arange(r), len(prev))
            keep = last != prev[parent] ^ 1
            parent, last = parent[keep], last[keep]
        else:
            parent, last = np.zeros(r, dtype=np.intp), np.arange(r)
        parent.flags.writeable = last.flags.writeable = False
        levels.append((parent, last))
    return levels[:depth]
