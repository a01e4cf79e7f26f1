"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Classification builds no point: the plane's points, metric and orbits are
the geometry lab's (``geometry.PlaneGeometry``).  A boundary point is the
primitive integer form it is a root of (a QuadraticNumber), or None for
infinity; boundary_apply substitutes the inverse map into the form.  A
matrix M is stored as its primitive integer matrix s*M = (a, b, c, d), its
determinant checked once, where it is built (Matrix2.of); a product divides
only by the content that gcd(s1, s2)^2 bounds.  Classification (of the
Mobius action: M and -M are one map), fixed points and the boundary action
read a, b, c, d, s; tr = (a + d)/s:
  |tr| > 2  hyperbolic (PlaneHyperbolic): cosh(tau/2) = |a+d|/2s, boundary fixed
            points ((a-d) +- sqrt(D))/2c, the roots of c z^2 + (d-a) z - b
  |tr| = 2  parabolic unless +-identity: rejected as hypothesis_violation
  |tr| < 2  elliptic.  By Niven's theorem a rational trace has finite order
            only for |a+d| in {0, s} (orders 2 and 3: _power reduces n modulo
            it); any other rotation has infinite order, period None

The hypothesis check (parabolic_words) tags the steps from their tuples,
with no numpy, and each deeper level of the word tree at once: a stack of
2x2 integer matrices and a vector of s, each word's matrix its parent's
times its last step with no gcd.  The tag reads |a + d| against 2s, and
"b = c = 0, a = d" only on the words that reach it, both of which scaling
keeps.  The stack is int64 while every entry (s included) is below 2^30,
so that a sum of two products fits in 62 bits, and Python ints (dtype
object) from the level past that, whose largest entry is read only when a
bound on it (twice the previous level's times the steps') reaches 2^30."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .models import (
    ELLIPTIC,
    HYPERBOLIC,
    HYPOTHESIS_VIOLATION,
    IsometryClass,
    Owned,
    SpaceModel,
)
from .quadratic import QuadraticNumber

HALF_PLANE_ID = "half_plane"

# parabolic_words multiplies in int64 while every entry is below this
_INT64_BOUND = 2**30

_new = tuple.__new__


class Matrix2(NamedTuple):
    """A determinant-1 rational matrix M as its primitive integer matrix
    (a, b, c, d) = s*M, s >= 1 and a*d - b*c = s*s.  ``of`` alone checks the
    determinant; products and inverses are integer arithmetic, each at most
    one ``tuple.__new__``: the plane's payload on every hot path.  The
    content of a product A B divides h^2, h = gcd(s1, s2): over Z_p, A = U
    diag(1, s1^2) V (Smith form) and V B is primitive, so p divides it at
    most 2 v_p(s1) times, and likewise for B.  So a product with h = 1
    takes no gcd, and one with a right factor +-I only a sign."""

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
        a1, b1, c1, d1, s1 = self
        a2, b2, c2, d2, s2 = o
        if s2 == 1 and not b2 and not c2 and a2 == d2:  # o is +-I: a sign
            return self if a2 == 1 else _new(Matrix2, (-a1, -b1, -c1, -d1, s1))
        a, b = a1 * a2 + b1 * c2, a1 * b2 + b1 * d2
        c, d = c1 * a2 + d1 * c2, c1 * b2 + d1 * d2
        s, h = s1 * s2, math.gcd(s1, s2)
        if h > 1:  # the content divides gcd(s1, s2)^2 (see the class docstring)
            g = math.gcd(h * h, a, b, c, d)
            if g > 1:
                a, b, c, d, s = a // g, b // g, c // g, d // g, s // g
        return _new(Matrix2, (a, b, c, d, s))

    def inverse(self) -> "Matrix2":
        return _new(Matrix2, (self.d, -self.b, -self.c, self.a, self.s))

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
    is a square, else the roots of the form (c, d - a, -b), of discriminant
    D.  No float is computed but tau = 2 arccosh((a + d)/2s), for a reader."""

    a: int
    b: int
    c: int
    d: int
    s: int
    disc: int

    translation_length = property(lambda self: 2.0 * _acosh_ratio(self.a + self.d, 2 * self.s))
    fixed_plus = property(lambda self: self.fixed_points[0])
    fixed_minus = property(lambda self: self.fixed_points[1])

    @property
    def fixed_points(self) -> tuple[Owned, Owned]:
        """(attracting, repelling), both from one isqrt(D)."""
        a, b, c, d, s, disc = self
        if c == 0:  # infinity attracts when its eigenvalue a/s is the larger
            finite = QuadraticNumber.of((d - a, -b))
            plus, minus = (None, finite) if a > s else (finite, None)
        else:  # the + root carries the eigenvalue (t + sqrt(t^2 - 4))/2 > 1: attracting
            r = math.isqrt(disc)
            if r * r == disc:
                plus, minus = (QuadraticNumber.of((2 * c, d - a - e)) for e in (r, -r))
            else:
                plus, minus = (QuadraticNumber.of((c, d - a, -b), e) for e in (1, -1))
        return Owned(HALF_PLANE_ID, plus), Owned(HALF_PLANE_ID, minus)


class HalfPlaneModel(SpaceModel):
    """Boundary payloads are points of the real line, each the root of a
    primitive integer form (QuadraticNumbers), or None for infinity."""

    kind = "half_plane"

    def __init__(self):
        self.model_id = HALF_PLANE_ID

    def matrix(self, a, b, c, d) -> Owned:
        return self.own(Matrix2.of(a, b, c, d))

    def parse_word(self, text: str) -> Owned:
        """The matrix [[p/q, p/q], [p/q, p/q]], an entry p/q or p, as a tree reads its
        words; a denominator is read before its numerator: x/0 is a zero denominator."""
        entries = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
        if len(entries) != 4:
            raise ValueError(f"matrix needs 4 entries, got {len(entries)}")
        rationals = []
        for entry in entries:
            num, slash, den = entry.partition("/")
            try:
                q = int(den) if slash else 1
                if q == 0:
                    raise ValueError("zero denominator")
                rationals.append(Fraction(int(num), q))
            except ValueError as exc:
                raise ValueError(f"bad rational entry: {exc}") from None
        return self.matrix(*rationals)

    # the payload hooks of SpaceModel, and its compose bound here, which perfbench/layers.py wraps
    _mul, _inv, _one = staticmethod(Matrix2.__mul__), staticmethod(Matrix2.inverse), Matrix2.identity()
    compose = SpaceModel.compose

    def _power(self, p: Matrix2, n: int, size: int):
        """SpaceModel's, but a rotation of order 2 or 3 (s|tr| = 0 or s) takes no product: M^2 = -I
        at trace 0, M^3 = -I at trace 1 and +I at trace -1, so M^n = +-M^(r - 1), n + 1 = q order + r."""
        t = p.a + p.d
        if t and abs(t) != p.s:
            return SpaceModel._power(self, p, n, size)
        q, r = divmod(n + 1, 3 if t else 2)
        out = (p.inverse(), self._one, p)[r]
        if t >= 0 and q & 1:  # (M^order)^q = -I
            out = _new(Matrix2, (-out.a, -out.b, -out.c, -out.d, out.s))
        return out, 1 if r == 1 else size

    @staticmethod
    def _size(m: Matrix2) -> int:
        return max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)).bit_length()

    @staticmethod
    def _least_size(m: Matrix2, n: Matrix2) -> int:
        """A lower bound on the size of m n, from signs and bit lengths: an entry x y + u v with
        x, y nonzero and u v of x y's sign, or 0, has at least bl(x) + bl(y) - 1 bits, and the
        content, which divides gcd(s, s')^2, removes at most 2 bl(gcd(s, s')) of them."""
        least = 0
        for x, y, u, v in ((m.a, n.a, m.b, n.c), (m.a, n.b, m.b, n.d), (m.c, n.a, m.d, n.c), (m.c, n.b, m.d, n.d)):
            if x and y and (not (u and v) or x ^ y ^ u ^ v >= 0):
                least = max(least, x.bit_length() + y.bit_length() - 1)
        return least - 2 * math.gcd(m.s, n.s).bit_length()

    # -- classification -----------------------------------------------------

    def tag(self, iso: Owned) -> str:
        m: Matrix2 = self.require(iso)
        if m.is_proj_identity():
            return ELLIPTIC
        at, two = abs(m.a + m.d), 2 * m.s  # |tr M| against 2, scaled by s
        if at > two:
            return HYPERBOLIC
        return HYPOTHESIS_VIOLATION if at == two else ELLIPTIC

    def parabolic_words(self, generators: list[Owned], tree: list) -> tuple[tuple[int, int], ...]:
        """``tag`` on every word of the tree (see SpaceModel): level 0, the
        steps, from each image's tuple once (a step and its inverse share
        their trace), and each deeper level as one stacked product (see the
        module docstring), its parents' matrices repeated r - 1 times."""
        images = [self.require(g) for g in generators]
        bad = [i for i, m in enumerate(images) if abs(m.a + m.d) == 2 * m.s and not m.is_proj_identity()]
        found = [(0, j) for i in bad for j in (2 * i, 2 * i + 1)]
        if len(tree) < 2:
            return tuple(found) if tree else ()
        rows = [x for m in images for x in (m, m.inverse())]
        import numpy as np  # here, so that loading the checker or a depth-1 check loads no numpy

        top = step_top = max(map(abs, itertools.chain(*rows)))  # s included
        table = np.array(rows, dtype=np.int64 if top < _INT64_BOUND else object)
        level, s = steps, ss = table[:, :4].reshape(-1, 2, 2), table[:, 4]
        children = len(rows) - 1  # per word: every step but its inverse
        for n, last in enumerate(tree[1:], 1):
            level, s = level.repeat(children, 0) @ steps.take(last, 0), s.repeat(children) * ss.take(last)
            # each new entry is a sum of two products: read the true
            # largest entry only when this bound on it reaches the guard
            top *= 2 * step_top
            if level.dtype != object and top >= _INT64_BOUND:
                top = int(max(np.abs(level).max(), s.max()))
                if top >= _INT64_BOUND:
                    level, s, steps, ss = (x.astype(object) for x in (level, s, steps, ss))
            for j in (abs(level[:, 0, 0] + level[:, 1, 1]) == 2 * s).nonzero()[0].tolist():
                (a, b), (c, d) = level[j].tolist()
                if not (b == 0 and c == 0 and a == d):  # +-identity is elliptic
                    found.append((n, j))
        return tuple(found)

    def classify(self, iso: Owned) -> IsometryClass:
        tag = self.tag(iso)
        a, b, c, d, s = iso.payload
        if tag == HYPERBOLIC:
            if a + d < 0:
                a, b, c, d = -a, -b, -c, -d  # same Mobius action; normalize to trace > 2
            t = a + d
            return _new(IsometryClass, (HYPERBOLIC, None, _new(PlaneHyperbolic, (a, b, c, d, s, t * t - 4 * s * s))))
        if tag == HYPOTHESIS_VIOLATION:
            return IsometryClass(HYPOTHESIS_VIOLATION)
        # the order of the Mobius action: 1 for +-identity, and by Niven 2 or
        # 3 for s*|tr M| = 0 or s; any other rotation has infinite order
        t = abs(a + d)
        return IsometryClass(ELLIPTIC, period=1 if b == c == 0 and a == d else 2 if t == 0 else 3 if t == s else None)

    # -- boundary ----------------------------------------------------------

    def boundary_equal(self, p: Owned, q: Owned) -> bool:
        return self.require(p) == self.require(q)

    def boundary_apply(self, iso: Owned, b: Owned) -> Owned:
        """(a z + b)/(c z + d) on the form F that z is a root of: the image
        is a root of F(d w - b, -c w + a), whose leading coefficient F(d, -c)
        is 0 only for a rational z with cz + d = 0.  The map keeps the order
        of an irrational's two roots exactly when F(d, -c) has F's leading
        sign, so the root sign carries over and ``of`` flips it with F."""
        m: Matrix2 = self.require(iso)
        z: QuadraticNumber | None = self.require(b)
        a, bb, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        if z is None:
            return self.own(None if c == 0 else QuadraticNumber.of((c, -a)))
        if z.root:
            p, q, r = z.form
            form = (p * d * d - q * c * d + r * c * c, q * (a * d + bb * c) - 2 * (p * bb * d + r * a * c),
                    p * bb * bb - q * a * bb + r * a * a)
        else:
            p, q = z.form
            form = (p * d - q * c, q * a - p * bb)
        return self.own(QuadraticNumber.of(form, z.root) if form[0] else None)


def _acosh_ratio(num: int, den: int) -> float:
    """arccosh(num/den) for integers num >= den > 0, robust far beyond float
    range: orbits reach cosh values like 10**400, where arccosh c =
    ln(c + sqrt(c^2 - 1)) is ln c + ln 2 in floats, ln c from lowest terms."""
    try:
        return math.acosh(num / den)
    except OverflowError:
        c = Fraction(num, den)
        return math.log(c.numerator) - math.log(c.denominator) + math.log(2.0)
