"""The hyperbolic plane as the upper half-plane acted on by exact
determinant-1 rational matrices.

Classification builds no point: the plane's points, metric and orbits are
the geometry lab's (``geometry.PlaneGeometry``).  A boundary point is the
primitive integer form it is a root of (a QuadraticNumber), or None for
infinity; boundary_apply substitutes the inverse map into the form.  A
matrix M is stored as its primitive integer matrix s*M = (a, b, c, d), its
determinant checked once, where it is built (Matrix2.of).  Classification
(of the Mobius action: M and -M are one map), fixed points and the
boundary action read a, b, c, d, s; tr = (a + d)/s:
  |tr| > 2  hyperbolic (PlaneHyperbolic): cosh(tau/2) = |a+d|/2s, boundary fixed
            points ((a-d) +- sqrt(D))/2c, the roots of c z^2 + (d-a) z - b
  |tr| = 2  parabolic unless +-identity: rejected as hypothesis_violation
  |tr| < 2  elliptic.  By Niven's theorem a rational trace has finite order
            only for |a+d| in {0, s} (orders 2 and 3); any other rotation
            has infinite order, and its class keeps the period None

The hypothesis check (parabolic_words) tags the steps from their tuples,
with no numpy, and each deeper level of the reduced-word tree at once.  The
tree depends only on the number of steps r, so its index arrays (each
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
    IsometryClass,
    Owned,
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

    # the payload hooks of SpaceModel
    _mul, _inv, _one = staticmethod(Matrix2.__mul__), staticmethod(Matrix2.inverse), Matrix2.identity()

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

    def compose(self, first: Owned, second: Owned) -> Owned:
        return self.own(self.require(first) * self.require(second))

    # -- classification -----------------------------------------------------

    def tag(self, iso: Owned) -> str:
        m: Matrix2 = self.require(iso)
        if m.is_proj_identity():
            return ELLIPTIC
        at, two = abs(m.a + m.d), 2 * m.s  # |tr M| against 2, scaled by s
        if at > two:
            return HYPERBOLIC
        return HYPOTHESIS_VIOLATION if at == two else ELLIPTIC

    def parabolic_words(self, generators: list[Owned], depth: int) -> tuple[tuple[int, ...], ...]:
        """``tag`` on every reduced word up to depth (see SpaceModel).  The
        steps are each generator image, then its inverse; level 0, the steps
        themselves, is tagged from their tuples, and deeper levels one at a
        time as a stack of unreduced matrices (see the module docstring),
        the paths of the failing words rebuilt from the word tree."""
        rows = []
        for m in map(self.require, generators):
            rows += (m, m.inverse())
        found = [(j,) for j, m in enumerate(rows) if abs(m.a + m.d) == 2 * m.s and not m.is_proj_identity()]
        if depth < 2:
            return tuple(found) if depth else ()
        import numpy as np  # here, so that loading the checker or a depth-1 check loads no numpy

        top = step_top = max(map(abs, itertools.chain(*rows)))  # s included
        table = np.array(rows, dtype=np.int64 if top < _INT64_BOUND else object)
        level, s = steps, ss = table[:, :4].reshape(-1, 2, 2), table[:, 4]
        tree = _word_tree(len(rows), depth)
        for n in range(1, depth):
            parent, last = tree[n]
            level, s = level.take(parent, 0) @ steps.take(last, 0), s.take(parent) * ss.take(last)
            # each new entry is a sum of two products: read the true
            # largest entry only when this bound on it reaches the guard
            top *= 2 * step_top
            if level.dtype != object and top >= _INT64_BOUND:
                top = int(max(np.abs(level).max(), s.max()))
                if top >= _INT64_BOUND:
                    level, s, steps, ss = (x.astype(object) for x in (level, s, steps, ss))
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

    def classify(self, iso: Owned) -> IsometryClass:
        tag = self.tag(iso)
        m: Matrix2 = iso.payload
        if tag == HYPERBOLIC:
            return self._classify_hyperbolic(m)
        if tag == HYPOTHESIS_VIOLATION:
            return IsometryClass(HYPOTHESIS_VIOLATION)
        # the order of the Mobius action: 1 for +-identity, and by Niven 2 or
        # 3 for s*|tr M| = 0 or s; any other rotation has infinite order
        t = abs(m.a + m.d)
        return IsometryClass(ELLIPTIC, period=1 if m.is_proj_identity() else 2 if t == 0 else 3 if t == m.s else None)

    def _classify_hyperbolic(self, m: Matrix2) -> IsometryClass:
        a, b, c, d, s = m
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d  # same Mobius action; normalize to trace > 2
        t = a + d
        return IsometryClass(HYPERBOLIC, hyperbolic=_new(PlaneHyperbolic, (a, b, c, d, s, t * t - 4 * s * s)))

    # -- boundary ----------------------------------------------------------

    def boundary_equal(self, p: Owned, q: Owned) -> bool:
        return self.require(p) == self.require(q)

    def fixes(self, iso: Owned, b: Owned) -> bool:
        """+-identity fixes every boundary point and a rotation, |a + d| < 2s,
        none: its fixed points are a conjugate pair off the real line."""
        m: Matrix2 = self.require(iso)
        self.require(b)
        if m.is_proj_identity():
            return True
        if abs(m.a + m.d) < 2 * m.s:
            return False
        return super().fixes(iso, b)

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
