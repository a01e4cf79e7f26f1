"""Tree models: Bass-Serre trees of Z/m * Z/n and Cayley trees of free groups.

Both models are exact.  Vertices are canonical labels (reduced words; for
Bass-Serre trees, coset representatives plus a vertex type), and boundary
points are eventually-periodic reduced rays (prefix, repeating word).
``TreeModel`` derives the whole metric (distance, median, geodesic, root
path, internal points) in integers from three hooks on vertex labels that
each model provides: ``_depth``, ``_meet_depth`` and ``_ancestor``.  A BFS
ball of configurable radius is materialized for enumeration and serves as
an independent oracle: ``bfs_distance`` recomputes metric facts by graph
search over each model's own ``_neighbors`` and raises NotInBall outside
the materialized region.

Bass-Serre conventions for G = Z/m * Z/n = <s> * <t>: syllables are
(factor, exponent) with factor 0 for s and 1 for t, exponents reduced mod
the factor order into 1..order-1 and adjacent equal factors merged.  The
tree has A-vertices (cosets of <s>; canonical word ends in a t-syllable or
is empty) and B-vertices (cosets of <t>; word ends in an s-syllable or is
empty), joined by an edge per group element.  An element is elliptic iff
its cyclic syllable reduction has length <= 1 (it is conjugate into a
factor) and hyperbolic otherwise, with translation length the cyclic
syllable length.  On the Cayley tree the group acts freely, so only the
identity is elliptic and the translation length of a nontrivial word is
its cyclic letter length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInBall
from .models import (
    ELLIPTIC,
    HYPERBOLIC,
    BoundaryPoint,
    Isometry,
    IsometryClass,
    Length,
    Point,
    SpaceModel,
    TranslationLengthEstimate,
)
from .words import collect_powers, format_powers, parse_powers

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"  # Cayley letter i is named _LETTER_NAMES[i - 1]


@dataclass(frozen=True)
class RayDescriptor:
    """A boundary point: the reduced infinite word prefix . period^infinity."""

    prefix: tuple
    period: tuple

    def __str__(self):
        return f"({''.join(map(str, self.prefix)) or 'e'}, {''.join(map(str, self.period))})"


def _int_length(n: int) -> Length:
    return Length(float(n), exact_value=Fraction(n))


class TreeModel(SpaceModel):
    """Shared machinery; units are letters (Cayley) or syllables (Bass-Serre)."""

    ball_radius: int

    # Subclasses provide, on words: normal_form, multiply, invert_word,
    # cyclic_reduce and core_tag (the exact tag of a cyclic core), and compose
    # and classify, which perfbench/layers.py wraps per class.  On vertex
    # labels, the three hooks the whole metric is derived from:
    #   _depth(v)          distance from the basepoint
    #   _meet_depth(u, v)  depth of the last vertex the root paths share
    #   _ancestor(v, k)    the vertex at depth k on v's root path
    # and, for the ball and the BFS oracle alone, _neighbors(v) (adjacency
    # from the tree's own definition) and _degrees (the vertex degrees at
    # even and at odd depth).  _vertex_from_units(units) is the vertex a
    # reduced word ends at.

    def word(self, units) -> Isometry:
        return self.isometry(self.normal_form(tuple(units)))

    def identity(self) -> Isometry:
        return self.isometry(())

    def invert(self, iso: Isometry) -> Isometry:
        return self.isometry(self.invert_word(self.require_iso(iso)))

    def iso_equal(self, a: Isometry, b: Isometry) -> bool:
        return self.require_iso(a) == self.require_iso(b)

    def tag(self, iso: Isometry) -> str:
        return self.core_tag(self.cyclic_reduce(self.require_iso(iso))[1])

    def _hyperbolic(self, u: tuple, v: tuple) -> IsometryClass:
        """The class of u . v . u^-1 for cyclically reduced v that is not
        conjugate into a vertex stabilizer: translation length |v|, axis
        from the ray u . v^inf to the ray u . v^-inf."""
        tau = len(v)
        tl = TranslationLengthEstimate(
            value=float(tau), n_used=1, exact=True, lower_bound_t=float(tau), exact_value=Fraction(tau)
        )
        return IsometryClass.make_hyperbolic(tl, self.ray(u, v), self.ray(u, self.invert_word(v)))

    # -- the metric, from depth, meet depth and ancestor ------------------------

    def _dist(self, u, v) -> int:
        return self._depth(u) + self._depth(v) - 2 * self._meet_depth(u, v)

    def _along(self, u, v, k: int, t: int):
        """The vertex at distance t from u on the geodesic [u, v], whose root
        paths meet at depth k: up from u to the meet, then down towards v."""
        du = self._depth(u)
        if t <= du - k:
            return self._ancestor(u, du - t)
        return self._ancestor(v, t - du + 2 * k)

    def distance(self, x: Point, y: Point) -> Length:
        return _int_length(self._dist(self.require_point(x), self.require_point(y)))

    def gromov_exact(self, x: Point, y: Point, w: Point) -> Fraction:
        dxw = self.distance(x, w).exact_value
        dyw = self.distance(y, w).exact_value
        dxy = self.distance(x, y).exact_value
        return Fraction(dxw + dyw - dxy, 2)

    def root_path(self, p: Point) -> list[Point]:
        """Vertices from the basepoint to p."""
        v = self.require_point(p)
        return [self.point(self._ancestor(v, k)) for k in range(self._depth(v) + 1)]

    def geodesic(self, x: Point, y: Point) -> list[Point]:
        u, v = self.require_point(x), self.require_point(y)
        k = self._meet_depth(u, v)
        return [self.point(self._along(u, v, k, t)) for t in range(self._dist(u, v) + 1)]

    def median(self, x: Point, y: Point, z: Point) -> Point:
        """The deepest of the three pairwise meets (the other two coincide)."""
        u, v, w = (self.require_point(p) for p in (x, y, z))
        meets = [(self._meet_depth(a, b), a) for a, b in ((u, v), (v, w), (w, u))]
        k, a = max(meets, key=lambda meet: meet[0])
        return self.point(self._ancestor(a, k))

    def internal_points(self, x: Point, y: Point, z: Point) -> tuple[tuple[Point, Point, Point], Length]:
        """The internal points of the triangle xyz on its sides [y, z], [z, x]
        and [x, y], and the insize: the largest distance between two of them.

        Each point is placed on its side at the Gromov-product distance from
        the side's first vertex (<x|z>_y on [y, z], and so on round), in
        exact integers; nothing assumes that the three coincide.
        """
        u, v, w = (self.require_point(p) for p in (x, y, z))
        du, dv, dw = self._depth(u), self._depth(v), self._depth(w)
        kvw, kwu, kuv = self._meet_depth(v, w), self._meet_depth(w, u), self._meet_depth(u, v)
        # <x|z>_y = (d(x,y) + d(y,z) - d(z,x)) / 2 = dv - kuv - kvw + kwu, and
        # so on round: the halves cancel, so the products are integers
        pts = (
            self._along(v, w, kvw, dv - kuv - kvw + kwu),
            self._along(w, u, kwu, dw - kvw - kwu + kuv),
            self._along(u, v, kuv, du - kwu - kuv + kvw),
        )
        insize = max(self._dist(pts[0], pts[1]), self._dist(pts[1], pts[2]), self._dist(pts[2], pts[0]))
        return tuple(self.point(p) for p in pts), _int_length(insize)

    # -- boundary rays ------------------------------------------------------

    def ray(self, prefix: tuple, period: tuple) -> BoundaryPoint:
        return self.boundary(self.canonical_ray(prefix, period))

    def canonical_ray(self, prefix: tuple, period: tuple) -> RayDescriptor:
        """Fold whole periods into the prefix until the junction is reduced.

        The period must be cyclically reduced (period.period reduced as
        written), so after at most |prefix|/|period| + 1 folds the infinite
        word prefix.period^inf is reduced and its unit stream is canonical.
        """
        period = self.normal_form(period)
        if not period:
            raise ValueError("ray period must be nonempty")
        if len(self.multiply(period, period)) != 2 * len(period):
            raise ValueError("ray period must be cyclically reduced")
        p = self.normal_form(prefix)
        while True:
            joined = self.multiply(p, period)
            if len(joined) == len(p) + len(period):
                return RayDescriptor(tuple(p), tuple(period))
            p = joined

    def _ray_units(self, ray: RayDescriptor, count: int) -> tuple:
        out = list(ray.prefix)
        while len(out) < count:
            out.extend(ray.period)
        return tuple(out[:count])

    def rays_equal(self, r1: RayDescriptor, r2: RayDescriptor) -> bool:
        """Cofinality test: the reduced unit streams agree forever iff they
        agree up to the preperiods plus one common period."""
        n = max(len(r1.prefix), len(r2.prefix)) + 2 * math.lcm(len(r1.period), len(r2.period))
        return self._ray_units(r1, n) == self._ray_units(r2, n)

    def boundary_equal(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        return self.rays_equal(self.require_boundary(p), self.require_boundary(q))

    def boundary_apply(self, iso: Isometry, b: BoundaryPoint) -> BoundaryPoint:
        g = self.require_iso(iso)
        ray: RayDescriptor = self.require_boundary(b)
        return self.ray(self.multiply(g, ray.prefix), ray.period)

    def gromov_boundary_pair_exact(self, b1, b2, base: Point) -> Fraction | None:
        """Exact <xi|eta>_base; None encodes +infinity (equal points)."""
        r1: RayDescriptor = self.require_boundary(b1)
        r2: RayDescriptor = self.require_boundary(b2)
        if self.rays_equal(r1, r2):
            return None
        n = (
            max(len(r1.prefix), len(r2.prefix))
            + math.lcm(len(r1.period), len(r2.period))
            + self._depth(self.require_point(base))
            + 4
        )
        v1 = self._vertex_from_units(self._ray_units(r1, n))
        v2 = self._vertex_from_units(self._ray_units(r2, n))
        return self.gromov_exact(v1, v2, base)

    def gromov_boundary_point_exact(self, b, y: Point, base: Point) -> Fraction:
        ray: RayDescriptor = self.require_boundary(b)
        depths = self._depth(self.require_point(y)) + self._depth(self.require_point(base))
        n = len(ray.prefix) + 2 * len(ray.period) + depths + 4
        v = self._vertex_from_units(self._ray_units(ray, n))
        return self.gromov_exact(v, y, base)

    def gromov_boundary_pair(self, b1, b2, base: Point) -> float:
        exact = self.gromov_boundary_pair_exact(b1, b2, base)
        return math.inf if exact is None else float(exact)

    def gromov_boundary_point(self, b, y: Point, base: Point) -> float:
        return float(self.gromov_boundary_point_exact(b, y, base))

    # -- ball materialization -------------------------------------------------

    def ball_vertices(self, radius: int | None = None) -> list[Point]:
        """All vertices within ``radius`` of the basepoint, BFS order."""
        if radius is None:
            radius = self.ball_radius
        if radius > self.ball_radius:
            raise NotInBall(f"requested radius {radius} > materialized {self.ball_radius}")
        root = self.basepoint.coords
        parents, level, out = set(), [root], [root]
        for _ in range(radius):
            children = [nb for v in level for nb in self._neighbors(v) if nb not in parents]
            parents, level = set(level), children
            out.extend(children)
        return [self.point(v) for v in out]

    def ball_size(self, radius: int) -> int:
        """The number of vertices within ``radius`` of the basepoint, counted
        from the vertex degrees without materializing the ball."""
        total = level = 1
        for depth in range(radius):
            level *= self._degrees[depth & 1] - (depth > 0)
            total += level
        return total

    def in_ball(self, p: Point) -> bool:
        return self._depth(self.require_point(p)) <= self.ball_radius

    def bfs_distance(self, x: Point, y: Point) -> int:
        """Independent BFS oracle over the materialized ball.  It walks
        ``_neighbors``; ``_depth`` only bounds the walk to the ball."""
        cx = self.require_point(x)
        cy = self.require_point(y)
        if not self.in_ball(x) or not self.in_ball(y):
            raise NotInBall("endpoint outside the materialized ball")
        if cx == cy:
            return 0
        seen = {cx: 0}
        queue = deque([cx])
        while queue:
            cur = queue.popleft()
            for nb in self._neighbors(cur):
                if nb in seen:
                    continue
                seen[nb] = seen[cur] + 1
                if nb == cy:
                    return seen[nb]
                if self._depth(nb) <= self.ball_radius:
                    queue.append(nb)
        raise NotInBall("BFS exhausted the ball without reaching the target")


def _common_prefix_len(u, v) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


class CayleyTreeModel(TreeModel):
    """Cayley graph of the free group of given rank: the 2r-regular tree.

    Letters are nonzero ints, sign for direction, abs value in 1..rank;
    vertices are reduced words (tuples of letters)."""

    kind = "cayley_tree"

    def __init__(self, rank: int, ball_radius: int = 8):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > len(_LETTER_NAMES):
            raise ValueError(f"rank must be <= {len(_LETTER_NAMES)}: letters are named a to z")
        self.rank = rank
        self.ball_radius = ball_radius
        self.model_id = f"cayley_tree(rank={rank})"
        self._degrees = (2 * rank, 2 * rank)
        self._basepoint = self.point(())

    @property
    def basepoint(self) -> Point:
        return self._basepoint

    def letters(self) -> list[int]:
        out = []
        for i in range(1, self.rank + 1):
            out.extend([i, -i])
        return out

    def normal_form(self, units) -> tuple:
        out: list[int] = []
        for letter in units:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} outside rank-{self.rank} alphabet")
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def multiply(self, u, v) -> tuple:
        out = list(u)
        for letter in v:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def invert_word(self, u) -> tuple:
        return tuple(-x for x in reversed(u))

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.multiply(self.require_iso(first), self.require_iso(second)))

    def vertex(self, letters) -> Point:
        return self.point(self.normal_form(tuple(letters)))

    def apply(self, iso: Isometry, x: Point) -> Point:
        return self.point(self.multiply(self.require_iso(iso), self.require_point(x)))

    # a vertex is a reduced word; its root path runs through its prefixes
    _depth = staticmethod(len)
    _meet_depth = staticmethod(_common_prefix_len)

    def _ancestor(self, v, k: int):
        return v[:k]

    def _vertex_from_units(self, units) -> Point:
        return self.point(tuple(units))

    def _neighbors(self, coords) -> list:
        return [self.multiply(coords, (letter,)) for letter in self.letters()]

    # -- classification ----------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v cyclically reduced; returns (u, v)."""
        i, j = 0, len(w) - 1
        while j > i and w[i] == -w[j]:
            i += 1
            j -= 1
        return tuple(w[:i]), tuple(w[i : j + 1])

    def core_tag(self, v: tuple) -> str:
        # free actions: only the identity is elliptic
        return HYPERBOLIC if v else ELLIPTIC

    def classify(self, iso: Isometry) -> IsometryClass:
        u, v = self.cyclic_reduce(self.require_iso(iso))
        if self.core_tag(v) == HYPERBOLIC:
            return self._hyperbolic(u, v)
        return IsometryClass.make_elliptic(1, self.basepoint, _int_length(0))

    def word_display(self, payload: tuple) -> str:
        letters = [(_LETTER_NAMES[abs(x) - 1], 1 if x > 0 else -1) for x in payload]
        return format_powers(collect_powers(letters))

    def parse_word(self, text: str) -> Isometry:
        names = tuple(_LETTER_NAMES[: self.rank])

        def check(name: str, token: str) -> None:
            if name not in names:
                raise ValueError(f"unknown letter {name!r} for rank {self.rank}")

        letters: list[int] = []
        for name, e in parse_powers(text, check):
            idx = names.index(name) + 1
            letters.extend([idx if e > 0 else -idx] * abs(e))
        return self.word(letters)


class BassSerreModel(TreeModel):
    """The Bass-Serre tree of Z/m * Z/n with its natural action."""

    kind = "bass_serre"

    def __init__(self, m: int, n: int, ball_radius: int = 8):
        if m < 2 or n < 2:
            raise ValueError("factor orders must be >= 2")
        self.orders = (m, n)
        self._degrees = self.orders  # vertex types alternate with depth
        self.ball_radius = ball_radius
        self.model_id = f"bass_serre(m={m},n={n})"
        self._basepoint = self.point(((), 0))

    @property
    def basepoint(self) -> Point:
        return self._basepoint

    # words: tuples of (factor, exponent) syllables in normal form

    def normal_form(self, units) -> tuple:
        out: list[tuple[int, int]] = []
        for factor, exp in units:
            if factor not in (0, 1):
                raise ValueError(f"bad factor {factor}")
            self._push(out, factor, exp)
        return tuple(out)

    def _push(self, out: list, factor: int, exp: int) -> None:
        exp %= self.orders[factor]
        if exp == 0:
            return
        if out and out[-1][0] == factor:
            merged = (out[-1][1] + exp) % self.orders[factor]
            out.pop()
            if merged:
                out.append((factor, merged))
        else:
            out.append((factor, exp))

    def multiply(self, u, v) -> tuple:
        out = list(u)
        for factor, exp in v:
            self._push(out, factor, exp)
        return tuple(out)

    def invert_word(self, u) -> tuple:
        return tuple((f, (-e) % self.orders[f]) for f, e in reversed(u))

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.multiply(self.require_iso(first), self.require_iso(second)))

    # -- vertices -------------------------------------------------------------

    def coset_vertex(self, word, vtype: int) -> Point:
        """Canonical vertex for the coset word.<factor vtype subgroup>."""
        w = self.normal_form(word)
        if w and w[-1][0] == vtype:
            w = w[:-1]
        return self.point((w, vtype))

    def apply(self, iso: Isometry, x: Point) -> Point:
        g = self.require_iso(iso)
        w, vtype = self.require_point(x)
        return self.coset_vertex(self.multiply(g, w), vtype)

    # A vertex (w, t) has type t = depth mod 2.  Each step toward the root
    # drops one syllable and flips the type, except the last step, from
    # ((), 1) to the basepoint ((), 0); off = 1 marks root paths that take it.

    @staticmethod
    def _off(w, t) -> int:
        return (t ^ len(w)) & 1

    def _depth(self, v) -> int:
        return len(v[0]) + self._off(*v)

    def _meet_depth(self, a, b) -> int:
        off = self._off(*a)
        if off != self._off(*b):
            return 0  # one root path ends with the step from ((), 1), the other not
        return _common_prefix_len(a[0], b[0]) + off

    def _ancestor(self, v, k: int):
        w, t = v
        return (w[: max(0, k - self._off(w, t))], k & 1)

    def _neighbors(self, coords) -> list:
        w, t = coords
        out = []
        if (w, t) != ((), 0):
            out.append((w[:-1], 1 - t) if w else ((), 0))
        elif (w, t) == ((), 0):
            out.append(((), 1))
        order = self.orders[t]
        for e in range(1, order):
            out.append((w + ((t, e),), 1 - t))
        return out

    def _vertex_from_units(self, units) -> Point:
        units = tuple(units)
        if not units:
            return self.basepoint
        return self.point((units, 1 - units[-1][0]))

    # -- classification -------------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v syllable-cyclically reduced, for w in
        normal form.

        Conjugating by the head syllable adds its exponent to the last
        syllable, of the same factor, so v is always w[i:j] followed by one
        syllable ``last`` of w[j]'s factor (w[j - 1] when the sum is 0), and
        u is w[:i].
        """
        if len(w) < 2:
            return (), tuple(w)
        i, j, last = 0, len(w) - 1, w[-1]
        while j > i and w[i][0] == last[0]:
            exp = (last[1] + w[i][1]) % self.orders[last[0]]
            i += 1
            if exp:
                last = (last[0], exp)
            else:
                j -= 1
                last = w[j]
        return tuple(w[:i]), tuple(w[i:j]) + (last,)

    def core_tag(self, v: tuple) -> str:
        # a core of one syllable is conjugate into a factor
        return HYPERBOLIC if len(v) >= 2 else ELLIPTIC

    def classify(self, iso: Isometry) -> IsometryClass:
        u, v = self.cyclic_reduce(self.require_iso(iso))
        if self.core_tag(v) == HYPERBOLIC:
            return self._hyperbolic(u, v)
        if not v:
            return IsometryClass.make_elliptic(1, self.basepoint, _int_length(0))
        factor, exp = v[0]
        order = self.orders[factor]
        period = order // math.gcd(exp, order)
        return IsometryClass.make_elliptic(period, self.coset_vertex(u, factor), _int_length(0))

    def word_display(self, payload: tuple) -> str:
        return format_powers([("st"[f], e) for f, e in payload])

    def parse_word(self, text: str) -> Isometry:
        def check(name: str, token: str) -> None:
            if name not in ("s", "t"):
                raise ValueError(f"unknown letter {name!r}; bass_serre words use s and t")

        return self.word(("st".index(name), e) for name, e in parse_powers(text, check))
