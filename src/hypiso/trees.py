"""Tree models: Bass-Serre trees of Z/m * Z/n and Cayley trees of free groups.

Both models are exact.  Vertices are canonical labels (reduced words; for
Bass-Serre trees, coset representatives plus a vertex type), and boundary
points are eventually-periodic reduced rays (prefix, repeating word).
``TreeModel`` derives the whole metric (distances, Gromov products,
internal points) in integers from three hooks on vertex labels that
each model provides: ``_depth``, ``_meet_depth`` and ``_ancestor``.  The
ball of any radius about the basepoint is walked on demand over each
model's own ``_neighbors``.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .models import (
    ELLIPTIC,
    HYPERBOLIC,
    MAX_ISOMETRY_SIZE,
    BoundaryPoint,
    Isometry,
    IsometryClass,
    Length,
    Point,
    SpaceModel,
)
from .words import format_powers, parse_powers, reduce_powers

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"  # Cayley letter i is named _LETTER_NAMES[i - 1]


@dataclass(frozen=True)
class RayDescriptor:
    """A boundary point: the reduced infinite word prefix . period^infinity."""

    prefix: tuple
    period: tuple


class TreeHyperbolic(NamedTuple):
    """A hyperbolic tree class: its integer translation length (letters or
    syllables) and the rays its axis runs between."""

    length: int
    fixed_plus: BoundaryPoint
    fixed_minus: BoundaryPoint
    translation_length = property(lambda self: _int_length(self.length))


def _int_length(n: int) -> Length:
    return Length(float(n), exact_value=Fraction(n))


class TreeModel(SpaceModel):
    """Shared machinery; units are letters (Cayley) or syllables (Bass-Serre)."""

    # Subclasses provide, on words: normal_form, multiply (of normal forms,
    # into a normal form) and invert_word (set as SpaceModel's payload hooks
    # _mul and _inv too), cyclic_reduce and core_tag (the exact
    # tag of a cyclic core), and compose and classify, which
    # perfbench/layers.py wraps per class; _act(g, v), the vertex g.v.  On
    # vertex labels, the three hooks the whole metric is derived from:
    #   _depth(v)          distance from the basepoint
    #   _meet_depth(u, v)  depth of the last vertex the root paths share
    #   _ancestor(v, k)    the vertex at depth k on v's root path
    #   _dfs_key(v)        a sort key that lists the vertices in a DFS order
    # and, for the ball alone, _neighbors(v) (adjacency from the tree's own
    # definition) and _degrees (the vertex degrees at even and at odd
    # depth).  _vertex_from_units(units) is the label of the vertex a
    # reduced word ends at.

    _size, _one = staticmethod(len), ()  # the other two payload hooks

    def word(self, units) -> Isometry:
        return self.isometry(self.normal_form(tuple(units)))

    def apply(self, iso: Isometry, x: Point) -> Point:
        return self.point(self._act(self.require_iso(iso), self.require_point(x)))

    def tag(self, iso: Isometry) -> str:
        return self.core_tag(self.cyclic_reduce(self.require_iso(iso))[1])

    def parabolic_words(self, generators: list[Isometry], depth: int) -> tuple:
        """None: an automorphism of a tree without inversions is elliptic or
        hyperbolic, never parabolic (Serre, *Trees*, ch. I §6.4;
        Culler-Morgan 1987, §1).  Neither model inverts an edge: the
        Bass-Serre action keeps the two vertex types, and an inversion's
        square would fix a vertex, which in a free group only 1 does."""
        return ()

    def _hyperbolic(self, u: tuple, v: tuple) -> IsometryClass:
        """The class of u . v . u^-1 for u and v from ``cyclic_reduce`` (both
        reduced, v cyclically) with v not conjugate into a vertex stabilizer:
        translation length |v|, axis from the ray u . v^inf to the ray
        u . v^-inf, each folded from the reduced parts with no re-check."""
        plus, minus = self.boundary(self._fold(u, v)), self.boundary(self._fold(u, self.invert_word(v)))
        return IsometryClass(HYPERBOLIC, hyperbolic=TreeHyperbolic(len(v), plus, minus))

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

    def pairwise_distances(self, points: list[Point]):
        """d(p, q) for every two of the points, an int64 array: row p, column q.

        In a DFS order of the rooted tree (the points sorted by ``_dfs_key``)
        the meet depth of two vertices is the least meet depth of the
        adjacent pairs between them (Kasai et al., CPM 2001): n - 1
        ``_meet_depth`` calls and a running minimum per row fill the meets."""
        import numpy as np  # here, not at import: the checker loads no numpy

        vs = [self.require_point(p) for p in points]
        order = sorted(range(len(vs)), key=lambda i: self._dfs_key(vs[i]))
        adjacent = np.array([self._meet_depth(vs[i], vs[j]) for i, j in zip(order, order[1:])], dtype=np.int64)
        meet = np.zeros((len(vs), len(vs)), dtype=np.int64)  # in the sorted order
        for i in range(len(adjacent)):
            meet[i, i + 1 :] = meet[i + 1 :, i] = np.minimum.accumulate(adjacent[i:])
        depths = np.array([self._depth(v) for v in vs], dtype=np.int64)
        rank = np.argsort(order)  # the sorted position of each point
        dist = depths[:, None] + depths[None, :] - 2 * meet[np.ix_(rank, rank)]
        np.fill_diagonal(dist, 0)
        return dist

    def _gromov(self, u, v, w) -> int:
        """<u|v>_w = (d(u,w) + d(v,w) - d(u,v)) / 2 = d(w) - k(u,w) - k(v,w) + k(u,v)
        for the meet depths k: the halves cancel."""
        meet = self._meet_depth
        return self._depth(w) - meet(u, w) - meet(v, w) + meet(u, v)

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
        return self._fold(self.normal_form(prefix), period)

    def _fold(self, p: tuple, period: tuple) -> RayDescriptor:
        """The ray p . period^inf for a reduced p and a cyclically reduced
        period, with whole periods folded into p until the junction is reduced."""
        while True:
            joined = self.multiply(p, period)
            if len(joined) == len(p) + len(period):
                return RayDescriptor(p, period)
            p = joined

    def _ray_units(self, ray: RayDescriptor, count: int) -> tuple:
        periods = -((len(ray.prefix) - count) // len(ray.period))  # ceil((count - |prefix|) / |period|); <= 0 is none
        return (ray.prefix + ray.period * periods)[:count]

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

    def gromov_boundary_pair(self, b1, b2, base: Point) -> float:
        """<xi|eta>_base, exact until the final float; +inf for equal points."""
        r1: RayDescriptor = self.require_boundary(b1)
        r2: RayDescriptor = self.require_boundary(b2)
        if self.rays_equal(r1, r2):
            return math.inf
        w = self.require_point(base)
        periods = math.lcm(len(r1.period), len(r2.period))
        n = max(len(r1.prefix), len(r2.prefix)) + periods + self._depth(w) + 4
        v1 = self._vertex_from_units(self._ray_units(r1, n))
        v2 = self._vertex_from_units(self._ray_units(r2, n))
        return float(self._gromov(v1, v2, w))

    def gromov_boundary_point(self, b, y: Point, base: Point) -> float:
        ray: RayDescriptor = self.require_boundary(b)
        u, w = self.require_point(y), self.require_point(base)
        n = len(ray.prefix) + 2 * len(ray.period) + self._depth(u) + self._depth(w) + 4
        v = self._vertex_from_units(self._ray_units(ray, n))
        return float(self._gromov(v, u, w))

    def orbit_boundary_products(self, iso: Isometry, b, points: list[Point], base: Point, steps: int):
        """For n = 1..steps, the products <b|g^n p>_base of the points p, in
        order, each computed as it is read; see SpaceModel.  g must fix b.

        The Busemann cocycle beta(w, x) = 2<b|x>_w - d(w, x) of a point b
        fixed by g has beta(w, g x) = beta(w, g w) + beta(w, x) (Bridson-
        Haefliger II.8), and g^-n is an automorphism, so 2<b|g^n y>_w =
        d(g^-n w, y) + n beta(w, g w) + beta(w, y).  Only the base moves:
        one ``_act`` of g^-1 a step.  beta(w, y) is read once per point from
        one short truncation of the ray, and each step then costs one
        ``_meet_depth`` per point, bounded by the point's own depth."""
        g = self.require_iso(iso)
        if not self.fixes(iso, b):
            raise ValueError("the isometry does not fix the boundary point")
        w = self.require_point(base)
        ys = [self.require_point(p) for p in points]
        shift = self._busemann(b, w, self._act(g, w))
        # 2<b|g^n y>_w = (d(u) + n shift) + (d(y) + beta(w, y)) - 2 k(u, y), u = g^-n w
        own = [self._depth(y) + self._busemann(b, w, y) for y in ys]
        g_inv, u = self._inv(g), w
        for n in range(1, steps + 1):
            u = self._act(g_inv, u)
            yield self._products_from(u, self._depth(u) + n * shift, ys, own)

    def _products_from(self, u, lead: int, ys: list, own: list):
        """The floats (lead + own - 2 k(u, y)) / 2 of the points y, lazily."""
        meet = self._meet_depth
        return (float((lead + c - 2 * meet(u, y)) // 2) for y, c in zip(ys, own))

    def _busemann(self, b, w, x) -> int:
        """beta(w, x) = 2<b|x>_w - d(w, x), from a truncation of the ray b
        deeper than both points: it meets them where the ray does."""
        ray: RayDescriptor = self.require_boundary(b)
        n = len(ray.prefix) + 2 * len(ray.period) + self._depth(x) + self._depth(w) + 4
        v = self._vertex_from_units(self._ray_units(ray, n))
        return 2 * self._gromov(v, x, w) - self._dist(w, x)

    # -- the ball -------------------------------------------------------------

    def ball_vertices(self, radius: int) -> list[Point]:
        """All vertices within ``radius`` of the basepoint, BFS order."""
        root = self.basepoint.coords
        parents, level, out = set(), [root], [root]
        for _ in range(radius):
            children = [nb for v in level for nb in self._neighbors(v) if nb not in parents]
            parents, level = set(level), children
            out.extend(children)
        return [self.point(v) for v in out]

    def ball_size(self, radius: int) -> int:
        """The number of vertices within ``radius`` of the basepoint, counted
        from the vertex degrees without walking the ball."""
        total = level = 1
        for depth in range(radius):
            level *= self._degrees[depth & 1] - (depth > 0)
            total += level
        return total


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

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > len(_LETTER_NAMES):
            raise ValueError(f"rank must be <= {len(_LETTER_NAMES)}: letters are named a to z")
        self.rank = rank
        self.model_id = f"cayley_tree(rank={rank})"
        self._degrees = (2 * rank, 2 * rank)
        self.basepoint = self.point(())

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

    def multiply(self, u: tuple, v: tuple) -> tuple:
        """The reduced product of reduced words: only letters at the junction
        cancel, so the product is two slices joined."""
        n, k = len(u), 0
        meet = min(n, len(v))
        while k < meet and u[n - 1 - k] == -v[k]:
            k += 1
        return u[: n - k] + v[k:]

    def invert_word(self, u) -> tuple:
        return tuple(-x for x in reversed(u))

    _mul, _inv = multiply, invert_word

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.multiply(self.require_iso(first), self.require_iso(second)))

    def _act(self, g: tuple, v: tuple) -> tuple:
        return self.multiply(g, v)

    # a vertex is a reduced word; its root path runs through its prefixes
    _depth = staticmethod(len)
    _meet_depth = staticmethod(_common_prefix_len)
    _dfs_key = staticmethod(lambda v: v)  # prefixes sort before their extensions
    _vertex_from_units = staticmethod(tuple)

    def _ancestor(self, v, k: int):
        return v[:k]

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
        return IsometryClass.make_elliptic(1)

    def word_display(self, payload: tuple) -> str:
        letters = ((_LETTER_NAMES[abs(x) - 1], 1 if x > 0 else -1) for x in payload)
        return format_powers(reduce_powers(letters))

    def parse_word(self, text: str) -> Isometry:
        names = tuple(_LETTER_NAMES[: self.rank])

        def check(name: str, token: str) -> None:
            if name not in names:
                raise ValueError(f"unknown letter {name!r} for rank {self.rank}")

        letters: list[int] = []
        for name, e in parse_powers(text, check):
            if len(letters) + abs(e) > MAX_ISOMETRY_SIZE:  # before the letters are built
                raise ValueError(
                    f"the word passes the cap of {MAX_ISOMETRY_SIZE} letters (MAX_ISOMETRY_SIZE)"
                )
            idx = names.index(name) + 1
            letters.extend([idx if e > 0 else -idx] * abs(e))
        return self.word(letters)


class BassSerreModel(TreeModel):
    """The Bass-Serre tree of Z/m * Z/n with its natural action."""

    kind = "bass_serre"

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError("factor orders must be >= 2")
        self.orders = (m, n)
        self._degrees = self.orders  # vertex types alternate with depth
        self.model_id = f"bass_serre(m={m},n={n})"
        self.basepoint = self.point(((), 0))

    # words: tuples of (factor, exponent) syllables in normal form

    def normal_form(self, units) -> tuple:
        out: list[tuple[int, int]] = []
        for factor, exp in units:
            if factor not in (0, 1):
                raise ValueError(f"bad factor {factor}")
            exp %= self.orders[factor]
            if exp and out and out[-1][0] == factor:
                exp = (out.pop()[1] + exp) % self.orders[factor]
            if exp:
                out.append((factor, exp))
        return tuple(out)

    def multiply(self, u: tuple, v: tuple) -> tuple:
        """The normal form of u.v for normal forms u and v: syllables of one
        factor meet only at the junction, where they merge, or cancel and
        let the next two meet."""
        i, j = len(u), 0
        while i and j < len(v) and u[i - 1][0] == v[j][0]:
            factor = v[j][0]
            exp = (u[i - 1][1] + v[j][1]) % self.orders[factor]
            if exp:
                return u[: i - 1] + ((factor, exp),) + v[j + 1 :]
            i, j = i - 1, j + 1
        return u[:i] + v[j:]

    def invert_word(self, u) -> tuple:
        return tuple((f, (-e) % self.orders[f]) for f, e in reversed(u))

    _mul, _inv = multiply, invert_word

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        return self.isometry(self.multiply(self.require_iso(first), self.require_iso(second)))

    # -- vertices -------------------------------------------------------------

    def _act(self, g: tuple, v: tuple) -> tuple:
        w, vtype = v
        w = self.multiply(g, w)
        return (w[:-1] if w and w[-1][0] == vtype else w), vtype

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

    def _dfs_key(self, v):
        return self._off(*v), v[0]  # a root path through ((), 1) or not, then the word

    def _ancestor(self, v, k: int):
        w, t = v
        return (w[: max(0, k - self._off(w, t))], k & 1)

    def _neighbors(self, coords) -> list:
        w, t = coords
        out = []
        if (w, t) != ((), 0):
            out.append((w[:-1], 1 - t) if w else ((), 0))
        else:
            out.append(((), 1))
        order = self.orders[t]
        for e in range(1, order):
            out.append((w + ((t, e),), 1 - t))
        return out

    def _vertex_from_units(self, units: tuple) -> tuple:
        return (units, 1 - units[-1][0]) if units else ((), 0)

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
            return IsometryClass.make_elliptic(1)
        factor, exp = v[0]
        order = self.orders[factor]
        return IsometryClass.make_elliptic(order // math.gcd(exp, order))

    def word_display(self, payload: tuple) -> str:
        return format_powers([("st"[f], e) for f, e in payload])

    def parse_word(self, text: str) -> Isometry:
        def check(name: str, token: str) -> None:
            if name not in ("s", "t"):
                raise ValueError(f"unknown letter {name!r}; bass_serre words use s and t")

        return self.word(("st".index(name), e) for name, e in parse_powers(text, check))
