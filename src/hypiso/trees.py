"""Tree models: Bass-Serre trees of Z/m * Z/n and Cayley trees of free groups.

Both models are exact.  Vertices are canonical labels (reduced words; for
Bass-Serre trees, coset representatives plus a vertex type), distances are
integer edge counts computed from word combinatorics, and boundary points
are eventually-periodic reduced rays (prefix, repeating word).  A BFS ball
of configurable radius is materialized for enumeration and serves as an
independent oracle: ``bfs_distance`` recomputes metric facts by actual
graph search and raises NotInBall outside the materialized region.

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
    BoundaryPoint,
    Isometry,
    IsometryClass,
    Length,
    Point,
    SpaceModel,
    TranslationLengthEstimate,
)


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

    # subclasses provide: multiply, invert_word, word units, vertex helpers,
    # and compose and classify, which perfbench/layers.py wraps per class

    def word(self, units) -> Isometry:
        return self.isometry(self.normal_form(tuple(units)))

    def identity(self) -> Isometry:
        return self.isometry(())

    def invert(self, iso: Isometry) -> Isometry:
        return self.isometry(self.invert_word(self.require_iso(iso)))

    def iso_equal(self, a: Isometry, b: Isometry) -> bool:
        return self.require_iso(a) == self.require_iso(b)

    def _hyperbolic(self, u: tuple, v: tuple) -> IsometryClass:
        """The class of u . v . u^-1 for cyclically reduced v that is not
        conjugate into a vertex stabilizer: translation length |v|, axis
        from the ray u . v^inf to the ray u . v^-inf."""
        tau = len(v)
        tl = TranslationLengthEstimate(
            value=float(tau), n_used=1, exact=True, lower_bound_t=float(tau), exact_value=Fraction(tau)
        )
        return IsometryClass.make_hyperbolic(tl, self.ray(u, v), self.ray(u, self.invert_word(v)))

    def gromov_exact(self, x: Point, y: Point, w: Point) -> Fraction:
        dxw = self.distance(x, w).exact_value
        dyw = self.distance(y, w).exact_value
        dxy = self.distance(x, y).exact_value
        return Fraction(dxw + dyw - dxy, 2)

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
            + self._depth_of(base)
            + 4
        )
        v1 = self._vertex_from_units(self._ray_units(r1, n))
        v2 = self._vertex_from_units(self._ray_units(r2, n))
        return self.gromov_exact(v1, v2, base)

    def gromov_boundary_point_exact(self, b, y: Point, base: Point) -> Fraction:
        ray: RayDescriptor = self.require_boundary(b)
        n = len(ray.prefix) + 2 * len(ray.period) + self._depth_of(y) + self._depth_of(base) + 4
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
        out = []
        for v, depth in self._ball_iter(radius):
            out.append(self.point(v))
        return out

    def in_ball(self, p: Point) -> bool:
        return self._depth_of(p) <= self.ball_radius

    def bfs_distance(self, x: Point, y: Point) -> int:
        """Independent BFS oracle over the materialized ball."""
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
                if self._depth_of(self.point(nb)) <= self.ball_radius:
                    queue.append(nb)
        raise NotInBall("BFS exhausted the ball without reaching the target")

    # hooks ---------------------------------------------------------------

    def normal_form(self, units) -> tuple:
        raise NotImplementedError

    def multiply(self, u, v) -> tuple:
        raise NotImplementedError

    def invert_word(self, u) -> tuple:
        raise NotImplementedError

    def _vertex_from_units(self, units) -> Point:
        raise NotImplementedError

    def _depth_of(self, p: Point) -> int:
        raise NotImplementedError

    def _neighbors(self, coords) -> list:
        raise NotImplementedError

    def _ball_iter(self, radius: int):
        raise NotImplementedError


class CayleyTreeModel(TreeModel):
    """Cayley graph of the free group of given rank: the 2r-regular tree.

    Letters are nonzero ints, sign for direction, abs value in 1..rank;
    vertices are reduced words (tuples of letters)."""

    kind = "cayley_tree"

    def __init__(self, rank: int, ball_radius: int = 8):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.ball_radius = ball_radius
        self.model_id = f"cayley_tree(rank={rank})"
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

    def distance(self, x: Point, y: Point) -> Length:
        # reduced length of u^-1 v = |u| + |v| - 2 |common prefix|
        u = self.require_point(x)
        v = self.require_point(y)
        return _int_length(len(u) + len(v) - 2 * _common_prefix_len(u, v))

    def _depth_of(self, p: Point) -> int:
        return len(self.require_point(p))

    def _vertex_from_units(self, units) -> Point:
        return self.point(tuple(units))

    def _neighbors(self, coords) -> list:
        return [self.multiply(coords, (letter,)) for letter in self.letters()]

    def _ball_iter(self, radius: int):
        queue = deque([((), 0)])
        while queue:
            word, depth = queue.popleft()
            yield word, depth
            if depth == radius:
                continue
            for letter in self.letters():
                if word and word[-1] == -letter:
                    continue
                queue.append((word + (letter,), depth + 1))

    # -- classification ----------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v cyclically reduced; returns (u, v)."""
        u: list[int] = []
        v = list(w)
        while len(v) >= 2 and v[0] == -v[-1]:
            u.append(v[0])
            v = v[1:-1]
        return tuple(u), tuple(v)

    def classify(self, iso: Isometry) -> IsometryClass:
        u, v = self.cyclic_reduce(self.require_iso(iso))
        if not v:
            # free actions: only the identity is elliptic
            return IsometryClass.make_elliptic(1, self.basepoint, _int_length(0))
        return self._hyperbolic(u, v)

    def geodesic(self, x: Point, y: Point) -> list[Point]:
        u = self.require_point(x)
        v = self.require_point(y)
        k = _common_prefix_len(u, v)
        down = [self.point(u[:i]) for i in range(len(u), k - 1, -1)]
        up = [self.point(v[:i]) for i in range(k + 1, len(v) + 1)]
        return down + up

    def median(self, x: Point, y: Point, z: Point) -> Point:
        u, v, w = (self.require_point(p) for p in (x, y, z))
        kxy = _common_prefix_len(u, v)
        kyz = _common_prefix_len(v, w)
        kxz = _common_prefix_len(u, w)
        best = max(kxy, kyz, kxz)
        if best == kxy:
            return self.point(u[:kxy])
        if best == kyz:
            return self.point(v[:kyz])
        return self.point(u[:kxz])

    def word_display(self, payload: tuple) -> str:
        names = "abcdefghijklmnopqrstuvwxyz"
        parts = []
        for g, e in _collect_powers(payload):
            name = names[g - 1]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    def parse_word(self, text: str) -> Isometry:
        names = "abcdefghijklmnopqrstuvwxyz"[: self.rank]
        letters: list[int] = []
        for token in text.split():
            name, _, exp = token.partition("^")
            if name not in names:
                raise ValueError(f"unknown letter {name!r} for rank {self.rank}")
            e = int(exp) if exp else 1
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

    @staticmethod
    def _vertex_depth(word, vtype: int) -> int:
        return len(word) + ((vtype ^ (len(word) & 1)) & 1)

    def _depth_of(self, p: Point) -> int:
        w, t = self.require_point(p)
        return self._vertex_depth(w, t)

    def distance(self, x: Point, y: Point) -> Length:
        w1, t1 = self.require_point(x)
        w2, t2 = self.require_point(y)
        d1 = self._vertex_depth(w1, t1)
        d2 = self._vertex_depth(w2, t2)
        # vertices at the same word-prefix level are shared iff the types
        # propagate consistently, which depends only on total parity
        if ((t1 ^ t2) & 1) == ((len(w1) + len(w2)) & 1):
            k = _common_prefix_len(w1, w2)
            tk = t1 ^ ((len(w1) - k) & 1)
            meet_depth = self._vertex_depth(w1[:k], tk)
            return _int_length(d1 + d2 - 2 * meet_depth)
        return _int_length(d1 + d2)  # paths only share the root

    def _meet(self, a: Point, b: Point) -> Point:
        w1, t1 = self.require_point(a)
        w2, t2 = self.require_point(b)
        if ((t1 ^ t2) & 1) == ((len(w1) + len(w2)) & 1):
            k = _common_prefix_len(w1, w2)
            return self.point((w1[:k], t1 ^ ((len(w1) - k) & 1)))
        return self.basepoint

    def median(self, x: Point, y: Point, z: Point) -> Point:
        meets = [self._meet(x, y), self._meet(y, z), self._meet(x, z)]
        return max(meets, key=self._depth_of)

    def root_path(self, p: Point) -> list[Point]:
        """Vertices from the basepoint to p."""
        w, t = self.require_point(p)
        path = [self.point((w, t))]
        while True:
            w, t = path[-1].coords
            if (w, t) == ((), 0):
                break
            if w:
                path.append(self.point((w[:-1], 1 - t)))
            else:
                path.append(self.point(((), 0)))
        path.reverse()
        return path

    def geodesic(self, x: Point, y: Point) -> list[Point]:
        meet = self._meet(x, y)
        px = self.root_path(x)
        py = self.root_path(y)
        md = self._depth_of(meet)
        down = list(reversed(px[md:]))
        up = py[md + 1 :]
        return down + up

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

    def _ball_iter(self, radius: int):
        root = ((), 0)
        seen = {root}
        queue = deque([(root, 0)])
        while queue:
            coords, depth = queue.popleft()
            yield coords, depth
            if depth == radius:
                continue
            for nb in self._neighbors(coords):
                if nb not in seen:
                    seen.add(nb)
                    queue.append((nb, depth + 1))

    def _vertex_from_units(self, units) -> Point:
        units = tuple(units)
        if not units:
            return self.basepoint
        return self.point((units, 1 - units[-1][0]))

    # -- classification -------------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v syllable-cyclically reduced."""
        u: list[tuple[int, int]] = []
        v = list(w)
        while len(v) >= 2 and v[0][0] == v[-1][0]:
            head = v[0]
            u.append(head)
            rest = v[1:]
            tail = list(rest[:-1])
            self._push(tail, rest[-1][0], rest[-1][1] + head[1])
            v = tail
        return self.normal_form(tuple(u)), tuple(v)

    def classify(self, iso: Isometry) -> IsometryClass:
        u, v = self.cyclic_reduce(self.require_iso(iso))
        if not v:
            return IsometryClass.make_elliptic(1, self.basepoint, _int_length(0))
        if len(v) == 1:
            factor, exp = v[0]
            order = self.orders[factor]
            period = order // math.gcd(exp, order)
            return IsometryClass.make_elliptic(period, self.coset_vertex(u, factor), _int_length(0))
        return self._hyperbolic(u, v)

    def word_display(self, payload: tuple) -> str:
        names = "st"
        parts = []
        for f, e in payload:
            parts.append(names[f] if e == 1 else f"{names[f]}^{e}")
        return " ".join(parts) if parts else "1"

    def parse_word(self, text: str) -> Isometry:
        syllables: list[tuple[int, int]] = []
        for token in text.split():
            name, _, exp = token.partition("^")
            if name not in ("s", "t"):
                raise ValueError(f"unknown letter {name!r}; bass_serre words use s and t")
            e = int(exp) if exp else 1
            syllables.append((0 if name == "s" else 1, e))
        return self.word(syllables)


def _common_prefix_len(u, v) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


def _collect_powers(letters) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for letter in letters:
        g, e = abs(letter), (1 if letter > 0 else -1)
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return out
