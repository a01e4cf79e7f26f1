"""The geometry lab: the metric, balls and orbits of the core models, which
the ``delta`` and ``dynamics`` diagnostics read and no certificate does.

``lab(model)`` is the one way in, picked by the model's type: a
``PlaneGeometry`` (points are integer triples, distances integer ratios'
arccosh), or a ``CayleyGeometry`` or ``BassSerreGeometry``, whose points
are the tree's vertices labelled by their root paths, from which
``TreeGeometry`` reads the whole metric in integers.  A lab holds its model and
a memo, and is built where it is used; its points are the model's ``Owned``
values (another model's point is MixedModels) and its ``basepoint`` is i or
the root vertex.  A distance or insize is a float; ranking and tree
arithmetic read the exact ``distance_key`` (a cosh Fraction, an edge count)
or the integers beneath.  The four-point delta is a sampled estimator on
top: a maximum of observed defects over the lab's ``pairwise_distances``,
hence a lower bound on the true hyperbolicity constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientSample
from .halfplane import Matrix2, _acosh_ratio
from .models import Owned, SpaceModel
from .quadratic import QuadraticNumber
from .trees import BassSerreModel, CayleyTreeModel, RayDescriptor


@dataclass(frozen=True)
class DeltaEstimate:
    """Max hyperbolicity defect over a tested sample (a lower bound on delta)."""

    delta: float
    condition: str  # insize or four_point
    sample_size: int


def lab(model: SpaceModel) -> PlaneGeometry | TreeGeometry:
    """The geometry lab of a core model, by the model's type."""
    if isinstance(model, BassSerreModel):
        return BassSerreGeometry(model)
    return CayleyGeometry(model) if isinstance(model, CayleyTreeModel) else PlaneGeometry(model)


class _Geometry:
    """What the labs share: the model, whose ``own`` and ``require`` tag and
    read the points, a memo and the basepoint, the point of payload _root."""

    def __init__(self, model: SpaceModel):
        self.model, self._read = model, {}

    def _once(self, key, compute):
        """compute(), called once per key in this lab's life: a North-South
        check reads d(w, p) and its centers' floats for many products."""
        found = self._read.get(key)
        return found if found is not None else self._read.setdefault(key, compute())

    @property
    def basepoint(self) -> Owned:
        return self.model.own(self._root)

    def nearest(self, points: list[Owned], z: Owned) -> list[int]:
        """The indices of the points nearest z, by the exact ``distance_key``."""
        keys = [self.distance_key(p, z) for p in points]
        least = min(keys)
        return [i for i, key in enumerate(keys) if key == least]


def estimate_delta_four_point(model: SpaceModel, sample: list[Owned], base: Owned) -> DeltaEstimate:
    """Max over ordered triples of min(<x|y>, <y|z>) - <x|z>, clamped at 0.

    Exact (integer arithmetic) on tree models, float on the plane; the
    distances come from the lab's ``pairwise_distances``.
    """
    import numpy as np  # here, so that commands that never estimate delta load no numpy

    if len(sample) < 3:
        raise InsufficientSample(f"need >= 3 points, got {len(sample)}")
    n = len(sample)
    rows = lab(model).pairwise_distances([*sample, base])
    D, d_base = rows[:n, :n], rows[n, :n]
    # doubled Gromov products keep tree arithmetic in integers
    G2 = d_base[:, None] + d_base[None, :] - D
    if G2.dtype.kind == "i":  # every defect lies within 2*max|G2|, so the narrowest dtype is exact
        bound = 2 * int(np.abs(G2).max()) + 1
        G2 = G2.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max))
    # max over y of min(<x|y>, <y|z>), a (max, min) product, in blocks of
    # max(1, 2^18 // n^2) rows: at most max(2^18, n^2) elements a block
    step = max(1, 2**18 // (n * n))
    blocks = (G2[i : i + step] for i in range(0, n, step))
    defect2 = max((np.minimum(rows[:, :, None], G2).max(axis=1) - rows).max() for rows in blocks)
    delta = max(0.0, float(defect2) / 2.0)
    return DeltaEstimate(delta=delta, condition="four_point", sample_size=n)


# -- the half-plane -------------------------------------------------------------


class PlaneGeometry(_Geometry):
    """The upper half-plane's metric, Mobius action and extended Gromov
    products on points spelled one way, (X + Y i)/D as the primitive payload
    (X, Y, D) with Y, D > 0: distances and Mobius steps are integer
    arithmetic.  Boundary points are the model's (QuadraticNumbers, None for infinity)."""

    _root = (0, 1, 1)  # i

    def point_xy(self, x, y, d: int = 1) -> Owned:
        """The point (x + y i)/d for rationals (ints, Fractions or floats) x
        and y > 0 and an integer d > 0: its triple, divided by its gcd."""
        (p, q), (r, t) = x.as_integer_ratio(), y.as_integer_ratio()
        X, Y, D = p * t, r * q, q * t * d
        if Y <= 0 or D <= 0:
            raise ValueError("half-plane points need y > 0")
        g = math.gcd(X, Y, D)
        return self.model.own((X // g, Y // g, D // g))

    def _xy(self, p: Owned) -> tuple[Fraction, Fraction]:
        """p's coordinates x and y, exact and in lowest terms."""
        X, Y, D = self.model.require(p)
        return Fraction(X, D), Fraction(Y, D)

    def distance_key(self, p: Owned, q: Owned) -> Fraction:
        """cosh d(p, q) = ((x1 - x2)^2 + y1^2 + y2^2) / (2 y1 y2), exactly: it
        is monotone in the distance, so it ranks with no float."""
        return Fraction(*_cosh_ratio(self.model.require(p), self.model.require(q)))

    def nearest(self, points: list[Owned], z: Owned) -> list[int]:
        """The indices of the points nearest z: the least floats of the cosh
        ratios (inf from 2^1023 on) hold every exact minimizer, rounding being
        monotone, and a tie among them is ranked by ``distance_key``."""
        w = self.model.require(z)
        ratios = [_cosh_ratio(self.model.require(p), w) for p in points]
        floats = [num / den if num >> 1023 < den else math.inf for num, den in ratios]
        least = min(floats)
        ties = [i for i, f in enumerate(floats) if f == least]
        return [ties[k] for k in super().nearest([points[i] for i in ties], z)] if len(ties) > 1 else ties

    def distance(self, x: Owned, y: Owned) -> float:
        key = self.model.require(x), self.model.require(y)
        return self._once(key, lambda: _acosh_ratio(*_cosh_ratio(*key)))

    def pairwise_distances(self, points: list[Owned]):
        """d(p, q) for every two points, row p, column q, as a float array:
        the floats of ``distance``.  Over one common denominator of all the
        points, cosh = ((X - X')^2 + Y^2 + Y'^2) / 2YY', in int64 arrays while
        every X and Y is below 2^25; past that, one pair at a time."""
        import numpy as np  # here, so that commands that never estimate delta load no numpy

        triples = [self.model.require(p) for p in points]
        den = math.lcm(*(d for _, _, d in triples))
        xs, ys = [x * (den // d) for x, _, d in triples], [y * (den // d) for _, y, d in triples]
        i, j = np.triu_indices(len(xs), 1)
        if max(map(abs, xs + ys), default=0) < 2**25:  # a ratio's terms are below 2^53: its float is int/int's
            X, Y = np.array([xs, ys], dtype=np.int64)
            values = map(math.acosh, (((X[i] - X[j]) ** 2 + Y[i] ** 2 + Y[j] ** 2) / (2 * Y[i] * Y[j])).tolist())
        else:  # distance's float, one pair at a time
            values = (_acosh_ratio(*_cosh_ratio(triples[a], triples[b])) for a, b in zip(i.tolist(), j.tolist()))
        rows = np.zeros((len(xs), len(xs)))
        rows[i, j] = rows[j, i] = np.fromiter(values, float, len(i))
        return rows

    def apply(self, iso: Owned, p: Owned) -> Owned:
        """M p for p = (X + Y i)/D in integers: with u = a(X + Y i) + bD and
        v = c(X + Y i) + dD, M p = u conj(v) / |v|^2, whose imaginary part
        is Y D s^2 / |v|^2, as ad - bc = s^2."""
        m: Matrix2 = self.model.require(iso)
        X, Y, D = self.model.require(p)
        a, b, c, d = m.a, m.b, m.c, m.d  # s*M: the Mobius map is the same
        u, v = a * X + b * D, c * X + d * D
        return self.point_xy(u * v + a * c * Y * Y, Y * D * m.s * m.s, v * v + c * c * Y * Y)

    def _floats(self, p: Owned) -> tuple[float, float]:
        X, Y, D = self.model.require(p)
        return X / D, Y / D

    def gromov_boundary_point(self, b: Owned, y: Owned, base: Owned) -> float:
        """Extended Gromov product <b|y>_w = ln(|b - w| / |b - y|) + (1/2) ln(Im y
        / Im w) + d(y, w)/2, w the base, in floats; b infinity drops the first
        term.  Past float range (Im y underflows to 0, or a coordinate overflows)
        the logs are of the exact rationals' integers, b's float taken exactly."""
        pp: QuadraticNumber | None = self.model.require(b)
        xi = None if pp is None else self._once(pp, lambda: float(pp))
        dyw = self.distance(y, base)
        try:
            (yx, yy), (wx, wy) = self._floats(y), self._floats(base)
            if xi is None:
                return 0.5 * math.log(yy / wy) + 0.5 * dyw
            den = math.hypot(xi - yx, yy)
            if den == 0.0:
                return math.inf  # y has reached xi in floats
            return math.log(math.hypot(xi - wx, wy) / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw
        except (ValueError, OverflowError):  # y is past float range
            (x, yy), (wx, wy) = self._xy(y), self._xy(base)
            value = 0.5 * (_log(yy) - _log(wy)) + 0.5 * dyw
            if xi is None:
                return value
            q = Fraction(xi)
            return 0.5 * (_log((q - wx) ** 2 + wy * wy) - _log((q - x) ** 2 + yy * yy)) + value

    def internal_points(self, x: Owned, y: Owned, z: Owned) -> tuple[tuple[Owned, Owned, Owned], float]:
        """The internal points of the triangle xyz on its sides [y, z], [z, x]
        and [x, y], each at its Gromov-product distance from the side's first
        vertex in floats, and the insize: the largest distance between two.
        The products, <y|z>_x = (d(x,y) + d(z,x) - d(y,z)) / 2 and so on round,
        read each side once (its float is symmetric) and are clamped at 0."""
        dxy, dyz, dzx = self.distance(x, y), self.distance(y, z), self.distance(z, x)
        gx = max(0.0, 0.5 * (dxy + dzx - dyz))  # d(x, beta^) = d(x, gamma^)
        gy = max(0.0, 0.5 * (dxy + dyz - dzx))
        gz = max(0.0, 0.5 * (dzx + dyz - dxy))
        pts = (self._point_at(y, z, gy), self._point_at(z, x, gz), self._point_at(x, y, gx))
        return pts, max(self.distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :])

    def _point_at(self, p: Owned, q: Owned, dist: float) -> Owned:
        """The point at the given distance from p along the geodesic [p, q]."""
        (x1, y1), (x2, y2) = self._floats(p), self._floats(q)
        if abs(x1 - x2) < 1e-14:
            return self.point_xy(x1, y1 * math.exp(dist if y2 > y1 else -dist))
        m = (x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1) / (2 * (x2 - x1))
        r = math.hypot(x1 - m, y1)
        s1 = math.log(math.tan(math.atan2(y1, x1 - m) / 2))
        s2 = math.log(math.tan(math.atan2(y2, x2 - m) / 2))
        s = s1 + (dist if s2 > s1 else -dist)
        theta = 2 * math.atan(math.exp(s))
        return self.point_xy(m + r * math.cos(theta), r * math.sin(theta))

    def gromov_boundary_pair(self, b1: Owned, b2: Owned, base: Owned) -> float:
        """<xi|eta>_w = ln(|xi-w| |eta-w| / (|xi-eta| Im w)); inf when equal."""
        p1, p2 = self.model.require(b1), self.model.require(b2)
        if self.model.boundary_equal(b1, b2):
            return math.inf
        wx, wy = self._floats(base)
        if p1 is None or p2 is None:
            xi = float(p2 if p1 is None else p1)
            return math.log(math.hypot(xi - wx, wy) / wy)
        x1, x2 = float(p1), float(p2)
        sep = abs(x1 - x2) or 1e-300  # distinct quadratic values collapsing in float: resolve minimally
        return math.log(math.hypot(x1 - wx, wy) * math.hypot(x2 - wx, wy) / (sep * wy))


def _cosh_ratio(p: tuple, q: tuple) -> tuple[int, int]:
    """cosh d(p, q), unreduced, from the triples of p and q: ((X1 D2 - X2
    D1)^2 + (Y1 D2)^2 + (Y2 D1)^2) / (2 Y1 D2 Y2 D1)."""
    (X1, Y1, D1), (X2, Y2, D2) = p, q
    dx, r1, r2 = X1 * D2 - X2 * D1, Y1 * D2, Y2 * D1
    return dx * dx + r1 * r1 + r2 * r2, 2 * r1 * r2


def _log(q: Fraction) -> float:
    """ln q of a rational q > 0 however large or small, from its integers."""
    return math.log(q.numerator) - math.log(q.denominator)


# -- the trees --------------------------------------------------------------------


class TreeGeometry(_Geometry):
    """A tree's metric in integers, read from vertex labels that are root
    paths (Serre, Trees, I.4): a vertex's depth is its label's length, two
    vertices meet at their labels' common prefix, and an ancestor is a
    prefix.  ``CayleyGeometry`` and ``BassSerreGeometry`` define the labels'
    action, neighbours and degrees."""

    _root = ()

    def apply(self, iso: Owned, x: Owned) -> Owned:
        return self.model.own(self._act(self.model.require(iso), self.model.require(x)))

    def _dist(self, u, v) -> int:
        return len(u) + len(v) - 2 * _common_prefix_len(u, v)

    def distance_key(self, x: Owned, y: Owned) -> int:  # the edge count: exact, ranks with no float
        return self._dist(self.model.require(x), self.model.require(y))

    def distance(self, x: Owned, y: Owned) -> float:
        return float(self.distance_key(x, y))

    def pairwise_distances(self, points: list[Owned]):
        """d(p, q) for every two of the points, an int64 array: row p, column q.

        Two root paths agree up to their meet and differ past it, so the meet
        depth of two vertices counts the levels at which their prefixes are
        equal: one code per distinct prefix of each level, and one equality
        array per level (a vertex above the level takes a code of its own)."""
        import numpy as np  # here, so that commands that never estimate delta load no numpy

        vs = [self.model.require(p) for p in points]
        depths = np.array([len(v) for v in vs], dtype=np.int64)
        meets = np.zeros((len(vs), len(vs)), dtype=np.int64)
        code = [0] * len(vs)  # a code of each prefix: (the parent's code, the unit) numbered per level
        for level in range(max(depths, default=0)):
            codes = {}
            code = [codes.setdefault((c, v[level]), len(codes)) if len(v) > level else ~i
                    for i, (c, v) in enumerate(zip(code, vs))]
            meets += np.equal.outer(code, code)
        dist = depths[:, None] + depths[None, :] - 2 * meets
        np.fill_diagonal(dist, 0)
        return dist

    def _gromov(self, u, v, w) -> int:
        """<u|v>_w = (d(u,w) + d(v,w) - d(u,v)) / 2 = d(w) - k(u,w) - k(v,w) + k(u,v)
        for the meet depths k: the halves cancel."""
        meet = _common_prefix_len
        return len(w) - meet(u, w) - meet(v, w) + meet(u, v)

    def internal_points(self, x: Owned, y: Owned, z: Owned) -> tuple[tuple[Owned, Owned, Owned], float]:
        """The internal points of the triangle xyz on its sides [y, z], [z, x]
        and [x, y], and the insize: the largest distance between two of them.

        Each point is placed on its side at the Gromov-product distance from
        the side's first vertex (<x|z>_y on [y, z], and so on round), in
        exact integers from the three meet depths; nothing assumes that the
        three coincide.  Two such points on the root paths of two labels have
        depths that sum to twice the labels' meet, so they are their depths'
        difference apart."""
        meet = _common_prefix_len
        u, v, w = self.model.require(x), self.model.require(y), self.model.require(z)
        kvw, kuv = meet(v, w), meet(u, v)  # of three meets of root paths, the least two are equal
        kwu = min(kvw, kuv) if kvw != kuv else meet(w, u)
        # <x|z>_y = |v| - kuv - kvw + kwu from y puts the point on [y, z] on v's root
        # path, at depth dv, when kwu <= kuv, and else on w's at depth dw; so round
        dv, dw, du = kuv + kvw - kwu, kvw + kwu - kuv, kwu + kuv - kvw
        pts = v[:dv] if kwu <= kuv else w[:dw], w[:dw] if kuv <= kvw else u[:du], u[:du] if kvw <= kwu else v[:dv]
        own = self.model.own  # three equal labels, the center of the tripod xyz, share one tag
        tags = (own(pts[0]),) * 3 if pts[0] == pts[1] == pts[2] else tuple(map(own, pts))
        return tags, float(max(map(len, pts)) - min(map(len, pts)))

    # -- boundary rays ------------------------------------------------------

    def _ray_vertex(self, ray: RayDescriptor, depth: int):
        """A vertex of the ray deeper than depth by its preperiod, two
        periods and 4 units: for depth at least that of every point it is
        compared with, it meets each of them where the ray does."""
        units = self.model._ray_units(ray, len(ray.prefix) + 2 * len(ray.period) + depth + 4)
        return self._vertex_from_units(units)

    def gromov_boundary_point(self, b: Owned, y: Owned, base: Owned) -> float:
        """Extended Gromov product <b|y>_base, exact until the final float:
        <v|y>_base for a vertex v of the ray deeper than both points."""
        x, w = self.model.require(y), self.model.require(base)
        return float(self._gromov(self._ray_vertex(self.model.require(b), len(x) + len(w)), x, w))

    def gromov_boundary_pair(self, b1: Owned, b2: Owned, base: Owned) -> float:
        """<xi|eta>_base, exact until the final float; +inf for equal points.
        Two distinct rays part within their longer preperiod plus the lcm of
        their periods, so <eta|v>_base for a vertex v of xi that deep, and
        deeper than the base, is the pair's product."""
        if self.model.boundary_equal(b1, b2):
            return math.inf
        r1, r2 = self.model.require(b1), self.model.require(b2)
        w = self.model.require(base)
        parted = max(len(r1.prefix), len(r2.prefix)) + math.lcm(len(r1.period), len(r2.period))
        return self.gromov_boundary_point(b2, self.model.own(self._ray_vertex(r1, parted + len(w))), base)

    # -- the ball -------------------------------------------------------------

    def ball_vertices(self, radius: int) -> list[Owned]:
        """All vertices within ``radius`` of the basepoint, BFS order."""
        neighbors, root = self._neighbors, self._root
        parents, level, out = set(), [root], [root]
        for _ in range(radius):
            children = [nb for v in level for nb in neighbors(v) if nb not in parents]
            parents, level = set(level), children
            out.extend(children)
        return [self.model.own(v) for v in out]

    def ball_size(self, radius: int) -> int:
        """The number of vertices within ``radius`` of the basepoint, counted
        from the vertex degrees without walking the ball."""
        degrees, total, level = self._degrees, 1, 1
        for depth in range(radius):
            level *= degrees[depth & 1] - (depth > 0)
            total += level
        return total


def _common_prefix_len(u, v) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


class CayleyGeometry(TreeGeometry):
    """The Cayley tree's vertices: reduced words, rooted at the empty word,
    so that a vertex's root path runs through its prefixes."""

    _vertex_from_units = staticmethod(tuple)
    _degrees = property(lambda self: (2 * self.model.rank, 2 * self.model.rank))

    def _act(self, g: tuple, v: tuple) -> tuple:
        return self.model.multiply(g, v)

    def _neighbors(self, coords) -> list:
        return [self.model.multiply(coords, (letter,)) for letter in self.model.letters()]


class BassSerreGeometry(TreeGeometry):
    """The Bass-Serre tree of Z/m * Z/n, rooted at <s>: an edge per group
    element g joins g<s> and g<t>, and a vertex is the syllables of its root
    path, ((0, e1), (1, f1), (0, e2), ...), so its type, s or t, is its
    depth's parity.  The edge from <s> to <t> is (0, 0), and e1 < m; every
    later exponent is nonzero.  The coset w<t>, w a normal form that ends in
    no syllable of that factor, is ``_vertex(w, t)``."""

    _degrees = property(lambda self: self.model.orders)  # vertex types alternate with depth

    @staticmethod
    def _vertex(w: tuple, t: int) -> tuple:
        return ((0, 0),) + w if (len(w) ^ t) & 1 else w  # w opens with a t-syllable, or w<t> is <t>

    def _act(self, g: tuple, v: tuple) -> tuple:
        """g.(w<t>) = gw<t>, the last syllable of gw dropped if it is in <t>."""
        t = len(v) & 1
        w = self.model.multiply(g, v[1:] if v[:1] == ((0, 0),) else v)
        return self._vertex(w[:-1] if w and w[-1][0] == t else w, t)

    def _neighbors(self, v) -> list:
        """The parent first, if any, then the children; the root's (0, 0) first."""
        t = len(v) & 1
        children = [v + ((t, e),) for e in range(1 if v else 0, self.model.orders[t])]
        return [v[:-1], *children] if v else children

    def _vertex_from_units(self, units: tuple) -> tuple:
        return self._vertex(units, 1 - units[-1][0]) if units else ()
