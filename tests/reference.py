"""Reference computations the test suites compare the library against,
and the helpers that only the tests call.

Each reference is a direct transcription of its definition from the
models' distances, neighbours and boundary actions; the library itself has
no copy.
"""

import math
from collections import deque
from fractions import Fraction

from hypiso.errors import MixedModels, ValidationError
from hypiso.geometry import _common_prefix_len, lab
from hypiso.halfplane import HalfPlaneModel, _acosh_ratio
from hypiso.models import MAX_ISOMETRY_SIZE
from hypiso.quadratic import QuadraticNumber
from hypiso.records import check_witnesses, witness_line
from hypiso.sampling import _random_bs_syllables, _random_cayley_word, sample_plane_points
from hypiso.trees import CayleyTreeModel
from hypiso.words import reduced_words


def power(model, iso, n: int):
    """iso^n, by the models' own repeated squaring."""
    return model.own(model._power(model.require(iso), n, model.size(iso))[0])


def bfs_distance(model, x, y) -> int:
    """A tree model's distance by breadth-first search over its own
    ``_neighbors``; a label's length, its depth, only bounds the walk to
    the ball about the basepoint that holds both endpoints, since a tree
    geodesic goes no deeper than its deeper end."""
    geo = lab(model)
    cx, cy = geo.model.require(x), geo.model.require(y)
    if cx == cy:
        return 0
    bound = max(len(cx), len(cy))
    seen = {cx: 0}
    queue = deque([cx])
    while queue:
        cur = queue.popleft()
        for nb in geo._neighbors(cur):
            if nb in seen:
                continue
            seen[nb] = seen[cur] + 1
            if nb == cy:
                return seen[nb]
            if len(nb) <= bound:
                queue.append(nb)
    raise ValueError(f"BFS within depth {bound} did not reach the target")


def fixed_vertices(model, iso, radius: int) -> list:
    """The vertices of a tree model within radius of the basepoint that iso
    fixes, in breadth-first order: the ball is walked over the model's own
    ``_neighbors`` and each vertex is moved by ``apply``, so no distance is
    read."""
    geo = lab(model)
    root = geo.basepoint.payload
    seen, level, out = {root}, [root], []
    for _ in range(radius + 1):
        out += [geo.model.own(v) for v in level if geo.apply(iso, geo.model.own(v)).payload == v]
        level = [nb for v in level for nb in geo._neighbors(v) if nb not in seen]
        seen.update(level)
    return out


def geodesic(model, x, y) -> list:
    """The vertices of a tree model's geodesic [x, y], in order: up from x
    to the meet of the root paths, then down to y."""
    geo = lab(model)
    u, v = geo.model.require(x), geo.model.require(y)
    k = _common_prefix_len(u, v)
    up = len(u) - k  # the steps from x up to the meet
    return [geo.model.own(u[: len(u) - t] if t <= up else v[: t - up + k]) for t in range(up + len(v) - k + 1)]


def gromov_product(model, x, y, w) -> float:
    """<x|y>_w = (d(x,w) + d(y,w) - d(x,y)) / 2 from the lab's distances, a
    fresh lab per product, clamped at 0 against float rounding."""
    geo = lab(model)
    return max(0.0, 0.5 * (geo.distance(x, w) + geo.distance(y, w) - geo.distance(x, y)))


def plane_internal_points_reference(model, x, y, z):
    """The plane triangle xyz's internal points, placed by the lab's
    ``_point_at`` at the three reference Gromov products (a fresh lab and
    three distances each), and their insize."""
    geo = lab(model)
    gx, gy, gz = gromov_product(model, y, z, x), gromov_product(model, x, z, y), gromov_product(model, x, y, z)
    pts = (geo._point_at(y, z, gy), geo._point_at(z, x, gz), geo._point_at(x, y, gx))
    return pts, max(geo.distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :])


def four_point_defect(model, x, y, z, w) -> float:
    """min(<x|y>_w, <y|z>_w) - <x|z>_w for one quadruple."""
    gxy = gromov_product(model, x, y, w)
    gyz = gromov_product(model, y, z, w)
    gxz = gromov_product(model, x, z, w)
    return min(gxy, gyz) - gxz


def pairwise_distances_by_meets(model, points) -> list[list[int]]:
    """A tree model's distance matrix, one meet depth per pair:
    d(u, v) = |u| + |v| - 2 k(u, v) for the root paths u and v and their
    common prefix's length k, row u, column v."""
    geo = lab(model)
    vs = [geo.model.require(p) for p in points]
    depths = [len(v) for v in vs]
    rows = [[0] * len(vs) for _ in vs]
    for i, u in enumerate(vs):
        for j in range(i + 1, len(vs)):
            rows[i][j] = rows[j][i] = depths[i] + depths[j] - 2 * _common_prefix_len(u, vs[j])
    return rows


def contains_point(model, spec, y) -> bool:
    """Whether y lies in the neighborhood N(center, k) of the spec:
    <center|y>_base > k."""
    return lab(model).gromov_boundary_point(spec.center, y, spec.base) > spec.threshold


def neighborhoods_disjoint(model, u, v, sample=()) -> bool:
    """Whether the two membership tests cannot both pass: the centers'
    mutual Gromov product clears neither threshold, and no point of the
    sample lies in both."""
    mutual = lab(model).gromov_boundary_pair(u.center, v.center, u.base)
    if mutual > min(u.threshold, v.threshold):
        return False
    return not any(contains_point(model, u, p) and contains_point(model, v, p) for p in sample)


def separation_witnesses(action, g, u_plus, u_minus, sample) -> list:
    """Sampled witnesses against the hypothesis that g U+ and U- are
    disjoint: the sampled points of U+ that g sends into U-, then the
    center of U+ if g sends it into U-.  Empty when the sampled hypothesis
    holds."""
    model = action.model
    image = action.image(g)
    out = [
        p for p in sample
        if contains_point(model, u_plus, p) and contains_point(model, u_minus, lab(model).apply(image, p))
    ]
    moved = model.boundary_apply(image, u_plus.center)
    if lab(model).gromov_boundary_pair(u_minus.center, moved, u_minus.base) > u_minus.threshold:
        out.append(u_plus.center)
    return out


def vertex(model, letters):
    """The vertex of a Cayley tree at the end of the word of the letters."""
    return model.own(model.normal_form(tuple(letters)))


def coset(model, v) -> tuple:
    """The coset (w, t) = w<factor t> of a Bass-Serre vertex label v: t is
    v's depth parity, and w v's normal form, which drops the edge (0, 0)."""
    return model.normal_form(v), len(v) & 1


def coset_action(model, g, c) -> tuple:
    """g.(w, t) = (gw, t) on cosets, gw a normal form that ends in no
    syllable of the factor t."""
    w, t = c
    gw = model.normal_form(tuple(g) + w)
    return (gw[:-1] if gw and gw[-1][0] == t else gw), t


def coset_vertex(model, word, vtype: int):
    """The vertex of a Bass-Serre tree for the coset word.<factor vtype>."""
    return model.own(lab(model)._vertex(*coset_action(model, word, ((), vtype))))


def sample_tree_points(model, count: int, rng) -> list:
    """Vertices at the end of random reduced words of 0 to 6 units, drawn
    by the library's seeded word samplers."""
    out = []
    for _ in range(count):
        n = rng.randint(0, 6)
        if isinstance(model, CayleyTreeModel):
            out.append(vertex(model, _random_cayley_word(model, rng, n)))
        else:
            syllables = _random_bs_syllables(model, rng, n)
            vtype = rng.choice((0, 1))
            out.append(coset_vertex(model, syllables, vtype))
    return out


def sample_points(model, count: int, rng) -> list:
    """Seeded plane points, or seeded tree vertices."""
    if isinstance(model, HalfPlaneModel):
        return sample_plane_points(model, count, rng)
    return sample_tree_points(model, count, rng)


# -- the plane's metric on (x, y) pairs of Fractions ---------------------------


def plane_xy(p) -> tuple[Fraction, Fraction]:
    """A plane point's coordinates (x, y), from its triple (X, Y, D)."""
    x, y, d = p.payload
    return Fraction(x, d), Fraction(y, d)


def xy_cosh_reference(p, q) -> Fraction:
    """cosh d = 1 + ((x1 - x2)^2 + (y1 - y2)^2) / (2 y1 y2) of two (x, y) pairs."""
    (x1, y1), (x2, y2) = p, q
    return 1 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2)


def xy_distance_reference(p, q) -> float:
    """d of two (x, y) pairs: arccosh of the exact cosh, as the plane's
    points in Fractions computed it."""
    c = xy_cosh_reference(p, q)
    return _acosh_ratio(c.numerator, c.denominator)


def xy_apply_reference(m, p) -> tuple[Fraction, Fraction]:
    """(a z + b)/(c z + d) for z = x + iy and M's Fraction entries, det 1:
    Re = ((a x + b)(c x + d) + a c y^2) / |c z + d|^2, Im = y / |c z + d|^2."""
    a, b, c, d = m.entries()
    x, y = p
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


def xy_floats_reference(p) -> tuple[float, float]:
    x, y = p
    return float(x), float(y)


def _log(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def xy_boundary_product_reference(xi, y, w) -> float:
    """<xi|y>_w of two (x, y) pairs and xi a float or None (infinity): the
    float formula ln(|xi - w| / |xi - y|) + (1/2) ln(Im y / Im w) + d(y, w)/2,
    or past float range the same logs of exact rationals, xi taken exactly."""
    dyw = xy_distance_reference(y, w)
    try:
        (yx, yy), (wx, wy) = xy_floats_reference(y), xy_floats_reference(w)
        if xi is None:
            return 0.5 * math.log(yy / wy) + 0.5 * dyw
        den = math.hypot(xi - yx, yy)
        if den == 0.0:
            return math.inf
        return math.log(math.hypot(xi - wx, wy) / den) + 0.5 * math.log(yy / wy) + 0.5 * dyw
    except (ValueError, OverflowError):
        (x, yy), (wx, wy) = y, w
        value = 0.5 * (_log(yy) - _log(wy)) + 0.5 * dyw
        if xi is None:
            return value
        q = Fraction(xi)
        return 0.5 * (_log((q - wx) ** 2 + wy * wy) - _log((q - x) ** 2 + yy * yy)) + value


# -- classification and the size cap in Fractions, product by product ---------


def acosh_fraction_reference(c: Fraction) -> float:
    """arccosh of a rational >= 1: the float's, or past float range
    ln(c) + log1p(sqrt(1 - 1/c^2)) with ln(c) from lowest terms."""
    try:
        x = float(c)
    except OverflowError:
        x = math.inf
    if math.isfinite(x):
        return math.acosh(x)
    lnc = math.log(c.numerator) - math.log(c.denominator)
    try:
        inv2 = float(Fraction(c.denominator, c.numerator) ** 2)
    except OverflowError:
        inv2 = 0.0
    return lnc + math.log1p(math.sqrt(max(0.0, 1.0 - inv2)))


def parts(q) -> tuple[Fraction, Fraction, Fraction]:
    """(u, v, w) with the boundary point q = u + v sqrt(w), read off its
    form: (p/q, 0, 0) for the root of (q, -p), and -B/2A, root/2A and
    B^2 - 4AC for the root of (A, B, C)."""
    if not q.root:
        return Fraction(-q.form[1], q.form[0]), Fraction(0), Fraction(0)
    a, b, c = q.form
    return Fraction(-b, 2 * a), Fraction(q.root, 2 * a), Fraction(b * b - 4 * a * c)


def _plane_fixed_points_reference(m):
    """(plus, minus) of a hyperbolic plane matrix signed to trace t > 2, in
    Fractions: None for infinity, a Fraction, or the parts (x, +-s/2c,
    t^2 - 4) of ((a - d) +- s sqrt(t^2 - 4))/2c when t^2 - 4 is not a
    rational square."""
    a, b, c, d, s = m
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
    t = Fraction(a + d, s)
    if c == 0:
        finite = Fraction(b, d - a)
        return (None, finite) if a > s else (finite, None)
    x, disc = Fraction(a - d, 2 * c), t * t - 4
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if rn * rn == disc.numerator and rd * rd == disc.denominator:
        y = Fraction(s, 2 * c) * Fraction(rn, rd)
        return x + y, x - y
    return (x, Fraction(s, 2 * c), disc), (x, Fraction(-s, 2 * c), disc)


def _form_reference(z):
    """The boundary point z (see _plane_fixed_points_reference) as its
    primitive integer form: q z - p for z = p/q, and for x + y sqrt(w) the
    monic z^2 - 2x z + x^2 - y^2 w, from (z - x)^2 = y^2 w, cleared of
    denominators, with y's sign as the root sign: its roots are
    x +- |y| sqrt(w)."""
    if z is None:
        return None
    if isinstance(z, Fraction):
        return QuadraticNumber((z.denominator, -z.numerator), 0)
    x, y, w = z
    coefficients = (Fraction(1), -2 * x, x * x - y * y * w)
    den = math.lcm(*(f.denominator for f in coefficients))
    form = [int(f * den) for f in coefficients]
    g = math.gcd(*form)
    return QuadraticNumber(tuple(f // g for f in form), 1 if y > 0 else -1)


def plane_class_reference(m) -> tuple[str, object, object, float, Fraction]:
    """(invariant, plus, minus, tau, cosh tau) of a hyperbolic plane matrix,
    derived in Fractions from its trace t: cosh tau = t^2/2 - 1, turned back
    into cosh(tau/2) by a gcd and two integer square roots; the fixed points
    ((a - d) +- s sqrt(t^2 - 4))/2c as the forms of _form_reference (None
    for infinity); tau = 2 arccosh(t/2)."""
    a, _, _, d, s = m
    t = Fraction(abs(a + d), s)
    cosh = t * t / 2 - 1
    p, q = cosh.numerator, cosh.denominator
    g = math.gcd(p + q, 2 * q)
    half = Fraction(math.isqrt((p + q) // g), math.isqrt(2 * q // g))
    plus, minus = map(_form_reference, _plane_fixed_points_reference(m))
    return f"cosh-half={half}", plus, minus, 2.0 * acosh_fraction_reference(t / 2), cosh


def plane_witness_line_reference(index: int, name: str, m) -> str:
    """The record's witness line of a hyperbolic plane matrix, from the
    trace and fixed points of ``plane_class_reference``."""

    def text(z) -> str:
        if z is None:
            return "inf"
        if isinstance(z, Fraction):
            return f"rat:{z}"
        return "quad:{};{};{}".format(*z)

    plus, minus = _plane_fixed_points_reference(m)
    invariant = plane_class_reference(m)[0]
    return f"witness {index} {name} half_plane hyperbolic {invariant} plus={text(plus)} minus={text(minus)}"


def verify_certificate_detailed_reference(system, cert) -> tuple[bool, list[str]]:
    """The certificate check by rendering: every class of the certificate is
    printed as its record line first (another model's class is one note),
    and the fresh lines are compared with those, byte by byte."""
    if len(cert.per_action) != system.n_actions:
        return False, [
            f"certificate covers {len(cert.per_action)} actions, system has {system.n_actions}"
        ]
    try:
        expected = [
            witness_line(i, action.name, action.model, cls)
            for i, (action, cls) in enumerate(zip(system.actions, cert.per_action))
        ]
    except MixedModels as exc:
        return False, [f"certificate witness from another model: {exc}"]
    return check_witnesses(system, cert.word, expected)


def _capped(model, p, what: str):
    if model._size(p) > MAX_ISOMETRY_SIZE:
        raise ValidationError(
            f"{what} passes the cap of {MAX_ISOMETRY_SIZE} on an isometry's size "
            "(plane entry bits, tree word units)", "MAX_ISOMETRY_SIZE"
        )
    return p


def capped_power(model, p, n: int):
    """The payload p^n by repeated squaring, every square and the result
    (unless it is p or a square) sized against MAX_ISOMETRY_SIZE."""
    if n == 0:
        return model._one
    base = p if n > 0 else model._inv(p)
    n = abs(n)
    out = None
    while True:
        if n & 1:
            out = base if out is None else model._mul(out, base)
        n >>= 1
        if not n:
            return out if out is base else _capped(model, out, "a power")
        base = _capped(model, model._mul(base, base), "a power")


def capped_image(action, word):
    """A word's image payload, syllable by syllable from the identity, each
    product sized against MAX_ISOMETRY_SIZE."""
    model = action.model
    out = model._one
    for gen, e in word.syllables:
        power = capped_power(model, model.require(action.images[gen]), e)
        out = _capped(model, model._mul(out, power), "a word's image")
    return out


def capped_product(model, F, G, a: int, b: int):
    """The payload F^a G^b, each power and the product sized against
    MAX_ISOMETRY_SIZE: the search's candidate f^a g^b in an action sending
    the letters f and g to F and G."""
    return _capped(model, model._mul(capped_power(model, F, a), capped_power(model, G, b)), "a word's image")


def eager_partitions(system, f_classes, g_images) -> tuple:
    """Each action's partition at a stage as the search once built it, with
    every stage: f's classes and g's images in actions 0..stage, the stage
    action's partition None.  H' when no fixed point of f is one of g's,
    H when one is; E when an elliptic g fixes f's repelling point, else
    E-E'-candidate."""
    k = len(f_classes) - 1
    out = []
    for i, (cf, g_image) in enumerate(zip(f_classes, g_images)):
        model = system.actions[i].model
        cg = model.classify(g_image)
        partition = None
        if i < k and cf.is_hyperbolic:
            if cg.is_hyperbolic:
                f_pts, g_pts = cf.hyperbolic.fixed_points, cg.hyperbolic.fixed_points
                shared = any(model.boundary_equal(p, q) for p in f_pts for q in g_pts)
                partition = "H" if shared else "H'"
            else:
                fixed = model.boundary_equal(model.boundary_apply(g_image, cf.hyperbolic.fixed_minus),
                                             cf.hyperbolic.fixed_minus)
                partition = "E" if fixed else "E-E'-candidate"
        out.append(partition)
    return tuple(out)


def step_path(generators, word) -> tuple:
    """The word's letters as step indices: 2i for generator i, 2i + 1 for its inverse."""
    return tuple(2 * generators.index(g) + (e < 0) for g, e in word.syllables for _ in range(abs(e)))


def walked_parabolic_paths(system, action, depth: int) -> tuple:
    """The full word walk: the reduced words up to depth whose tag is a
    violation, each imaged on its own in Python ints (gcd-reduced), as
    step paths in the order of ``reduced_words``."""
    return tuple(
        step_path(system.generators, word)
        for word in reduced_words(system.generators, depth)
        if action.model.tag(action.image(word)) == "hypothesis_violation"
    )
