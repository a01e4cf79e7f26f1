"""Executable proof machinery behind ``hypiso dynamics``: North-South
dynamics, internal points and insize, and projection to an orbit.

Everything here is diagnostic and never used inside the combiner's
certification path.  The North-South check concerns one hyperbolic g and
neighborhoods of its own fixed points, realized purely through
Gromov-product thresholds at the lab's basepoint w (the standard
neighborhood basis): y is in N(b, k) when <b|y>_w > k, a test that
``ns_dynamics_check`` reads once per sample point.  "Disjoint" means the
two membership tests cannot both pass, checked on the ends' mutual Gromov
product plus the sample at hand.  Every distance (a float), Gromov product
and orbit step comes from the lab (``geometry.lab``) that the caller
passes in, one per action.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from .models import HYPERBOLIC, Owned


def ns_dynamics_check(geo, g: Owned, threshold: float, sample: Sequence[Owned], n_max: int) -> int:
    """Least N <= n_max with g^n(sample - U-) inside U+ for all N <= n <= n_max,
    for g a hyperbolic isometry of the lab geo's model and U+, U- = N(g^+-inf,
    threshold) at the lab's basepoint, which must be disjoint: the ends'
    product (exact on trees) is at most the threshold, and no sample point
    lies in both.  Each sample point's two products are read once, for that
    test, the points outside U- and their floor; then the outside points are
    stepped by the lab's ``apply`` for n = 1, 2, ..., and a step fails at its
    first point outside U+.  No step past ``_busemann_floor`` is walked."""
    cls = geo.model.classify(g)
    if not cls.is_hyperbolic:
        raise NotHyperbolic(f"word is {cls.tag} in model {geo.model.model_id!r}")
    (attracting, repelling), base = cls.hyperbolic.fixed_points, geo.basepoint
    if geo.gromov_boundary_pair(attracting, repelling, base) > threshold:
        raise ValueError("U+ and U- are not disjoint")
    read = geo.gromov_boundary_point
    table = [(p, read(attracting, p, base), read(repelling, p, base)) for p in sample]
    if any(plus > threshold and minus > threshold for _, plus, minus in table):
        raise ValueError("U+ and U- are not disjoint")
    outside = [(p, plus) for p, plus, minus in table if not minus > threshold]
    points, failing = [p for p, _ in outside], 0
    for n in range(1, _busemann_floor(geo, g, attracting, threshold, outside, n_max) + 1):
        points = [geo.apply(g, p) for p in points]
        if not all(read(attracting, p, base) > threshold for p in points):
            failing = n
    if failing >= n_max:
        raise NoPassingN(f"no N <= {n_max} works for {len(outside)} sample points")
    return failing + 1


def _busemann_floor(geo, g: Owned, b: Owned, threshold: float, outside: list, n_max: int) -> int:
    """The step, at most n_max, past which <b|g^n p>_w > T for the point p
    of every (p, <b|p>_w) pair outside, b g's attracting fixed point, w the
    lab's basepoint and T the threshold.  g fixes b, so the Busemann cocycle
    beta(w, y) = 2<b|y>_w - d(w, y) has beta(w, g^n p) = beta(w, p) + n tau,
    tau = beta(w, g w) (Bridson-Haefliger II.8), and d >= |beta|, so <b|y>_w
    >= beta: for tau > 0 every step past (T + 1e-9 - beta(w, p)) / tau passes.
    Trees are exact.  The plane's float products err by under 1e-12 below 9,
    and more as the orbit nears b (about 1e-9 at 16; about 36 + ln(|b - w| /
    |b|), or inf, once it is b in floats): for T below 9, every skipped step
    passes in floats too.  With no floor (a plane tau of 0.0 in floats),
    n_max.  geo, the check's lab, reads d(p, w) once."""
    w = geo.basepoint

    def beta(y: Owned, product: float) -> float:
        return 2 * product - geo.distance(y, w)

    if not outside:
        return n_max
    gw = geo.apply(g, w)
    tau = beta(gw, geo.gromov_boundary_point(b, gw, w))
    bound = max((threshold + 1e-9 - beta(p, v)) / tau for p, v in outside) if tau > 0 else math.nan
    return math.floor(max(0.0, bound)) if bound < n_max else n_max  # nan: every step is walked


# -- triangles ----------------------------------------------------------------


def internal_points(geo, x: Owned, y: Owned, z: Owned) -> tuple[tuple[Owned, Owned, Owned], float]:
    """The three equidistance-defined points, on the sides [y, z], [z, x] and
    [x, y], and their diameter, the insize, from the lab geo's
    ``internal_points``: exact on trees, where each point is placed at its
    Gromov-product distance along its side; on the plane placed in closed
    form along the parameterized geodesics, resolution limited only by float
    evaluation."""
    if x.payload == y.payload or y.payload == z.payload or x.payload == z.payload:
        raise DegenerateTriangle("two triangle vertices coincide")
    return geo.internal_points(x, y, z)


def estimate_delta_insize(geo, triangles: Sequence[tuple[Owned, Owned, Owned]]) -> float:
    """The largest insize of the triangles, all read by the lab geo, which
    keeps the distances of the sides that triangles share."""
    return max([0.0] + [internal_points(geo, x, y, z)[1] for x, y, z in triangles])


# -- orbit projection -----------------------------------------------------------


def orbit_projection(geo, iso: Owned, points: Sequence[Owned], orbit_range: int) -> list[float]:
    """The reverse-triangle defect d(x, x_z) + d(x_z, z) - d(x, z), clamped
    at 0, of each point z and its nearest-point projection x_z to the orbit
    {f^n x : |n| <= orbit_range} of a hyperbolic isometry f = iso of the lab
    geo's model, x the lab's basepoint; among the nearest orbit points x_z
    is f^n x of the least |n|, n > 0 first.  The orbit is built once and
    ranked exactly by the lab's ``nearest``; only the defect's three
    distances are floats."""
    tag = geo.model.tag(iso)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"f is {tag} in model {geo.model.model_id!r}")
    basepoint, inv = geo.basepoint, geo.model.invert(iso)
    orbit, fwd, back = {0: basepoint}, basepoint, basepoint
    for n in range(1, orbit_range + 1):
        fwd, back = geo.apply(iso, fwd), geo.apply(inv, back)
        orbit[n], orbit[-n] = fwd, back
    steps, orbit_points, out = list(orbit), list(orbit.values()), []
    for z in points:
        x_z = orbit[min((steps[i] for i in geo.nearest(orbit_points, z)), key=lambda n: (abs(n), -n))]
        out.append(max(0.0, geo.distance(basepoint, x_z) + geo.distance(x_z, z) - geo.distance(basepoint, z)))
    return out
