"""Executable proof machinery behind ``hypiso dynamics``: North-South
dynamics, internal points and insize, and projection to an orbit.

Everything here is diagnostic and never used inside the combiner's
certification path.  Boundary neighborhoods are realized purely through
Gromov-product thresholds (the standard neighborhood basis): y is in
N(center, k) when <center|y>_base > k, a test that ``ns_dynamics_check``
reads once per sample point.  "Disjoint" means the two membership tests
cannot both pass, checked on the centers' mutual Gromov product plus the
sample at hand.  Every distance (a float), Gromov product and orbit step
comes from the lab (``geometry.lab``) that the caller passes in, one per
action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from .models import HYPERBOLIC, Owned


@dataclass(frozen=True)
class NeighborhoodSpec:
    """N(center, k) = {y : <center|y>_base > k}."""

    center: Owned
    threshold: float
    base: Owned


def ns_dynamics_check(
    geo,
    g: Owned,
    u_plus: NeighborhoodSpec,
    u_minus: NeighborhoodSpec,
    sample: Sequence[Owned],
    n_max: int,
) -> int:
    """Least N <= n_max with g^n(sample - U-) inside U+ for all N <= n <= n_max,
    for g a hyperbolic isometry of the lab geo's model.  U+ and U- must share
    their base and be disjoint: their centers' product (exact on trees)
    clears neither threshold, and no sample point lies in both.  Each sample
    point's products with U+'s and U-'s centers are read once, for that test,
    the points outside U- and their floor; then the outside points are
    stepped by the lab's ``apply`` for n = 1, 2, ..., and a step fails at its
    first point outside U+.  No step past ``_busemann_floor`` is walked."""
    tag = geo.model.tag(g)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"word is {tag} in model {geo.model.model_id!r}")
    if u_plus.base != u_minus.base:
        raise ValueError("U+ and U- have different bases")
    if geo.gromov_boundary_pair(u_plus.center, u_minus.center, u_plus.base) > min(u_plus.threshold, u_minus.threshold):
        raise ValueError("U+ and U- are not disjoint")
    read = geo.gromov_boundary_point
    table = [(p, read(u_plus.center, p, u_plus.base), read(u_minus.center, p, u_minus.base)) for p in sample]
    if any(plus > u_plus.threshold and minus > u_minus.threshold for _, plus, minus in table):
        raise ValueError("U+ and U- are not disjoint")
    outside = [(p, plus) for p, plus, minus in table if not minus > u_minus.threshold]
    points, failing = [p for p, _ in outside], 0
    for n in range(1, _busemann_floor(geo, g, u_plus, outside, n_max) + 1):
        points = [geo.apply(g, p) for p in points]
        if not all(read(u_plus.center, p, u_plus.base) > u_plus.threshold for p in points):
            failing = n
    if failing >= n_max:
        raise NoPassingN(f"no N <= {n_max} works for {len(outside)} sample points")
    return failing + 1


def _busemann_floor(geo, g: Owned, spec: NeighborhoodSpec, outside: list, n_max: int) -> int:
    """The step, at most n_max, past which <b|g^n p>_w > T for the point p of
    every (p, <b|p>_w) pair outside, b, w and T the center, base and
    threshold.  If g fixes b, the Busemann cocycle beta(w, y) = 2<b|y>_w -
    d(w, y) has beta(w, g^n p) = beta(w, p) + n tau, tau = beta(w, g w)
    (Bridson-Haefliger II.8), and d >= |beta|, so <b|y>_w >= beta: for tau >
    0 every step past (T + 1e-9 - beta(w, p)) / tau passes.  Trees are exact.
    The plane's float products err by under 1e-12 below 9, and more as the
    orbit nears b (about 1e-9 at 16; about 36 + ln(|b - w| / |b|), or inf,
    once it is b in floats): for T below 9, every skipped step passes in
    floats too.  With no floor, n_max.  geo, the check's lab, reads d(p, w) once."""
    b, w = spec.center, spec.base

    def beta(y: Owned, product: float) -> float:
        return 2 * product - geo.distance(y, w)

    if not outside or not geo.model.fixes(g, b):
        return n_max
    gw = geo.apply(g, w)
    tau = beta(gw, geo.gromov_boundary_point(b, gw, w))
    bound = max((spec.threshold + 1e-9 - beta(p, v)) / tau for p, v in outside) if tau > 0 else math.nan
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


@dataclass(frozen=True)
class OrbitProjection:
    nearest: tuple[Owned, ...]
    exponents: tuple[int, ...]
    defect: float


def orbit_projection(geo, iso: Owned, points: Sequence[Owned], orbit_range: int) -> list[OrbitProjection]:
    """The nearest-point projection of each point z to the orbit {f^n x :
    |n| <= orbit_range} of a hyperbolic isometry f = iso of the lab geo's
    model, x the lab's basepoint, and the reverse-triangle defect d(x, x_z) +
    d(x_z, z) - d(x, z).  The orbit is built once and ranked exactly by the
    lab's ``nearest``; only the defect's three distances are floats."""
    tag = geo.model.tag(iso)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"f is {tag} in model {geo.model.model_id!r}")
    basepoint, inv = geo.basepoint, geo.model.invert(iso)
    orbit, fwd, back = {0: basepoint}, basepoint, basepoint
    for n in range(1, orbit_range + 1):
        fwd, back = geo.apply(iso, fwd), geo.apply(inv, back)
        orbit[n], orbit[-n] = fwd, back
    steps, out = list(orbit), []
    for z in points:
        minimizers = sorted((steps[i] for i in geo.nearest(list(orbit.values()), z)), key=lambda n: (abs(n), -n))
        x_z = orbit[minimizers[0]]
        defect = geo.distance(basepoint, x_z) + geo.distance(x_z, z) - geo.distance(basepoint, z)
        out.append(OrbitProjection(tuple(orbit[n] for n in minimizers), tuple(minimizers), max(0.0, defect)))
    return out
