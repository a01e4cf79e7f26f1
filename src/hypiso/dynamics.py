"""Executable proof machinery behind ``hypiso dynamics``: North-South
dynamics, internal points and insize, and projection to an orbit.

Everything here is diagnostic and never used inside the combiner's
certification path.  Boundary neighborhoods are realized purely through
Gromov-product thresholds (the standard neighborhood basis); "disjoint"
means the two membership tests cannot both pass, checked on the centers'
mutual Gromov product plus the sample at hand.

The North-South check follows its orbits through the model's
``orbit_boundary_products``, in exact integers up to the final floats: on
the plane each orbit point is an integer matrix applied to i, stepped by
the isometry's primitive matrix; on trees the Gromov product with the
attracting point b is an integer from b's Busemann cocycle, which g shifts
by its translation length, plus d(g^-n base, y): one orbit, the base's, is
followed for all the points.  The floats, and so every membership test,
are those of ``contains_point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .actions import Action
from .errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from .geometry import gromov_product
from .halfplane import HalfPlaneModel
from .models import HYPERBOLIC, BoundaryPoint, DeltaEstimate, Isometry, Length, Point, SpaceModel
from .trees import TreeModel


@dataclass(frozen=True)
class NeighborhoodSpec:
    """N(center, k) = {y : <center|y>_base > k}."""

    center: BoundaryPoint
    threshold: float
    base: Point


def contains_point(model: SpaceModel, spec: NeighborhoodSpec, y: Point) -> bool:
    return model.gromov_boundary_point(spec.center, y, spec.base) > spec.threshold


def neighborhoods_disjoint(
    model: SpaceModel,
    u: NeighborhoodSpec,
    v: NeighborhoodSpec,
    sample: Sequence[Point] = (),
) -> bool:
    """Can the two membership tests both pass?  Checked via the centers'
    mutual Gromov product (exact on trees) plus the given sample."""
    mutual = model.gromov_boundary_pair(u.center, v.center, u.base)
    if mutual > min(u.threshold, v.threshold):
        return False
    for p in sample:
        if contains_point(model, u, p) and contains_point(model, v, p):
            return False
    return True


def ns_dynamics_check(
    action: Action,
    g: Isometry,
    u_plus: NeighborhoodSpec,
    u_minus: NeighborhoodSpec,
    sample: Sequence[Point],
    n_max: int,
) -> int:
    """Least N <= n_max with g^n(sample - U-) inside U+ for all N <= n <= n_max,
    for g the image of a word in the action and U+ centered at a fixed point
    of g (on trees, ValueError otherwise).

    Every step of every orbit is tested; a step stops at its first point
    outside U+.  The orbits and their Gromov products come from the model's
    ``orbit_boundary_products``: integer matrices on the plane; on trees the
    Busemann cocycle of the center and the orbit of the base under g^-1."""
    model = action.model
    tag = model.tag(g)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"word is {tag} in action {action.name!r}")
    if not neighborhoods_disjoint(model, u_plus, u_minus, sample):
        raise ValueError("U+ and U- are not disjoint")
    outside = [p for p in sample if not contains_point(model, u_minus, p)]
    steps = model.orbit_boundary_products(g, u_plus.center, outside, u_plus.base, n_max)
    good = [all(value > u_plus.threshold for value in products) for products in steps]
    for n in range(1, n_max + 1):
        if all(good[n - 1 :]):
            return n
    raise NoPassingN(f"no N <= {n_max} works for {len(outside)} sample points")


# -- triangles ----------------------------------------------------------------


@dataclass(frozen=True)
class TriangleInternals:
    internal: tuple[Point, Point, Point]  # on sides [y,z], [z,x], [x,y]
    insize: Length


def internal_points(model: SpaceModel, x: Point, y: Point, z: Point) -> TriangleInternals:
    """The three equidistance-defined points and their diameter.

    Exact on trees: ``TreeModel.internal_points`` places each point at its
    Gromov-product distance along its side and measures the insize between
    them.  On the plane the points are placed in closed form along the
    parameterized geodesics, resolution limited only by float evaluation.
    """
    for p, q in ((x, y), (y, z), (x, z)):
        if p.coords == q.coords:
            raise DegenerateTriangle("two triangle vertices coincide")
    if isinstance(model, TreeModel):
        return TriangleInternals(*model.internal_points(x, y, z))
    gx = gromov_product(model, y, z, x).value  # d(x, beta^) = d(x, gamma^)
    gy = gromov_product(model, x, z, y).value
    gz = gromov_product(model, x, y, z).value
    alpha_hat = _plane_point_at(model, y, z, gy)
    beta_hat = _plane_point_at(model, z, x, gz)
    gamma_hat = _plane_point_at(model, x, y, gx)
    pts = (alpha_hat, beta_hat, gamma_hat)
    insize = max(
        model.distance(p, q).value for i, p in enumerate(pts) for q in pts[i + 1 :]
    )
    return TriangleInternals(internal=pts, insize=Length(insize))


def _plane_point_at(model: HalfPlaneModel, p: Point, q: Point, dist: float) -> Point:
    """The point at the given distance from p along the geodesic [p, q]."""
    x1, y1 = (float(c) for c in p.coords)
    x2, y2 = (float(c) for c in q.coords)
    if abs(x1 - x2) < 1e-14:
        sign = 1.0 if y2 > y1 else -1.0
        return model.point_xy(Fraction(x1), Fraction(y1 * math.exp(sign * dist)))
    m = (x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1) / (2 * (x2 - x1))
    r = math.hypot(x1 - m, y1)
    s1 = math.log(math.tan(math.atan2(y1, x1 - m) / 2))
    s2 = math.log(math.tan(math.atan2(y2, x2 - m) / 2))
    s = s1 + (dist if s2 > s1 else -dist)
    theta = 2 * math.atan(math.exp(s))
    return model.point_xy(Fraction(m + r * math.cos(theta)), Fraction(r * math.sin(theta)))


def estimate_delta_insize(
    model: SpaceModel, triangles: Sequence[tuple[Point, Point, Point]]
) -> DeltaEstimate:
    worst = 0.0
    for x, y, z in triangles:
        worst = max(worst, internal_points(model, x, y, z).insize.value)
    return DeltaEstimate(delta=worst, condition="insize", sample_size=len(triangles))


# -- orbit projection -----------------------------------------------------------


@dataclass(frozen=True)
class OrbitProjection:
    nearest: tuple[Point, ...]
    exponents: tuple[int, ...]
    defect: float


def orbit_points(action: Action, iso: Isometry, basepoint: Point, orbit_range: int) -> dict[int, Point]:
    """The orbit {f^n basepoint : |n| <= orbit_range} of the image iso of a
    word f hyperbolic in the action, keyed by n."""
    model = action.model
    tag = model.tag(iso)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"f is {tag} in action {action.name!r}")
    inv = model.invert(iso)
    points = {0: basepoint}
    fwd = basepoint
    back = basepoint
    for n in range(1, orbit_range + 1):
        fwd = model.apply(iso, fwd)
        back = model.apply(inv, back)
        points[n] = fwd
        points[-n] = back
    return points


def project_to_orbit(model: SpaceModel, points: dict[int, Point], z: Point) -> OrbitProjection:
    """Nearest-point projection of z to an orbit from ``orbit_points`` and
    the reverse-triangle defect d(x, x_z) + d(x_z, z) - d(x, z), where x is
    the orbit's point 0."""

    def sort_key(length: Length) -> Fraction:
        # the tree's edge count, or the plane's cosh: monotone in the distance
        return length.exact_value if length.exact_value is not None else length.exact_cosh

    dists = {n: model.distance(p, z) for n, p in points.items()}
    best = min(sort_key(d) for d in dists.values())
    minimizers = sorted(
        (n for n, d in dists.items() if sort_key(d) == best), key=lambda n: (abs(n), -n)
    )
    basepoint, x_z = points[0], points[minimizers[0]]
    defect = (
        model.distance(basepoint, x_z).value
        + model.distance(x_z, z).value
        - model.distance(basepoint, z).value
    )
    return OrbitProjection(
        nearest=tuple(points[n] for n in minimizers),
        exponents=tuple(minimizers),
        defect=max(0.0, defect),
    )


def orbit_projection(
    action: Action, iso: Isometry, basepoint: Point, z: Point, orbit_range: int
) -> OrbitProjection:
    """Nearest-point projection of z to the orbit {f^n basepoint, |n| <= range}
    of the image iso of f, and the reverse-triangle defect; to project many
    points, build the orbit once with ``orbit_points`` and call
    ``project_to_orbit``."""
    return project_to_orbit(action.model, orbit_points(action, iso, basepoint, orbit_range), z)
