"""Executable proof machinery behind ``hypiso dynamics``: North-South
dynamics, internal points and insize, and projection to an orbit.

Everything here is diagnostic and never used inside the combiner's
certification path.  Boundary neighborhoods are realized purely through
Gromov-product thresholds (the standard neighborhood basis); "disjoint"
means the two membership tests cannot both pass, checked on the centers'
mutual Gromov product plus the sample at hand.

Every distance, Gromov product and orbit is read from the model's
geometry lab (``geometry.lab``).  The North-South check follows its orbits
through the lab's ``orbit_boundary_products``, in exact integers up to the
final floats: on the plane each orbit point is an integer matrix applied
to i, stepped by the isometry's primitive matrix; on trees the Gromov
product with the attracting point b is an integer from b's Busemann
cocycle, which g shifts by its translation length, plus d(g^-n base, y):
one orbit, the base's, is followed for all the points.  The floats, and so
every membership test, are those of ``contains_point``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .actions import Action
from .errors import DegenerateTriangle, NoPassingN, NotHyperbolic
from .geometry import DeltaEstimate, Point, lab
from .models import HYPERBOLIC, BoundaryPoint, Isometry, Length, SpaceModel


@dataclass(frozen=True)
class NeighborhoodSpec:
    """N(center, k) = {y : <center|y>_base > k}."""

    center: BoundaryPoint
    threshold: float
    base: Point


def contains_point(model: SpaceModel, spec: NeighborhoodSpec, y: Point) -> bool:
    return lab(model).gromov_boundary_point(spec.center, y, spec.base) > spec.threshold


def neighborhoods_disjoint(
    model: SpaceModel,
    u: NeighborhoodSpec,
    v: NeighborhoodSpec,
    sample: Sequence[Point] = (),
) -> bool:
    """Can the two membership tests both pass?  Checked via the centers'
    mutual Gromov product (exact on trees) plus the given sample."""
    mutual = lab(model).gromov_boundary_pair(u.center, v.center, u.base)
    if mutual > min(u.threshold, v.threshold):
        return False
    return not any(contains_point(model, u, p) and contains_point(model, v, p) for p in sample)


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
    outside U+.  The orbits and their Gromov products come from the lab's
    ``orbit_boundary_products``: integer matrices on the plane; on trees the
    Busemann cocycle of the center and the orbit of the base under g^-1."""
    model = action.model
    tag = model.tag(g)
    if tag != HYPERBOLIC:
        raise NotHyperbolic(f"word is {tag} in action {action.name!r}")
    if not neighborhoods_disjoint(model, u_plus, u_minus, sample):
        raise ValueError("U+ and U- are not disjoint")
    outside = [p for p in sample if not contains_point(model, u_minus, p)]
    steps = lab(model).orbit_boundary_products(g, u_plus.center, outside, u_plus.base, n_max)
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
    """The three equidistance-defined points and their diameter, from the
    lab's ``internal_points``: exact on trees, where each point is placed at
    its Gromov-product distance along its side; on the plane placed in closed
    form along the parameterized geodesics, resolution limited only by float
    evaluation.
    """
    for p, q in ((x, y), (y, z), (x, z)):
        if p.coords == q.coords:
            raise DegenerateTriangle("two triangle vertices coincide")
    return TriangleInternals(*lab(model).internal_points(x, y, z))


def estimate_delta_insize(
    model: SpaceModel, triangles: Sequence[tuple[Point, Point, Point]]
) -> DeltaEstimate:
    worst = max([0.0] + [internal_points(model, x, y, z).insize.value for x, y, z in triangles])
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
    geo, inv = lab(model), model.invert(iso)
    points, fwd, back = {0: basepoint}, basepoint, basepoint
    for n in range(1, orbit_range + 1):
        fwd, back = geo.apply(iso, fwd), geo.apply(inv, back)
        points[n], points[-n] = fwd, back
    return points


def project_to_orbit(model: SpaceModel, points: dict[int, Point], z: Point) -> OrbitProjection:
    """Nearest-point projection of z to an orbit from ``orbit_points`` and
    the reverse-triangle defect d(x, x_z) + d(x_z, z) - d(x, z), where x is
    the orbit's point 0."""

    def sort_key(length: Length) -> Fraction:
        # the tree's edge count, or the plane's cosh: monotone in the distance
        return length.exact_value if length.exact_value is not None else length.exact_cosh

    geo = lab(model)
    dists = {n: geo.distance(p, z) for n, p in points.items()}
    best = min(sort_key(d) for d in dists.values())
    minimizers = sorted(
        (n for n, d in dists.items() if sort_key(d) == best), key=lambda n: (abs(n), -n)
    )
    basepoint, x_z = points[0], points[minimizers[0]]
    defect = geo.distance(basepoint, x_z).value + geo.distance(x_z, z).value - geo.distance(basepoint, z).value
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
