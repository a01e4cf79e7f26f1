"""Shared domain types and the SpaceModel base class.

A SpaceModel owns its points, isometries and boundary points; the concrete
models (half-plane, Bass-Serre tree, Cayley tree) live in ``halfplane`` and
``trees``.  Everything here is immutable after construction and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

from .errors import MixedModels, NotHyperbolic, ValidationError
from .quadratic import QuadraticNumber

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
HYPOTHESIS_VIOLATION = "hypothesis_violation"

# The largest isometry a power (each square, and the result), a word's
# image (after each syllable) or a Cayley tree image may be, in the units
# of SpaceModel.size: the bits of a plane matrix's largest entry, the
# letters or syllables of a tree word.  So a huge exponent costs products
# of at most about 2**20 bits, while a finite-order isometry, whose powers
# stay small, takes any exponent.
MAX_ISOMETRY_SIZE = 2**19


@dataclass(frozen=True)
class Point:
    """A point of a concrete model, tagged with its owner's id.

    coords is model-specific: the half-plane stores an (x, y) pair of exact
    rationals (quadratic irrationals for fixed points of infinite-order
    rotations), tree models store canonical vertex labels.
    """

    model_id: str
    coords: Any


@dataclass(frozen=True)
class Isometry:
    """A model-tagged isometry: a primitive integer plane matrix or a tree word."""

    model_id: str
    payload: Any


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary-at-infinity point: projective value (plane) or ray (tree)."""

    model_id: str
    payload: Any


@dataclass(frozen=True)
class Length:
    """A nonnegative length with optional exact companions.

    exact_cosh is set by the half-plane (cosh of the length as an exact
    rational); exact_value is set by tree models (integer edge counts; the
    Gromov products of tree vertices are integers too).  Distances and the
    translation lengths of hyperbolic classes carry one of the two.
    Certification always uses the exact companion; the float is
    display/diagnostic only.
    """

    value: float
    exact_cosh: Union[Fraction, QuadraticNumber, None] = None
    exact_value: Optional[Fraction] = None

    def __post_init__(self):
        if self.value < 0 and self.value > -1e-12:
            object.__setattr__(self, "value", 0.0)


@dataclass(frozen=True)
class DeltaEstimate:
    """Max hyperbolicity defect over a tested sample (a lower bound on delta)."""

    delta: float
    condition: str  # one of: slim, insize, four_point
    sample_size: int


@dataclass(frozen=True)
class EllipticWitness:
    """period is None for infinite-order plane rotations; the fixed point
    itself is then the witness (it has a one-element orbit)."""

    period: Optional[int]
    orbit_point: Point
    orbit_diameter: Length


@dataclass(frozen=True)
class HyperbolicWitness:
    translation_length: Length
    fixed_plus: BoundaryPoint
    fixed_minus: BoundaryPoint


@dataclass(frozen=True)
class IsometryClass:
    tag: str
    elliptic: Optional[EllipticWitness] = None
    hyperbolic: Optional[HyperbolicWitness] = None
    reason: Optional[str] = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.tag == HYPERBOLIC

    @property
    def is_elliptic(self) -> bool:
        return self.tag == ELLIPTIC

    @staticmethod
    def make_elliptic(period, orbit_point, orbit_diameter) -> "IsometryClass":
        return IsometryClass(ELLIPTIC, elliptic=EllipticWitness(period, orbit_point, orbit_diameter))

    @staticmethod
    def make_hyperbolic(tl, plus, minus) -> "IsometryClass":
        return IsometryClass(HYPERBOLIC, hyperbolic=HyperbolicWitness(tl, plus, minus))

    @staticmethod
    def make_violation(reason: str) -> "IsometryClass":
        return IsometryClass(HYPOTHESIS_VIOLATION, reason=reason)


class SpaceModel:
    """Base for the concrete models; subclasses fill in the geometry."""

    kind: str
    model_id: str

    # -- tagging helpers -------------------------------------------------

    def require_point(self, p: Point) -> Any:
        if p.model_id != self.model_id:
            raise MixedModels(f"point tagged {p.model_id}, model is {self.model_id}")
        return p.coords

    def require_iso(self, iso: Isometry) -> Any:
        if iso.model_id != self.model_id:
            raise MixedModels(f"isometry tagged {iso.model_id}, model is {self.model_id}")
        return iso.payload

    def require_boundary(self, b: BoundaryPoint) -> Any:
        if b.model_id != self.model_id:
            raise MixedModels(f"boundary point tagged {b.model_id}, model is {self.model_id}")
        return b.payload

    def point(self, coords) -> Point:
        return Point(self.model_id, coords)

    def isometry(self, payload) -> Isometry:
        return Isometry(self.model_id, payload)

    def boundary(self, payload) -> BoundaryPoint:
        return BoundaryPoint(self.model_id, payload)

    # -- geometry surface (implemented by subclasses) ---------------------

    @property
    def basepoint(self) -> Point:
        raise NotImplementedError

    def distance(self, x: Point, y: Point) -> Length:
        raise NotImplementedError

    def pairwise_distances(self, points: list[Point]) -> list[list]:
        """The floats (plane) or integers (trees) of ``distance`` for every
        two of the points, row p, column q, as plain lists."""
        raise NotImplementedError

    def apply(self, iso: Isometry, x: Point) -> Point:
        raise NotImplementedError

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        raise NotImplementedError

    def invert(self, iso: Isometry) -> Isometry:
        raise NotImplementedError

    def identity(self) -> Isometry:
        raise NotImplementedError

    def size(self, iso: Isometry) -> int:
        """The size MAX_ISOMETRY_SIZE caps: plane entry bits, tree word units."""
        raise NotImplementedError

    def power(self, iso: Isometry, n: int) -> Isometry:
        """iso^n by repeated squaring; a square or a result past
        MAX_ISOMETRY_SIZE is a ValidationError."""
        if n == 0:
            return self.identity()
        base = iso if n > 0 else self.invert(iso)
        n = abs(n)
        out = None
        while True:
            if n & 1:
                out = base if out is None else self.compose(out, base)
            n >>= 1
            if not n:
                return out if out is base else self.capped(out)
            base = self.capped(self.compose(base, base))

    def capped(self, iso: Isometry, what: str = "a power") -> Isometry:
        """iso, unless its size passes MAX_ISOMETRY_SIZE: a ValidationError."""
        if self.size(iso) > MAX_ISOMETRY_SIZE:
            raise ValidationError(
                f"{what} passes the cap of {MAX_ISOMETRY_SIZE} on an isometry's size "
                "(plane entry bits, tree word units)", "MAX_ISOMETRY_SIZE"
            )
        return iso

    def iso_equal(self, a: Isometry, b: Isometry) -> bool:
        raise NotImplementedError

    def tag(self, iso: Isometry) -> str:
        """The exact tag of ``classify(iso)``, decided without building the
        class (no fixed points, lengths or orbit witnesses)."""
        raise NotImplementedError

    def classify(self, iso: Isometry) -> IsometryClass:
        raise NotImplementedError

    def boundary_equal(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        raise NotImplementedError

    def boundary_apply(self, iso: Isometry, b: BoundaryPoint) -> BoundaryPoint:
        raise NotImplementedError

    def gromov_boundary_point(self, b: BoundaryPoint, y: Point, base: Point) -> float:
        """Extended Gromov product <b|y>_base (diagnostic precision)."""
        raise NotImplementedError

    def gromov_boundary_pair(self, b1: BoundaryPoint, b2: BoundaryPoint, base: Point) -> float:
        raise NotImplementedError

    def orbit_boundary_products(
        self, iso: Isometry, b: BoundaryPoint, points: list[Point], base: Point, steps: int
    ):
        """For n = 1..steps, an iterator over the points p of the values
        ``gromov_boundary_point(b, iso^n p, base)``, each computed (and any
        error raised) only when it is read.  The orbit advances one step per
        n, whether or not every value was read."""
        raise NotImplementedError


def fixed_points(model: SpaceModel, iso: Isometry) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(attracting, repelling) boundary fixed points of a hyperbolic isometry."""
    cls = model.classify(iso)
    if not cls.is_hyperbolic:
        raise NotHyperbolic(f"classify gave {cls.tag}")
    return cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus
