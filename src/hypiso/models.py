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

from .errors import MixedModels, NotHyperbolic
from .quadratic import QuadraticNumber

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
HYPOTHESIS_VIOLATION = "hypothesis_violation"


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
    """A model-tagged isometry: a determinant-1 matrix or a tree word."""

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

    exact_cosh is set by the half-plane metric (cosh of the distance as an
    exact rational); exact_value is set by tree metrics (integer edge counts,
    half-integers for Gromov products).  Certification always uses the exact
    companion; the float is display/diagnostic only.
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
class TranslationLengthEstimate:
    value: float
    n_used: int
    exact: bool
    lower_bound_t: Optional[float] = None
    exact_value: Optional[Fraction] = None      # trees: integer tau
    exact_cosh_half: Optional[Fraction] = None  # plane: |tr|/2 = cosh(tau/2)


@dataclass(frozen=True)
class EllipticWitness:
    """period is None for infinite-order plane rotations; the fixed point
    itself is then the witness (it has a one-element orbit)."""

    period: Optional[int]
    orbit_point: Point
    orbit_diameter: Length


@dataclass(frozen=True)
class HyperbolicWitness:
    translation_length: TranslationLengthEstimate
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

    def apply(self, iso: Isometry, x: Point) -> Point:
        raise NotImplementedError

    def compose(self, first: Isometry, second: Isometry) -> Isometry:
        raise NotImplementedError

    def invert(self, iso: Isometry) -> Isometry:
        raise NotImplementedError

    def identity(self) -> Isometry:
        raise NotImplementedError

    def power(self, iso: Isometry, n: int) -> Isometry:
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
                return out
            base = self.compose(base, base)

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


def fixed_points(model: SpaceModel, iso: Isometry) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(attracting, repelling) boundary fixed points of a hyperbolic isometry."""
    cls = model.classify(iso)
    if not cls.is_hyperbolic:
        raise NotHyperbolic(f"classify gave {cls.tag}")
    return cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus
