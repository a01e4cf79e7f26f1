"""hypiso: certified construction of simultaneously hyperbolic isometries.

Exact models of hyperbolic spaces (upper half-plane over the rationals,
Bass-Serre trees of free products of finite cyclic groups, Cayley trees of
free groups), exact isometry classification with boundary fixed points,
and a verified search that combines per-action hyperbolic witnesses into a
single word hyperbolic in every action of a system.
"""

from .actions import Action, ActionSystem
from .combiner import (
    ActionProfile,
    Certificate,
    SearchSchedule,
    check_hypotheses,
    combine_step,
    independent,
    normalize_powers,
    simultaneous_hyperbolic,
    verify_certificate,
    verify_certificate_detailed,
)
from .config import SystemConfig, build_action_system, parse_config
from .dynamics import (
    NeighborhoodSpec,
    OrbitProjection,
    QuasiGeodesicReport,
    SeparationResult,
    TriangleInternals,
    internal_points,
    local_quasigeodesic_check,
    ns_dynamics_check,
    orbit_projection,
    separation_check,
)
from .errors import (
    DegenerateTriangle,
    HypisoError,
    HypothesisViolation,
    InsufficientSample,
    MixedModels,
    NoPassingN,
    NotHyperbolic,
    NotInBall,
    ParseError,
    ScheduleExhausted,
    ValidationError,
    WitnessNotHyperbolic,
)
from .geometry import (
    distance,
    estimate_delta_four_point,
    estimate_translation_length,
    gromov_product,
)
from .halfplane import HalfPlaneModel, Matrix2
from .models import (
    BoundaryPoint,
    DeltaEstimate,
    Isometry,
    IsometryClass,
    Length,
    Point,
    SpaceModel,
    TranslationLengthEstimate,
    fixed_points,
)
from .quadratic import QuadraticNumber
from .trees import BassSerreModel, CayleyTreeModel, RayDescriptor
from .words import GroupWord

__version__ = "0.1.0"
