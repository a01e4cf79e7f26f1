"""hypiso: certified construction of simultaneously hyperbolic isometries.

Exact models of hyperbolic spaces (upper half-plane over the rationals,
Bass-Serre trees of free products of finite cyclic groups, Cayley trees of
free groups), exact isometry classification with boundary fixed points,
and a verified search that combines per-action hyperbolic witnesses into a
single word hyperbolic in every action of a system.

The public names below load their module on first use (PEP 562), so that
importing one submodule, such as the certificate checker in ``records``,
loads only what that submodule imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "actions": "Action ActionSystem",
    "combiner": "ActionProfile Certificate SearchSchedule check_hypotheses combine_step independent "
    "normalize_powers simultaneous_hyperbolic verify_certificate verify_certificate_detailed",
    "config": "SystemConfig build_action_system parse_config",
    "dynamics": "NeighborhoodSpec OrbitProjection QuasiGeodesicReport SeparationResult TriangleInternals "
    "internal_points local_quasigeodesic_check ns_dynamics_check orbit_projection separation_check",
    "errors": "DegenerateTriangle HypisoError HypothesisViolation InsufficientSample MixedModels NoPassingN "
    "NotHyperbolic NotInBall ParseError ScheduleExhausted ValidationError WitnessNotHyperbolic",
    "geometry": "distance estimate_delta_four_point estimate_translation_length gromov_product",
    "halfplane": "HalfPlaneModel Matrix2",
    "models": "BoundaryPoint DeltaEstimate Isometry IsometryClass Length Point SpaceModel "
    "TranslationLengthEstimate fixed_points",
    "quadratic": "QuadraticNumber",
    "trees": "BassSerreModel CayleyTreeModel RayDescriptor",
    "words": "GroupWord",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
