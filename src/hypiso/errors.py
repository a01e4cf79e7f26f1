"""Exception types shared across the library."""

from __future__ import annotations


class HypisoError(Exception):
    """Base class for all library errors."""


class MixedModels(HypisoError):
    """A point, isometry or boundary point was used with the wrong space model."""


class NotHyperbolic(HypisoError):
    """An operation required a hyperbolic isometry and got something else."""


class InsufficientSample(HypisoError):
    """A sampled estimator was called with too few points."""


class DegenerateTriangle(HypisoError):
    """Two triangle vertices coincide."""


class NoPassingN(HypisoError):
    """No power in the tested range realizes the North-South inclusion."""


class HypothesisViolation(HypisoError):
    """A parabolic isometry (or other hypothesis failure) was detected."""


class WitnessNotHyperbolic(HypisoError):
    """A claimed per-action witness failed exact classification."""

    def __init__(self, action_index: int, action_name: str, detail: str = ""):
        msg = f"witness for action {action_index} ({action_name}) is not hyperbolic"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ScheduleExhausted(HypisoError):
    """The exponent schedule ran out before a certified candidate was found.

    Carries the full trial log so the failure can be diagnosed: either the
    exponent cap is too small or a hypothesis of the combination theorem
    fails for the input system.
    """

    def __init__(self, stage: int, trials: list):
        super().__init__(
            f"exponent schedule exhausted at stage {stage} after {len(trials)} candidates"
        )
        self.stage = stage
        self.trials = trials


class ParseError(HypisoError):
    """Config or record text failed to parse; the message names the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}, col 1: {message}")


class ValidationError(HypisoError):
    """A parsed config is structurally valid but semantically wrong."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message if not field else f"{field}: {message}")
