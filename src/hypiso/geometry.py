"""Model-independent hyperbolicity primitives.

Gromov products are built from the owning model's distances (exact
integers on trees, exact-cosh rationals on the plane); the four-point delta
and the orbit-growth translation-length quotient are sampled estimators
layered on top.  The four-point delta reads all its distances at once from
the model's ``pairwise_distances``: integers from depths and meet depths on
trees, on the plane the floats of integer cosh ratios over one common
denominator.  Sampled deltas are maxima of observed defects, hence lower
bounds on the true hyperbolicity constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .actions import Action
from .errors import InsufficientSample
from .models import DeltaEstimate, Length, Point, SpaceModel
from .words import GroupWord


@dataclass(frozen=True)
class TranslationLengthEstimate:
    """The orbit-growth quotient at n_used; lower_bound is the exact
    translation length of a hyperbolic class, None for other classes."""

    value: float
    n_used: int
    exact: bool
    lower_bound: Optional[Length] = None


def gromov_product(model: SpaceModel, x: Point, y: Point, w: Point) -> Length:
    """<x|y>_w = (d(x,w) + d(w,y) - d(x,y)) / 2."""
    dxw = model.distance(x, w)
    dyw = model.distance(y, w)
    dxy = model.distance(x, y)
    value = 0.5 * (dxw.value + dyw.value - dxy.value)
    if dxw.exact_value is not None and dyw.exact_value is not None and dxy.exact_value is not None:
        exact = Fraction(dxw.exact_value + dyw.exact_value - dxy.exact_value, 2)
        return Length(float(exact), exact_value=exact)
    return Length(max(0.0, value))


def estimate_delta_four_point(model: SpaceModel, sample: list[Point], base: Point) -> DeltaEstimate:
    """Max over ordered triples of min(<x|y>, <y|z>) - <x|z>, clamped at 0.

    Exact (integer arithmetic) on tree models, float on the plane; the
    distances come from the model's ``pairwise_distances``.
    """
    if len(sample) < 3:
        raise InsufficientSample(f"need >= 3 points, got {len(sample)}")
    n = len(sample)
    rows = np.array(model.pairwise_distances([*sample, base]))
    D, d_base = rows[:n, :n], rows[n, :n]
    # doubled Gromov products keep tree arithmetic in integers
    G2 = d_base[:, None] + d_base[None, :] - D
    # max over y of min(<x|y>, <y|z>), one row x at a time: O(n^2) memory
    defect2 = max((np.minimum(row[:, None], G2).max(axis=0) - row).max() for row in G2)
    delta = max(0.0, float(defect2) / 2.0)
    return DeltaEstimate(delta=delta, condition="four_point", sample_size=n)


def four_point_defect(model: SpaceModel, x: Point, y: Point, z: Point, w: Point) -> float:
    """min(<x|y>_w, <y|z>_w) - <x|z>_w for one quadruple."""
    gxy = gromov_product(model, x, y, w).value
    gyz = gromov_product(model, y, z, w).value
    gxz = gromov_product(model, x, z, w).value
    return min(gxy, gyz) - gxz


def estimate_translation_length(
    action: Action, word: GroupWord, basepoint: Point, n_max: int
) -> TranslationLengthEstimate:
    """Orbit-growth quotient d(x, g^n x)/n at n = n_max.

    The quotient never undershoots the true translation length and
    overshoots by at most 2 d(x, axis)/n, so it is a safe diagnostic; the
    exact model value rides along when classification certifies one.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    model = action.model
    iso = action.image(word)
    moved = model.apply(model.power(iso, n_max), basepoint)
    d = model.distance(basepoint, moved)
    est = d.value / n_max
    cls = model.classify(iso)
    if cls.is_hyperbolic:
        tl = cls.hyperbolic.translation_length
        exact_flag = (
            d.exact_value is not None
            and tl.exact_value is not None
            and d.exact_value == n_max * tl.exact_value
        ) or est == tl.value
        if exact_flag:
            est = tl.value
        return TranslationLengthEstimate(value=est, n_used=n_max, exact=exact_flag, lower_bound=tl)
    return TranslationLengthEstimate(value=est, n_used=n_max, exact=(est == 0.0))
