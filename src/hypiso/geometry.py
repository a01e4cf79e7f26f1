"""Model-independent hyperbolicity primitives.

Gromov products are built from the owning model's distances (exact
integers on trees, exact-cosh rationals on the plane); the four-point delta
is a sampled estimator layered on top.  It reads all its distances at once
from the model's ``pairwise_distances``: integers from depths and meet
depths on trees, on the plane the floats of integer cosh ratios over one
common denominator.  The sampled delta is a maximum of observed defects,
hence a lower bound on the true hyperbolicity constant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientSample
from .models import DeltaEstimate, Length, Point, SpaceModel


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
    import numpy as np  # here, so that commands that never estimate delta load no numpy

    if len(sample) < 3:
        raise InsufficientSample(f"need >= 3 points, got {len(sample)}")
    n = len(sample)
    rows = model.pairwise_distances([*sample, base])
    D, d_base = rows[:n, :n], rows[n, :n]
    # doubled Gromov products keep tree arithmetic in integers
    G2 = d_base[:, None] + d_base[None, :] - D
    if G2.dtype.kind == "i":  # every defect lies within 2*max|G2|, so the narrowest dtype is exact
        bound = 2 * int(np.abs(G2).max()) + 1
        G2 = G2.astype(next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max))
    # max over y of min(<x|y>, <y|z>), one row x at a time: O(n^2) memory
    defect2 = max((np.minimum(row[:, None], G2).max(axis=0) - row).max() for row in G2)
    delta = max(0.0, float(defect2) / 2.0)
    return DeltaEstimate(delta=delta, condition="four_point", sample_size=n)
