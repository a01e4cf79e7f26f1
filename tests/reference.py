"""Reference computations the test suites compare the library against.

Each is a direct transcription of its definition from the models'
distances and boundary actions; the library itself has no copy.
"""

from hypiso.dynamics import contains_point
from hypiso.geometry import gromov_product


def four_point_defect(model, x, y, z, w) -> float:
    """min(<x|y>_w, <y|z>_w) - <x|z>_w for one quadruple."""
    gxy = gromov_product(model, x, y, w).value
    gyz = gromov_product(model, y, z, w).value
    gxz = gromov_product(model, x, z, w).value
    return min(gxy, gyz) - gxz


def pairwise_distances_by_meets(model, points) -> list[list[int]]:
    """A tree model's distance matrix, one meet depth per pair:
    d(u, v) = d(u) + d(v) - 2 k(u, v), row u, column v."""
    vs = [model.require_point(p) for p in points]
    depths = [model._depth(v) for v in vs]
    rows = [[0] * len(vs) for _ in vs]
    for i, u in enumerate(vs):
        for j in range(i + 1, len(vs)):
            rows[i][j] = rows[j][i] = depths[i] + depths[j] - 2 * model._meet_depth(u, vs[j])
    return rows


def separation_witnesses(action, g, u_plus, u_minus, sample) -> list:
    """Sampled witnesses against the hypothesis that g U+ and U- are
    disjoint: the sampled points of U+ that g sends into U-, then the
    center of U+ if g sends it into U-.  Empty when the sampled hypothesis
    holds."""
    model = action.model
    image = action.image(g)
    out = [
        p for p in sample
        if contains_point(model, u_plus, p) and contains_point(model, u_minus, model.apply(image, p))
    ]
    moved = model.boundary_apply(image, u_plus.center)
    if model.gromov_boundary_pair(u_minus.center, moved, u_minus.base) > u_minus.threshold:
        out.append(u_plus.center)
    return out
