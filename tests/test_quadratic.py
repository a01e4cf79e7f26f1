import math
from decimal import Decimal, localcontext

import pytest

from hypiso.halfplane import HalfPlaneModel, _acosh_ratio
from hypiso.quadratic import QuadraticNumber

from test_classification_sweep import chain_sized_matrices, sweep_matrices


def test_acosh_fraction_small_and_huge():
    assert _acosh_ratio(1, 1) == 0.0
    assert abs(_acosh_ratio(17, 8) - math.log(4)) < 1e-12
    expected = math.log(2) + 400 * math.log(10)
    assert abs(_acosh_ratio(10**400, 1) - expected) < 1e-9


def test_a_boundary_point_has_one_spelling():
    # N moves M's fixed points to those of N M N^-1: the image by
    # boundary_apply (a substituted form) and the fixed point of the
    # conjugate (a form from its entries) must be one value with one hash,
    # for every hyperbolic M and every N of the sweep
    plane = HalfPlaneModel()
    sweep = list(map(plane.own, sweep_matrices()))
    hyperbolics = [(m, cls.hyperbolic.fixed_points) for m, cls in zip(sweep, map(plane.classify, sweep))
                   if cls.is_hyperbolic]
    changed = 0
    for n in sweep:
        n_inv = plane.invert(n)
        for m, fixed in hyperbolics:
            conjugate = plane.classify(plane.compose(plane.compose(n, m), n_inv)).hyperbolic
            for point, moved in zip(fixed, conjugate.fixed_points):
                image = plane.boundary_apply(n, point)
                assert image == moved and hash(image) == hash(moved), (n, m)
                changed += image.payload is not None and image.payload != point.payload
    assert len(hyperbolics) >= 40 and changed > 10000


def test_boundary_apply_names_the_image_of_its_root():
    # the image's root sign must name N z, not its conjugate root: for every
    # sweep N and irrational fixed point z of the sweep, the image's float is
    # nearer (a x + b)/(c x + d), x = float(z), than the conjugate's is
    plane = HalfPlaneModel()
    sweep = list(map(plane.own, sweep_matrices()))
    points = {bp for cls in map(plane.classify, sweep) if cls.is_hyperbolic for bp in cls.hyperbolic.fixed_points
              if bp.payload is not None and bp.payload.root}
    flips = 0
    for n in sweep:
        a, b, c, d = map(float, n.payload.entries())
        for point in points:
            x, image = float(point.payload), plane.boundary_apply(n, point).payload
            conjugate = QuadraticNumber(image.form, -image.root)
            want = (a * x + b) / (c * x + d)
            assert abs(float(image) - want) < abs(float(conjugate) - want), (n, point)
            flips += image.root != point.payload.root
    assert len(points) == 36 and flips > 1000


def _decimal_reference(q: QuadraticNumber) -> float:
    """float() of q's root computed in 2,000-digit Decimals, apart from the
    library's isqrt."""
    with localcontext() as ctx:
        ctx.prec = 2000
        if not q.root:
            value = Decimal(-q.form[1]) / Decimal(q.form[0])
        else:
            a, b, c = map(Decimal, q.form)
            value = (-b + q.root * (b * b - 4 * a * c).sqrt()) / (2 * a)
        return float(value)


def test_float_matches_a_decimal_reference():
    # float() reads a form with one isqrt and no cancellation: it must be
    # within an ulp of the root, on the sweep's and chain-sized fixed points
    # (discriminants past float range, where the parts a + b sqrt(d) read
    # inf), on roots whose two terms nearly cancel, and on points past
    # float range, which read +-inf
    plane = HalfPlaneModel()
    points = [QuadraticNumber.of((1, -(2 * 10**30), -1), -1), QuadraticNumber.of((7, 3 * 10**40, -5), 1)]
    for m in [*sweep_matrices(), *chain_sized_matrices()]:
        cls = plane.classify(plane.own(m))
        if cls.is_hyperbolic:
            points += [bp.payload for bp in cls.hyperbolic.fixed_points if bp.payload is not None]
    a, b, c = max((q.form for q in points if q.root), key=lambda f: f[1] * f[1] - 4 * f[0] * f[2])
    assert (b * b - 4 * a * c).bit_length() > 1024
    for q in points:
        expected = _decimal_reference(q)
        assert abs(float(q) - expected) <= math.ulp(expected), q
    assert float(points[0]) == pytest.approx(-0.5e-30, rel=1e-15)
    far = 10**400
    past = [QuadraticNumber.of((1, -far)), QuadraticNumber.of((3, far)), QuadraticNumber.of((1, -far, -1), 1),
            QuadraticNumber.of((1, far, -1), -1)]
    assert [float(q) for q in past] == [math.inf, -math.inf, math.inf, -math.inf]
    assert float(QuadraticNumber.of((1, -far, -1), -1)) == 0.0  # -1/10^400: below the smallest float
