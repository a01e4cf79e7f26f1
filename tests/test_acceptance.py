"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (or `pytest -v -s` to see the
per-criterion lines inline).  Expected values tagged as derived in the
criteria are computed by independent in-test oracles (raw matrix
arithmetic, BFS sweeps, direct enumeration) before being compared with the
library's output.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from hypiso.actions import Action, ActionSystem
from hypiso.combiner import (
    Certificate,
    SearchSchedule,
    independent,
    simultaneous_hyperbolic,
    verify_certificate,
)
from hypiso.dynamics import internal_points, ns_dynamics_check
from hypiso.geometry import estimate_delta_four_point, lab
from hypiso.halfplane import HalfPlaneModel
from hypiso.sampling import (
    random_action_system,
    random_bs_elliptic,
    random_bs_hyperbolic,
    random_cayley_hyperbolic,
    random_plane_elliptic,
    random_plane_hyperbolic,
    rng_from_seed,
    sample_plane_points,
)
from hypiso.records import class_invariant
from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord

from reference import Neighborhood, four_point_defect, power, sample_points, separation_witnesses


def _pass(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def worked_system() -> ActionSystem:
    p1, p2 = HalfPlaneModel(), HalfPlaneModel()
    a1 = Action("one", p1, {"f": p1.matrix(2, 1, 1, 1), "g": p1.matrix(0, -1, 1, 0)})
    a2 = Action("two", p2, {"f": p2.matrix(0, -1, 1, 0), "g": p2.matrix(2, 1, 1, 1)})
    return ActionSystem(("f", "g"), [a1, a2], [GroupWord.parse("f"), GroupWord.parse("g")])


# -- 1. worked instance ---------------------------------------------------


def _matmul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _matpow(m, k):
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for _ in range(k):
        out = _matmul(out, m)
    return out


def test_acceptance_worked_instance():
    """Two-action PSL2 system: word with exponents <= 4 and |trace| > 2 in
    both actions, |trace| = 7 for f^2 g^2; runtime < 1 s."""
    F = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    R = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))

    # independent oracle: exhaustive trace table for f^a g^b, a, b <= 4
    oracle = {}
    for a in range(5):
        for b in range(5):
            rho1 = _matmul(_matpow(F, a), _matpow(R, b))
            rho2 = _matmul(_matpow(R, a), _matpow(F, b))
            oracle[(a, b)] = (rho1[0][0] + rho1[1][1], rho2[0][0] + rho2[1][1])
    assert oracle[(2, 2)] == (Fraction(-7), Fraction(-7))
    assert abs(oracle[(1, 1)][0]) == 0  # f g is elliptic in action one

    start = time.perf_counter()
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(32))
    elapsed = time.perf_counter() - start

    exponents = dict(cert.word.syllables)
    assert set(exponents) <= {"f", "g"}
    assert all(1 <= e <= 4 for e in exponents.values())
    a, b = exponents.get("f", 0), exponents.get("g", 0)
    tr1, tr2 = oracle[(a, b)]
    assert abs(tr1) > 2 and abs(tr2) > 2
    assert cert.word.display() == "f^2 g^2"
    assert abs(tr1) == 7 and abs(tr2) == 7
    for cls in cert.per_action:
        assert class_invariant(cls) == "cosh-half=7/2"
    assert elapsed < 1.0
    _pass("worked-instance", f"word {cert.word.display()}, |traces| = 7, {elapsed:.3f}s")


# -- 2. theorem at desk scale ----------------------------------------------


def test_acceptance_theorem_desk_scale():
    """100 seeded random systems (2-4 actions, mixed models, height <= 10,
    valid witnesses, hypothesis check passing): all succeed at cap 32 and
    every certificate re-verifies; total runtime < 60 s."""
    start = time.perf_counter()
    schedule = SearchSchedule(32)
    successes = 0
    for seed in range(100):
        system = random_action_system(seed)
        cert = simultaneous_hyperbolic(system, schedule)
        assert verify_certificate(system, cert), f"seed {seed} failed re-verification"
        successes += 1
    elapsed = time.perf_counter() - start
    assert successes == 100
    assert elapsed < 60.0
    _pass("theorem-desk-scale", f"100/100 combined and re-verified in {elapsed:.2f}s")


# -- 3. exact vs estimate -----------------------------------------------------


def _orbit_growth(model, iso, n: int) -> float:
    """d(x, g^n x)/n at the basepoint x: never below the translation length,
    and above it by at most 2 d(x, axis)/n."""
    x = lab(model).basepoint
    geo = lab(model)
    return geo.distance(x, geo.apply(power(model, iso, n), x)) / n


def test_acceptance_exact_vs_estimate():
    """Orbit-growth estimate at n = 64 within 0.1 of the exact value for 200
    random hyperbolic elements per model; < 0.1 for elliptic elements."""
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3)
    cayley = CayleyTreeModel(2)

    worst = {}
    rng = rng_from_seed(0)
    for name, model, sampler in (
        ("half_plane", plane, random_plane_hyperbolic),
        ("bass_serre", bs, random_bs_hyperbolic),
        ("cayley_tree", cayley, random_cayley_hyperbolic),
    ):
        errs = []
        for _ in range(200):
            iso = sampler(model, rng)
            exact = model.classify(iso).hyperbolic.translation_length
            errs.append(abs(_orbit_growth(model, iso, 64) - exact))
        worst[name] = max(errs)
        assert worst[name] <= 0.1, (name, worst[name])

    elliptic_worst = {}
    for name, model, sampler in (
        ("half_plane", plane, random_plane_elliptic),
        ("bass_serre", bs, random_bs_elliptic),
    ):
        vals = []
        for _ in range(200):
            vals.append(_orbit_growth(model, sampler(model, rng), 64))
        elliptic_worst[name] = max(vals)
        assert elliptic_worst[name] < 0.1, (name, elliptic_worst[name])
    # free actions: the only elliptic element of the Cayley tree is the identity
    assert _orbit_growth(cayley, cayley.identity(), 64) == 0.0

    _pass(
        "exact-vs-estimate",
        "hyperbolic worst "
        + ", ".join(f"{k}={v:.4f}" for k, v in worst.items())
        + "; elliptic worst "
        + ", ".join(f"{k}={v:.4f}" for k, v in elliptic_worst.items()),
    )


# -- 4. tree delta and insize exactly zero ------------------------------------


def _exhaustive_four_point_zero(model, ball) -> None:
    """Exhaustive oracle: integer four-point defects for every 4-tuple.

    The library estimator fixes one base per call; the oracle sweeps every
    base over the precomputed exact distance matrix, and the estimator is
    then spot-tied to the oracle on a dozen bases.
    """
    geo, n = lab(model), len(ball)
    D = np.zeros((n, n), dtype=np.int8)  # radius 4: distances at most 8, so every G2 and defect fits
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = int(geo.distance_key(ball[i], ball[j]))
    for b in range(n):
        G2 = D[b][:, None] + D[b][None, :] - D
        maxmin = np.minimum(G2[:, :, None], G2[None, :, :]).max(axis=1)
        assert (maxmin - G2).max() == 0
    for b in range(0, n, max(1, n // 12)):
        assert estimate_delta_four_point(geo, ball, ball[b]) == 0.0


def test_acceptance_tree_delta_zero():
    """Four-point estimator exactly 0 over every 4-tuple of the radius-4
    ball in both tree models; insize exactly 0 on every vertex triple."""
    bs = BassSerreModel(2, 3)
    cayley = CayleyTreeModel(2)

    geo = lab(bs)
    ball_bs = geo.ball_vertices(4)
    _exhaustive_four_point_zero(bs, ball_bs)
    for x, y, z in itertools.combinations(ball_bs, 3):
        assert internal_points(geo, x, y, z)[1] == 0

    geo = lab(cayley)
    ball_c = geo.ball_vertices(4)
    _exhaustive_four_point_zero(cayley, ball_c)
    count = 0
    for x, y, z in itertools.combinations(ball_c, 3):
        assert internal_points(geo, x, y, z)[1] == 0
        count += 1
    assert count == len(ball_c) * (len(ball_c) - 1) * (len(ball_c) - 2) // 6
    _pass(
        "tree-delta-zero",
        f"bass_serre ball {len(ball_bs)} and cayley ball {len(ball_c)}: "
        f"all 4-tuples defect 0, all {count} triples insize 0",
    )


# -- 5. plane delta bound -----------------------------------------------------


def test_acceptance_plane_delta_bound():
    """Four-point estimate over 200 seeded rational points <= 1.0 and
    sampled insizes <= 1.0."""
    geo = lab(HalfPlaneModel())
    pts = sample_plane_points(geo, 200, rng_from_seed(0))
    delta = estimate_delta_four_point(geo, pts, geo.basepoint)
    assert 0.0 <= delta <= 1.0
    worst_insize = 0.0
    rng = rng_from_seed(1)
    tripts = sample_plane_points(geo, 302, rng)
    count = 0
    for i in range(300):
        x, y, z = tripts[i], tripts[i + 1], tripts[i + 2]
        if x.payload == y.payload or y.payload == z.payload or x.payload == z.payload:
            continue
        worst_insize = max(worst_insize, internal_points(geo, x, y, z)[1])
        count += 1
    assert worst_insize <= 1.0
    _pass(
        "plane-delta-bound",
        f"four-point {delta:.4f} over 200 points; max insize {worst_insize:.4f} over {count} triangles",
    )


# -- 6. Gromov product inequality ----------------------------------------------


def test_acceptance_gromov_inequality():
    """Zero violations beyond delta^ + 2^-20 over 10^4 sampled quadruples
    per model (delta^ = max defect of the same sample)."""
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3)
    cayley = CayleyTreeModel(2)
    for name, model in (("half_plane", plane), ("bass_serre", bs), ("cayley_tree", cayley)):
        rng = rng_from_seed(13)
        pts = sample_points(model, 40, rng)
        quads = [
            (rng.randrange(40), rng.randrange(40), rng.randrange(40), rng.randrange(40))
            for _ in range(10**4)
        ]
        defects = [
            four_point_defect(model, pts[i], pts[j], pts[k], pts[b]) for i, j, k, b in quads
        ]
        delta_hat = max(defects)
        if name != "half_plane":
            assert delta_hat <= 0.0  # trees: exact zero hyperbolicity defect
        violations = sum(1 for d in defects if d > delta_hat + 2**-20)
        assert violations == 0
        _pass(f"gromov-inequality[{name}]", f"10^4 quadruples, delta^ = {max(0.0, delta_hat):.4f}, 0 violations")


# -- 7. North-South dynamics -----------------------------------------------------


def _ns_elements(model, rng, count):
    out = []
    guard = 0
    while len(out) < count and guard < 20 * count:
        guard += 1
        if isinstance(model, HalfPlaneModel):
            iso = random_plane_hyperbolic(model, rng)
        elif isinstance(model, BassSerreModel):
            iso = random_bs_hyperbolic(model, rng)
        else:
            iso = random_cayley_hyperbolic(model, rng)
        cls = model.classify(iso)
        mutual = lab(model).gromov_boundary_pair(
            cls.hyperbolic.fixed_plus, cls.hyperbolic.fixed_minus, lab(model).basepoint
        )
        if mutual <= 1.0:  # admissible for threshold k = 1 neighborhoods
            out.append((iso, cls))
    assert len(out) == count
    return out


def test_acceptance_north_south():
    """For 20 certified hyperbolic elements per model with k = 1 threshold
    neighborhoods around the exact fixed points, ns_dynamics_check finds
    N <= 64."""
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3)
    cayley = CayleyTreeModel(2)
    worst = {}
    for name, model, seed in (("half_plane", plane, 21), ("bass_serre", bs, 22), ("cayley_tree", cayley, 23)):
        rng = rng_from_seed(seed)
        geo = lab(model)
        if isinstance(model, HalfPlaneModel):
            sample = sample_plane_points(geo, 24, rng)
        else:
            sample = geo.ball_vertices(3)
        found = []
        for iso, _ in _ns_elements(model, rng, 20):
            n = ns_dynamics_check(geo, iso, 1.0, sample, 64)
            assert 1 <= n <= 64
            found.append(n)
        worst[name] = max(found)
    _pass("north-south", "max N per model " + ", ".join(f"{k}={v}" for k, v in worst.items()))


# -- 8. independence and separation ------------------------------------------------


def _independent_pair(model, rng):
    while True:
        if isinstance(model, HalfPlaneModel):
            f, g = random_plane_hyperbolic(model, rng), random_plane_hyperbolic(model, rng)
        elif isinstance(model, BassSerreModel):
            f, g = random_bs_hyperbolic(model, rng), random_bs_hyperbolic(model, rng)
        else:
            f, g = random_cayley_hyperbolic(model, rng), random_cayley_hyperbolic(model, rng)
        act = Action("m", model, {"f": f, "g": g})
        wf, wg = GroupWord.generator("f"), GroupWord.generator("g")
        cls_f = model.classify(f)
        cls_g = model.classify(g)
        if not independent(model, cls_f, cls_g):
            continue
        centers = [
            cls_f.hyperbolic.fixed_plus,
            cls_f.hyperbolic.fixed_minus,
            cls_g.hyperbolic.fixed_plus,
            cls_g.hyperbolic.fixed_minus,
        ]
        mutual = max(
            lab(model).gromov_boundary_pair(p, q, lab(model).basepoint)
            for p, q in itertools.combinations(centers, 2)
        )
        if mutual <= 1.0:
            return act, wf, wg, cls_f, cls_g


def _prop42_construction(model, act, wf, wg, cls_f, cls_g, base_sample):
    """Executable version of the independent-pair neighborhood argument:
    mutually disjoint threshold neighborhoods around the four fixed points
    (threshold = mutual Gromov products + a 1.2 hyperbolicity margin) and a
    power bound N covering both the sampled points and the boundary center
    of U+ (the sampled North-South bound alone says nothing about how fast
    g^k moves the boundary point A+ into V+)."""
    base = lab(model).basepoint
    a_plus, a_minus = cls_f.hyperbolic.fixed_plus, cls_f.hyperbolic.fixed_minus
    b_plus, b_minus = cls_g.hyperbolic.fixed_plus, cls_g.hyperbolic.fixed_minus
    centers = [a_plus, a_minus, b_plus, b_minus]
    mutual = max(
        lab(model).gromov_boundary_pair(p, q, base) for p, q in itertools.combinations(centers, 2)
    )
    k_sep = mutual + 1.2
    u_plus = Neighborhood(a_plus, k_sep, base)
    u_minus = Neighborhood(a_minus, k_sep, base)
    # deep points of U+ so the separation check has interior content
    f_img = act.image(wf)
    deep = []
    cur = base
    for _ in range(6):
        cur = lab(model).apply(f_img, cur)
        deep.append(cur)
    sample = list(base_sample) + deep
    # V+ and V- are N(b_plus, k_sep) and N(b_minus, k_sep), g's own ends
    n_sample = ns_dynamics_check(lab(model), act.image(wg), k_sep, sample, 64)
    # boundary bound: g^m A+ must have entered V+ and stay there
    n_center = 1
    for m in range(1, 65):
        moved = model.boundary_apply(act.image(wg**m), a_plus)
        if lab(model).gromov_boundary_pair(moved, b_plus, base) <= k_sep:
            n_center = m + 1
    return u_plus, u_minus, max(n_sample, n_center), sample


def test_acceptance_independence_separation():
    """20 constructed independent pairs: separation holds at all tested
    powers above the N given by the neighborhood construction; 20 dependent
    pairs (powers/inverses) are never reported independent."""
    plane = HalfPlaneModel()
    bs = BassSerreModel(2, 3)
    cayley = CayleyTreeModel(2)
    models = [("half_plane", plane, 31), ("bass_serre", bs, 32), ("cayley_tree", cayley, 33)]

    checked_pairs = 0
    for name, model, seed in models:
        rng = rng_from_seed(seed)
        if isinstance(model, HalfPlaneModel):
            base_sample = sample_plane_points(lab(model), 24, rng)
            pairs = 8
        else:
            base_sample = lab(model).ball_vertices(3)
            pairs = 6
        for _ in range(pairs):
            act, wf, wg, cls_f, cls_g = _independent_pair(model, rng)
            u_plus, u_minus, n, sample = _prop42_construction(
                model, act, wf, wg, cls_f, cls_g, base_sample
            )
            assert n <= 64, (name, n)
            for k in range(n, n + 4):
                assert not separation_witnesses(act, wg**k, u_plus, u_minus, sample), (name, k)
            checked_pairs += 1
    assert checked_pairs == 20

    dependent_checked = 0
    for name, model, seed in models:
        rng = rng_from_seed(seed + 100)
        for _ in range(7):
            if dependent_checked >= 20:
                break
            if isinstance(model, HalfPlaneModel):
                iso = random_plane_hyperbolic(model, rng)
            elif isinstance(model, BassSerreModel):
                iso = random_bs_hyperbolic(model, rng)
            else:
                iso = random_cayley_hyperbolic(model, rng)
            act = Action("m", model, {"f": iso})
            wf = GroupWord.generator("f")
            cls_f = act.classify_word(wf)
            assert not independent(model, cls_f, act.classify_word(wf * wf))
            assert not independent(model, cls_f, act.classify_word(wf.inverse()))
            dependent_checked += 1
    assert dependent_checked == 20
    _pass("independence-separation", "20 independent pairs separated; 20 dependent pairs rejected")


# -- 9. negative control ----------------------------------------------------------


def test_acceptance_negative_control():
    """Mutating the worked certificate's word to f^1 g^1 (trace 0 in action
    one) makes verify_certificate return False."""
    system = worked_system()
    cert = simultaneous_hyperbolic(system, SearchSchedule(8))
    assert verify_certificate(system, cert)
    # exact oracle: trace of rho_1(f g) is 0
    F = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    R = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    prod = _matmul(F, R)
    assert prod[0][0] + prod[1][1] == 0
    mutated = Certificate(
        word=GroupWord.parse("f g"),
        stages=cert.stages,
        per_action=cert.per_action,
        images=cert.images,
    )
    assert not verify_certificate(system, mutated)
    _pass("negative-control", "f^1 g^1 rejected (trace 0 in action one)")
