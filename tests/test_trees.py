import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.actions import Action, ActionSystem
from hypiso.combiner import word_tree
from hypiso.dynamics import internal_points
from hypiso.geometry import lab
from hypiso.models import HYPOTHESIS_VIOLATION
from hypiso.records import witness_line
from hypiso.sampling import _random_bs_syllables, _random_cayley_word, random_elliptic, random_hyperbolic
from hypiso.trees import BassSerreModel, CayleyTreeModel, RayDescriptor, TreeModel

from reference import (
    bfs_distance,
    coset,
    coset_action,
    coset_vertex,
    fixed_vertices,
    geodesic,
    pairwise_distances_by_meets,
    power,
    reduced_words,
    sample_tree_points,
    tree_witness_line_reference,
    vertex,
)


@pytest.fixture
def cayley():
    return CayleyTreeModel(2)


@pytest.fixture
def bs23():
    return BassSerreModel(2, 3)


# -- Cayley tree ---------------------------------------------------------


def test_cayley_distance_word_formula(cayley):
    x = vertex(cayley, [1, 2])       # ab
    y = vertex(cayley, [1, 1, 2])    # aab
    assert lab(cayley).distance_key(x, y) == 3
    assert lab(cayley).distance_key(x, x) == 0


def test_cayley_bfs_oracle_agrees(cayley):
    ball = lab(cayley).ball_vertices(3)
    for p, q in itertools.combinations(ball, 2):
        assert bfs_distance(cayley, p, q) == lab(cayley).distance_key(p, q)


def test_cayley_ball_sizes(cayley):
    assert len(lab(cayley).ball_vertices(0)) == 1
    assert len(lab(cayley).ball_vertices(1)) == 5
    assert len(lab(cayley).ball_vertices(2)) == 17
    assert len(lab(cayley).ball_vertices(4)) == 161


def test_cayley_not_in_ball(cayley):
    # no ball bounds the model: the BFS oracle measures a vertex at any
    # depth, and the ball of any radius is walked
    far = vertex(cayley, [1] * 9)
    assert bfs_distance(cayley, far, lab(cayley).basepoint) == 9
    assert bfs_distance(cayley, vertex(cayley, [2, 1]), far) == 11
    assert len(lab(cayley).ball_vertices(7)) == lab(cayley).ball_size(7) == 4373


def test_cayley_apply_left_multiplication(cayley):
    a = cayley.word([1])
    b_vertex = vertex(cayley, [2])
    assert lab(cayley).apply(a, b_vertex).payload == (1, 2)  # "ab"


def test_cayley_classification(cayley):
    assert cayley.classify(cayley.identity()).tag == "elliptic"
    one = cayley.classify(cayley.word([1]))
    assert one.tag == "hyperbolic"
    assert one.hyperbolic.length == 1
    conj = cayley.classify(cayley.word([1, 2, -1]))  # a b a^-1
    assert conj.hyperbolic.length == 1
    cyc = cayley.classify(cayley.word([1, 2]))
    assert cyc.hyperbolic.length == 2


def test_cayley_orbit_matches_cyclic_length(cayley):
    w = cayley.word([1, 2, -1, 2])  # cyclic reduction has length 4
    cls = cayley.classify(w)
    tau = cls.hyperbolic.length
    geo = lab(cayley)
    for n in (1, 2, 3):
        d = geo.distance_key(geo.basepoint, geo.apply(power(cayley, w, n), geo.basepoint))
        assert d >= n * tau  # displacement dominates n*tau


def test_cayley_ray_equality(cayley):
    r1 = cayley.own(RayDescriptor((), (1, 2)))
    r2 = cayley.own(RayDescriptor((1, 2), (1, 2)))  # shifted one period: same end
    r3 = cayley.own(RayDescriptor((), (2, 1)))
    assert cayley.boundary_equal(r1, r2)
    assert not cayley.boundary_equal(r1, r3)


# hand-built rays, already folded, by model kind: pairs of them agree for
# longer than one's preperiod and two periods (b^inf and b^9 a^inf part at
# the tenth letter)
ALTERNATING = ((0, 1), (1, 1))
FOLDED_RAYS = {
    "cayley_tree": [((), (2,)), ((2,) * 9, (1,)), ((2,) * 9, (-1,)), ((1, 2), (2, 1)), ((-1,), (-2,))],
    "bass_serre": [((), ALTERNATING), (ALTERNATING * 4, ((0, 1), (1, 2))), ((), ((0, 1), (1, 2))),
                   (((1, 2),), ALTERNATING)],
}


def test_gromov_boundary_pair_against_deep_truncations():
    # <xi|eta>_w is <x|y>_w for vertices x and y far out on the two rays
    for model in (CayleyTreeModel(2), BassSerreModel(2, 3)):
        geo = lab(model)
        rays = [model.own(RayDescriptor(prefix, period)) for prefix, period in FOLDED_RAYS[model.kind]]
        for xi, eta in itertools.product(rays, repeat=2):
            far = [geo._vertex_from_units(model._ray_units(model.require(r), 60)) for r in (xi, eta)]
            for base in geo.ball_vertices(2):
                expected = math.inf if model.boundary_equal(xi, eta) else geo._gromov(*far, base.payload)
                assert geo.gromov_boundary_pair(xi, eta, base) == expected


def test_cayley_ray_fold_cancellation(cayley):
    # prefix ends with the inverse of the period start: folding reduces it
    r = cayley._fold((1, -2), (2, 1))
    stream = list(r.prefix) + list(r.period) * 3
    # reduced stream of 1 -2 | (2 1)^inf is 1 1 2 1 2 1 ...
    assert stream[:6] == [1, 1, 2, 1, 2, 1]


def test_cayley_fixed_rays_invariant(cayley):
    w = cayley.word([1, 2])
    cls = cayley.classify(w)
    plus = cls.hyperbolic.fixed_plus
    assert cayley.boundary_equal(cayley.boundary_apply(w, plus), plus)
    minus = cls.hyperbolic.fixed_minus
    assert cayley.boundary_equal(cayley.boundary_apply(w, minus), minus)
    assert not cayley.boundary_equal(plus, minus)


# -- Bass-Serre tree ------------------------------------------------------


def test_bs_normal_form_and_compose(bs23):
    st_word = bs23.word([(0, 1), (1, 1)])
    t2 = bs23.word([(1, 2)])
    prod = bs23.compose(st_word, t2)  # st . t^2 = s t^3 = s
    assert bs23.require(prod) == ((0, 1),)
    sq = bs23.compose(st_word, st_word)
    assert bs23.require(sq) == ((0, 1), (1, 1), (0, 1), (1, 1))


def test_bs_inverse(bs23):
    w = bs23.word([(0, 1), (1, 2)])
    assert bs23.require(bs23.compose(w, bs23.invert(w))) == ()


def test_normal_forms_refuse_units_outside_the_alphabet(cayley, bs23):
    for letter in (0, 3, -3):
        with pytest.raises(ValueError, match=f"^letter {letter} outside rank-2 alphabet$"):
            cayley.word([1, letter])
    with pytest.raises(ValueError, match="^bad factor 2$"):
        bs23.word([(0, 1), (2, 1)])


def test_bs_classify_st_hyperbolic(bs23):
    cls = bs23.classify(bs23.word([(0, 1), (1, 1)]))
    assert cls.tag == "hyperbolic"
    assert cls.hyperbolic.length == 2


def test_bs_classify_sts_elliptic(bs23):
    iso = bs23.word([(0, 1), (1, 1), (0, 1)])
    cls = bs23.classify(iso)
    assert cls.tag == "elliptic"
    assert cls.period == 3  # conjugate of t, order 3
    assert power(bs23, iso, 3) == bs23.identity() != iso
    # s t s fixes the vertex s.<t> at depth 2, and no vertex nearer the root
    assert [p.payload for p in fixed_vertices(bs23, iso, 4)] == [((0, 1),)]


def test_bs_no_parabolics(bs23):
    # every element classifies elliptic or hyperbolic
    words = [
        bs23.word(syl)
        for syl in (
            [], [(0, 1)], [(1, 1)], [(1, 2)], [(0, 1), (1, 1)], [(1, 2), (0, 1)],
            [(0, 1), (1, 1), (0, 1), (1, 2)], [(1, 1), (0, 1), (1, 2)],
        )
    ]
    for w in words:
        assert bs23.classify(w).tag in ("elliptic", "hyperbolic")


def test_sampled_tree_actions_have_no_parabolic_words():
    # the hypothesis check asks a tree model for no word: a tree automorphism
    # without inversions is elliptic or hyperbolic (Serre, Trees, I.6.4)
    rng = random.Random(0)
    for _ in range(20):
        for model in (BassSerreModel(rng.choice([2, 3]), rng.choice([3, 4])), CayleyTreeModel(rng.choice([2, 3]))):
            sample = random_elliptic if rng.random() < 0.4 else random_hyperbolic
            images = {"f": random_hyperbolic(model, rng), "g": sample(model, rng)}
            action = Action("tree", model, images)
            system = ActionSystem(("f", "g"), [action])
            for word in reduced_words(system.generators, 5):
                assert model.tag(action.image(word)) != HYPOTHESIS_VIOLATION
            assert model.parabolic_words([action.images[g] for g in system.generators], word_tree(4, 5)) == ()


def test_bs_orbit_translation_oracle(bs23):
    # d(root, (st)^n root) = 2n, verified against the BFS oracle in the ball
    st_word = bs23.word([(0, 1), (1, 1)])
    for n in (1, 2, 3):
        moved = lab(bs23).apply(power(bs23, st_word, n), lab(bs23).basepoint)
        d = lab(bs23).distance_key(lab(bs23).basepoint, moved)
        assert d == 2 * n
        assert bfs_distance(bs23, lab(bs23).basepoint, moved) == d


def test_bs_distance_matches_bfs_everywhere(bs23):
    ball = lab(bs23).ball_vertices(4)
    for p, q in itertools.combinations(ball, 2):
        assert bfs_distance(bs23, p, q) == lab(bs23).distance_key(p, q)


def test_bs_vertex_degrees(bs23):
    # A-vertices have degree m=2, B-vertices degree n=3
    for coords in [c.payload for c in lab(bs23).ball_vertices(2)]:
        deg = len(lab(bs23)._neighbors(coords))
        assert deg == (2 if len(coords) % 2 == 0 else 3)


@pytest.mark.parametrize("model", [BassSerreModel(2, 3), BassSerreModel(3, 4)], ids=lambda m: m.model_id)
def test_bs_labels_are_the_root_paths_of_cosets(model):
    # a vertex label is the root path of the coset (w, t) = w<t>: every
    # label of the ball maps to its coset and back, its length is its BFS
    # distance from the root, and apply moves it as g.(w, t) = (gw, t) does,
    # on the ball and on an orbit far out
    geo, rng = lab(model), random.Random(model.model_id)
    ball = geo.ball_vertices(4)
    assert len({coset(model, p.payload) for p in ball}) == len(ball) == geo.ball_size(4)
    for p in ball:
        assert coset_vertex(model, *coset(model, p.payload)) == p
        assert len(p.payload) == bfs_distance(model, geo.basepoint, p)
    deep, p, h = [], rng.choice(ball), random_hyperbolic(model, rng)
    for _ in range(30):
        p = geo.apply(h, p)
        deep.append(p)
    assert len(deep[-1].payload) >= 30
    for _ in range(20):
        g = model.normal_form(_random_bs_syllables(model, rng, rng.randint(0, 6)))
        for p in ball + deep:
            moved = geo.apply(model.own(g), p).payload
            assert coset(model, moved) == coset_action(model, g, coset(model, p.payload))


def test_bs_ray_shift_equal(bs23):
    per = ((0, 1), (1, 1))
    assert bs23.boundary_equal(bs23.own(RayDescriptor((), per)), bs23.own(RayDescriptor(per, per)))


def test_bs_isometry_invariance(bs23):
    g = bs23.word([(1, 2), (0, 1)])
    ball = lab(bs23).ball_vertices(3)
    for p, q in itertools.combinations(ball[:8], 2):
        before = lab(bs23).distance_key(p, q)
        after = lab(bs23).distance_key(lab(bs23).apply(g, p), lab(bs23).apply(g, q))
        assert before == after


def test_bs_elliptic_decay(bs23):
    # an elliptic element fixes a vertex, found in the ball by adjacency alone
    w = bs23.word([(0, 1), (1, 1), (0, 1)])  # conjugate of t, period 3
    cls = bs23.classify(w)
    [fix] = fixed_vertices(bs23, w, 4)
    # a generic point's orbit stays within 2 d(point, fixed vertex)
    base = lab(bs23).basepoint
    bound = 2 * bfs_distance(bs23, base, fix)
    cur = base
    for _ in range(4 * cls.period):
        cur = lab(bs23).apply(w, cur)
        assert lab(bs23).distance_key(base, cur) <= bound


def test_bs_conjugation_preserves_class(bs23):
    g = bs23.word([(0, 1), (1, 1)])
    h = bs23.word([(1, 2)])
    conj = bs23.compose(bs23.compose(h, g), bs23.invert(h))
    c1 = bs23.classify(g)
    c2 = bs23.classify(conj)
    assert c1.tag == c2.tag
    assert c1.hyperbolic.length == c2.hyperbolic.length


letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10)


@given(letters, letters)
@settings(max_examples=60)
def test_cayley_group_laws(a, b):
    model = CayleyTreeModel(2)
    u = model.word(a)
    v = model.word(b)
    uv = model.compose(u, v)
    assert model.require(model.compose(uv, model.invert(v))) == model.require(u)


@given(letters)
@settings(max_examples=60)
def test_cayley_classification_conjugation_invariant(a):
    model = CayleyTreeModel(2)
    w = model.word(a)
    h = model.word([2, 1])
    conj = model.compose(model.compose(h, w), model.invert(h))
    c1, c2 = model.classify(w), model.classify(conj)
    assert c1.tag == c2.tag
    if c1.is_hyperbolic:
        assert c1.hyperbolic.length == c2.hyperbolic.length


@given(st.lists(st.sampled_from([(0, 1), (1, 1), (1, 2)]), max_size=8))
@settings(max_examples=60)
def test_bs_power_scaling(syllables):
    model = BassSerreModel(2, 3)
    w = model.word(syllables)
    cls = model.classify(w)
    if not cls.is_hyperbolic:
        return
    tau = cls.hyperbolic.length
    for n in (2, 3):
        cn = model.classify(power(model, w, n))
        assert cn.hyperbolic.length == n * tau


@given(st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(min_value=-5, max_value=5)), max_size=10))
@settings(max_examples=80)
def test_bs_cyclic_reduce_reconstruction(raw):
    model = BassSerreModel(3, 4)
    w = model.normal_form(tuple(raw))
    u, v = model.cyclic_reduce(w)
    rebuilt = model.multiply(model.multiply(u, v), model.invert_word(u))
    assert rebuilt == w
    # v is syllable-cyclically reduced
    assert len(v) <= 1 or v[0][0] != v[-1][0]


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
@settings(max_examples=80)
def test_cayley_cyclic_reduce_reconstruction(raw):
    model = CayleyTreeModel(2)
    w = model.normal_form(tuple(raw))
    u, v = model.cyclic_reduce(w)
    rebuilt = model.multiply(model.multiply(u, v), model.invert_word(u))
    assert rebuilt == w
    assert not v or len(v) == 1 or v[0] != -v[-1]


@given(st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(min_value=-5, max_value=5)), max_size=10))
@settings(max_examples=80)
def test_bs_tag_matches_classify(raw):
    model = BassSerreModel(3, 4)
    iso = model.word(raw)
    assert model.tag(iso) == model.classify(iso).tag


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
@settings(max_examples=80)
def test_cayley_tag_matches_classify(raw):
    model = CayleyTreeModel(2)
    iso = model.word(raw)
    assert model.tag(iso) == model.classify(iso).tag


def test_bs_elliptic_fixed_vertex_long_conjugators(bs23):
    import random

    rng = random.Random(11)
    for _ in range(40):
        conj = []
        factor = rng.choice((0, 1))
        for _ in range(rng.randint(0, 4)):
            conj.append((factor, rng.randint(1, bs23.orders[factor] - 1)))
            factor = 1 - factor
        core_factor = rng.choice((0, 1))
        core = [(core_factor, rng.randint(1, bs23.orders[core_factor] - 1))]
        w = bs23.word(conj + core + list(bs23.invert_word(tuple(conj))))
        cls = bs23.classify(w)
        if cls.tag != "elliptic":
            continue  # cancellation may have produced a longer cyclic part
        # the conjugator moves the fixed vertex at most 5 steps from the root
        assert fixed_vertices(bs23, w, 6)
        period = cls.period
        assert power(bs23, w, period) == bs23.identity()
        assert all(power(bs23, w, k) != bs23.identity() for k in range(1, period))


# -- the shared metric against the BFS oracle --------------------------------


def _bfs(model):
    """The BFS oracle, memoized per unordered pair."""
    cache = {}

    def d(p, q):
        key = frozenset((p, q))
        if key not in cache:
            cache[key] = bfs_distance(model, p, q)
        return cache[key]

    return d


def _check_internal_points(geo, d, x, y, z):
    points, insize = internal_points(geo, x, y, z)
    # the point on the side [a, b] opposite c sits at <b|c>_a from a
    for (a, b, c), p in zip(((y, z, x), (z, x, y), (x, y, z)), points):
        assert d(a, p) + d(p, b) == d(a, b)
        assert 2 * d(a, p) == d(a, b) + d(a, c) - d(b, c)
    assert points[0] == points[1] == points[2]
    assert insize == 0


def test_internal_points_against_bfs():
    bs = BassSerreModel(2, 3)
    d, geo = _bfs(bs), lab(bs)
    ball = geo.ball_vertices(4)
    for x, y, z in itertools.combinations(ball, 3):
        _check_internal_points(geo, d, x, y, z)
    cayley = CayleyTreeModel(2)
    d, geo = _bfs(cayley), lab(cayley)
    ball = geo.ball_vertices(4)
    rng = random.Random(0)
    for _ in range(2000):
        _check_internal_points(geo, d, *rng.sample(ball, 3))


@pytest.mark.parametrize(
    "model", [BassSerreModel(3, 4), CayleyTreeModel(3)],
    ids=lambda m: m.model_id,
)
def test_geodesic_and_root_path_against_bfs(model):
    d = _bfs(model)
    ball = lab(model).ball_vertices(3)
    for p, q in itertools.combinations(ball[::3], 2):
        path = geodesic(model, p, q)
        assert path[0] == p and path[-1] == q and len(path) == d(p, q) + 1
        assert all(d(a, b) == 1 for a, b in zip(path, path[1:]))
    for p in ball:
        path = geodesic(model, lab(model).basepoint, p)  # the root path
        assert path[0] == lab(model).basepoint and path[-1] == p
        assert [d(lab(model).basepoint, v) for v in path] == list(range(len(path)))


@pytest.mark.parametrize(
    "model", [BassSerreModel(2, 3), BassSerreModel(3, 5), CayleyTreeModel(1), CayleyTreeModel(3)],
    ids=lambda m: m.model_id,
)
def test_ball_size_counts_the_ball(model):
    for radius in range(5):
        assert lab(model).ball_size(radius) == len(lab(model).ball_vertices(radius))


@pytest.mark.parametrize(
    "model",
    [CayleyTreeModel(1), CayleyTreeModel(2), CayleyTreeModel(3),
     BassSerreModel(2, 3), BassSerreModel(3, 4), BassSerreModel(2, 4)],
    ids=lambda m: m.model_id,
)
def test_pairwise_distances_match_the_pair_loop_and_bfs(model):
    rng = random.Random(model.model_id)
    radius = max(r for r in range(12) if lab(model).ball_size(r) <= 400)
    ball = lab(model).ball_vertices(radius)
    rng.shuffle(ball)
    g = random_hyperbolic(model, rng)
    orbit, p = [], ball[0]
    for n in range(1, 25):  # g^n p, deep and on one axis, off the ball
        p = lab(model).apply(g, p)
        orbit.append(p)
    repeats = rng.choices(ball, k=60)
    # the root, sampled mixed depths, the deepest one's root path and repeats:
    # prefixes that agree down to one level and part at the next, vertices
    # above a level, and one unit under different parents
    mixed = [lab(model).basepoint] + sample_tree_points(model, 40, rng)
    deepest = max((p.payload for p in mixed), key=len)
    mixed += [model.own(deepest[:k]) for k in range(len(deepest))]
    mixed += rng.choices(mixed, k=10)
    rng.shuffle(mixed)
    assert len({len(p.payload) for p in mixed}) > 5
    for points in (ball, repeats, orbit + ball[:20], mixed, [ball[0]], []):
        assert lab(model).pairwise_distances(points).tolist() == pairwise_distances_by_meets(model, points)
    if isinstance(model, BassSerreModel):  # root paths through <t> and not
        assert {p.payload[:1] == ((0, 0),) for p in ball} == {True, False}
    few = repeats[:16] + ball[:8]
    if lab(model).ball_size(max(len(p.payload) for p in orbit)) <= 5000:
        few += orbit[::4]
    assert lab(model).pairwise_distances(few).tolist() == [[bfs_distance(model, p, q) for q in few] for p in few]


@pytest.mark.parametrize(
    "model", [CayleyTreeModel(2), CayleyTreeModel(3), BassSerreModel(2, 3), BassSerreModel(3, 4)],
    ids=lambda m: m.model_id,
)
def test_tree_lengths_are_floats_of_their_integers(model):
    # a tree's distance is the float of its edge count (distance_key), and
    # a hyperbolic class's translation length the float of its integer
    # length, on the ball, on sampled vertices and on sampled words
    rng, geo = random.Random(model.model_id), lab(model)
    points = geo.ball_vertices(3) + sample_tree_points(model, 40, rng)
    for p, q in itertools.product(points, points[::5]):
        d = geo.distance(p, q)
        assert type(d) is float and d == geo.distance_key(p, q)
    draw = _random_cayley_word if isinstance(model, CayleyTreeModel) else _random_bs_syllables
    words = [model.word(draw(model, rng, n)) for n in range(1, 13) for _ in range(8)]
    words += [random_hyperbolic(model, rng) for _ in range(20)]
    hyperbolic = [cls.hyperbolic for cls in map(model.classify, words) if cls.is_hyperbolic]
    assert len(hyperbolic) >= 20
    for h in hyperbolic:
        assert type(h.translation_length) is float and h.translation_length == h.length


def _short_hyperbolic_classes(model, units):
    """The classes of the hyperbolic reduced words of at most 4 units, by word payload."""
    words = {model.word(w) for n in range(5) for w in itertools.product(units, repeat=n)}
    return {w.payload: model.classify(w) for w in words if model.tag(w) == "hyperbolic"}


def test_tree_classes_are_equal_exactly_when_their_lengths_and_rays_are(monkeypatch):
    # a class keeps its word's cyclic core and folds its rays when read: over
    # every reduced word of length <= 4, two classes compare equal exactly
    # when (length, fixed_points) do and hash equal then, and a set of them,
    # which hashes and compares cores, folds no ray; a class of a second
    # model with the same id equals its twin, and one of another id with
    # the same word differs
    def no_fold(*args):
        raise AssertionError("a ray was folded")

    for model, units, twin, other, count in (
        (CayleyTreeModel(2), (1, -1, 2, -2), CayleyTreeModel(2), CayleyTreeModel(3), 160),
        (BassSerreModel(2, 3), ((0, 1), (1, 1), (1, 2)), BassSerreModel(2, 3), BassSerreModel(2, 4), 14),
        (BassSerreModel(3, 4), ((0, 1), (0, 2), (1, 1), (1, 2), (1, 3)), BassSerreModel(3, 4), BassSerreModel(4, 4), 102),
    ):
        classes = _short_hyperbolic_classes(model, units)
        assert len(classes) == count
        keys = {payload: (c.hyperbolic.length, c.hyperbolic.fixed_points) for payload, c in classes.items()}
        for p, c in classes.items():
            for q, d in classes.items():
                assert (c == d) == (keys[p] == keys[q]) == (c.hyperbolic == d.hyperbolic) != (c != d)
                if c == d:
                    assert hash(c) == hash(d)
        with monkeypatch.context() as patched:
            patched.setattr(TreeModel, "_fold", no_fold)
            distinct = len(set(keys.values()))
            assert len(set(classes.values())) == len({c.hyperbolic for c in classes.values()}) == distinct
        for second, equal in ((twin, True), (other, False)):
            for payload, c in classes.items():
                d = second.classify(second.own(payload))
                assert (c == d) is equal is not (c != d)
                if d.is_hyperbolic:  # a word of another model may be elliptic there
                    h, k = c.hyperbolic, d.hyperbolic
                    assert ((h.length, h.fixed_points) == (k.length, k.fixed_points)) is (h == k) is equal
                    assert (h != k) is not equal and (hash(h) == hash(k) or not equal)


def test_a_tree_class_shows_the_same_repr_in_every_run():
    # a class holds its model, which shows its id, not a memory address
    model = BassSerreModel(2, 3)
    cls = model.classify(model.word([(0, 1), (1, 1)]))
    assert repr(cls.hyperbolic) == "TreeHyperbolic(length=2, u=(), v=((0, 1), (1, 1)), model=bass_serre(m=2,n=3))"
    assert repr(CayleyTreeModel(2)) == "cayley_tree(rank=2)"


# -- word text ----------------------------------------------------------------


def test_tree_word_text_round_trip():
    cayley = CayleyTreeModel(3)
    assert cayley.word_display(()) == "1"
    for text in ("a", "a^2 b^-1 c", "c^-3 a b^5"):
        w = cayley.parse_word(text)
        assert cayley.word_display(w.payload) == text
        assert cayley.parse_word(cayley.word_display(w.payload)) == w
    bs = BassSerreModel(3, 4)
    assert bs.word_display(()) == "1"
    for text in ("s", "s^2 t^3 s", "t s^2"):
        w = bs.parse_word(text)
        assert bs.word_display(w.payload) == text
    assert bs.word_display(bs.parse_word("s^-1 t^5").payload) == "s^2 t"


def test_cayley_names_every_letter_up_to_rank_26():
    top = CayleyTreeModel(26)
    assert top.word_display(top.word([26, -1]).payload) == "z a^-1"
    assert top.parse_word("z a^-1") == top.word([26, -1])
    with pytest.raises(ValueError, match="rank must be <= 26"):
        CayleyTreeModel(27)


def test_cayley_parse_rejects_names_that_are_not_letters():
    cayley = CayleyTreeModel(3)
    for text in ("ab", "^2", "d"):
        with pytest.raises(ValueError, match="unknown letter"):
            cayley.parse_word(text)


# -- junction products against one-letter-at-a-time reduction -----------------


def _letter_product(u: tuple, v: tuple) -> tuple:
    """Free reduction of u.v, pushing one letter at a time."""
    out = list(u)
    for letter in v:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _syllable_product(model: BassSerreModel, u: tuple, v: tuple) -> tuple:
    """The normal form of u.v, pushing one syllable at a time."""
    out = list(u)
    for factor, exp in v:
        order = model.orders[factor]
        if out and out[-1][0] == factor:
            exp = (out.pop()[1] + exp) % order
        if exp % order:
            out.append((factor, exp % order))
    return tuple(out)


cayley_letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=14)
bs_syllables = st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(-7, 7)), max_size=12)


@given(cayley_letters, cayley_letters, st.integers(0, 14))
@settings(max_examples=200)
def test_cayley_junction_product_matches_letter_reduction(a, b, k):
    model = CayleyTreeModel(3)
    u = model.normal_form(a)
    # v opens with the inverse of u's last k letters, so the junction cancels them
    v = model.normal_form(model.invert_word(u[len(u) - min(k, len(u)):]) + tuple(b))
    for x, y in ((u, v), (v, u), (u, u), (u, model.invert_word(u))):
        assert model.multiply(x, y) == _letter_product(x, y)


@given(st.sampled_from([(2, 3), (3, 4)]), bs_syllables, bs_syllables, st.integers(0, 12),
       st.tuples(st.sampled_from([0, 1]), st.integers(0, 3)))
@settings(max_examples=200)
def test_bs_junction_product_matches_syllable_reduction(orders, a, b, k, nudge):
    model = BassSerreModel(*orders)
    u = model.normal_form(a)
    # v opens with the inverse of u's last k syllables, the innermost one
    # nudged: merges to 0 cascade through them, then one merge or none
    head = model.invert_word(u[len(u) - min(k, len(u)):])
    v = model.normal_form(head + (nudge,) + tuple(b))
    for x, y in ((u, v), (v, u), (u, u), (u, model.invert_word(u)), (u, head)):
        assert model.multiply(x, y) == _syllable_product(model, x, y)


def test_bs_junction_product_cascades_to_a_merge():
    model = BassSerreModel(3, 4)
    u = ((0, 1), (1, 2), (0, 2), (1, 3))
    v = ((1, 1), (0, 1), (1, 1), (0, 1))  # cancels (1,3), (0,2), then (1,2)+(1,1) = (1,3)
    assert model.multiply(u, v) == ((0, 1), (1, 3), (0, 1)) == _syllable_product(model, u, v)


# -- rays against their unit streams ------------------------------------------


def _reduced_words(model, length: int) -> list[tuple]:
    """Every reduced word of up to length units, shortest first."""
    units = model.letters() if isinstance(model, CayleyTreeModel) else [
        (factor, e) for factor, order in enumerate(model.orders) for e in range(1, order)]
    words = {model.normal_form(w) for n in range(length + 1) for w in itertools.product(units, repeat=n)}
    return sorted(words, key=lambda w: (len(w), w))


def _rays(model, length: int) -> list:
    """The fixed points of the hyperbolic classes of the reduced words of up
    to length units, and the hand-built folded rays."""
    rays = {RayDescriptor(prefix, period) for prefix, period in FOLDED_RAYS[model.kind]}
    for w in _reduced_words(model, length):
        cls = model.classify(model.own(w))
        if cls.is_hyperbolic:
            rays.update(model.require(b) for b in cls.hyperbolic.fixed_points)
    return sorted(rays, key=lambda r: (len(r.prefix), len(r.period), r.prefix, r.period))


# the models, with the longest word whose axis ends are tested: rank 3's
# words of length 4 would give 936 rays and several seconds of checks
RAY_MODELS = [(CayleyTreeModel(2), 4), (CayleyTreeModel(3), 3), (BassSerreModel(2, 3), 4), (BassSerreModel(3, 4), 4)]
RAY_IDS = ["cayley2", "cayley3", "bs23", "bs34"]


@pytest.mark.parametrize("model, length", RAY_MODELS, ids=RAY_IDS)
def test_tree_ray_images_follow_their_unit_streams(model, length):
    # g . xi keeps xi's period, with a reduced junction, and its units are
    # the reduced stream of g followed by xi's units, for every reduced g of
    # up to 3 units
    for xi in _rays(model, length):
        b, units = model.own(xi), model._ray_units(xi, 63)
        for g in _reduced_words(model, 3):
            eta = model.require(model.boundary_apply(model.own(g), b))
            assert eta.period == xi.period
            assert len(model.multiply(eta.prefix, eta.period)) == len(eta.prefix) + len(eta.period)
            assert model._ray_units(eta, 60) == model.normal_form(g + units[: 60 + len(g)])[:60]


@pytest.mark.parametrize("model, length", RAY_MODELS, ids=RAY_IDS)
def test_tree_rays_are_equal_exactly_when_their_streams_agree(model, length):
    # every preperiod and period here is far below 200 units, so two rays
    # are the same end exactly when their first 200 units agree
    rays = [(model.own(r), model._ray_units(r, 200)) for r in _rays(model, length)]
    for (b1, s1), (b2, s2) in itertools.product(rays, repeat=2):
        assert model.boundary_equal(b1, b2) == (s1 == s2)


@pytest.mark.parametrize(
    "model", [CayleyTreeModel(2), CayleyTreeModel(3), BassSerreModel(2, 3), BassSerreModel(2, 4), BassSerreModel(3, 4)],
    ids=lambda m: m.model_id,
)
def test_witness_lines_match_the_ray_reference(model):
    # a witness line prints each ray from its class's core, folded once, and
    # displays each word in one pass; over every hyperbolic class of every
    # reduced word of up to 5 units it is the line of rays read through
    # fixed_points and words displayed by format_powers.  The sweep holds
    # cores with an empty u, Cayley runs of 3 or more letters, and
    # Bass-Serre minus rays whose fold absorbs a period (u ends in the
    # factor of v^-1's first syllable)
    empty_u = long_runs = absorbed = 0
    for w in _reduced_words(model, 5):
        cls = model.classify(model.own(w))
        if not cls.is_hyperbolic:
            continue
        assert witness_line(4, "w", model, cls) == tree_witness_line_reference(4, "w", model, cls), w
        h = cls.hyperbolic
        empty_u += not h.u
        long_runs += any(x == y == z for x, y, z in zip(w, w[1:], w[2:]))
        absorbed += model._fold(h.u, model.invert_word(h.v)).prefix != h.u
    assert empty_u
    if isinstance(model, CayleyTreeModel):
        assert long_runs and not absorbed  # a Cayley core's rays never fold
    else:
        assert absorbed
