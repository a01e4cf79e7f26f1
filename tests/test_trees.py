import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.dynamics import internal_points
from hypiso.trees import BassSerreModel, CayleyTreeModel


@pytest.fixture
def cayley():
    return CayleyTreeModel(2)


@pytest.fixture
def bs23():
    return BassSerreModel(2, 3)


# -- Cayley tree ---------------------------------------------------------


def test_cayley_distance_word_formula(cayley):
    x = cayley.vertex([1, 2])       # ab
    y = cayley.vertex([1, 1, 2])    # aab
    assert cayley.distance(x, y).exact_value == 3
    assert cayley.distance(x, x).exact_value == 0


def test_cayley_bfs_oracle_agrees(cayley):
    ball = cayley.ball_vertices(3)
    for p, q in itertools.combinations(ball, 2):
        assert cayley.bfs_distance(p, q) == cayley.distance(p, q).exact_value


def test_cayley_ball_sizes(cayley):
    assert len(cayley.ball_vertices(0)) == 1
    assert len(cayley.ball_vertices(1)) == 5
    assert len(cayley.ball_vertices(2)) == 17
    assert len(cayley.ball_vertices(4)) == 161


def test_cayley_not_in_ball(cayley):
    # no ball bounds the model: the BFS oracle measures a vertex at any
    # depth, and the ball of any radius is walked
    far = cayley.vertex([1] * 9)
    assert cayley.bfs_distance(far, cayley.basepoint) == 9
    assert cayley.bfs_distance(cayley.vertex([2, 1]), far) == 11
    assert len(cayley.ball_vertices(7)) == cayley.ball_size(7) == 4373


def test_cayley_apply_left_multiplication(cayley):
    a = cayley.word([1])
    b_vertex = cayley.vertex([2])
    assert cayley.apply(a, b_vertex).coords == (1, 2)  # "ab"


def test_cayley_classification(cayley):
    assert cayley.classify(cayley.identity()).tag == "elliptic"
    one = cayley.classify(cayley.word([1]))
    assert one.tag == "hyperbolic"
    assert one.hyperbolic.translation_length.exact_value == 1
    conj = cayley.classify(cayley.word([1, 2, -1]))  # a b a^-1
    assert conj.hyperbolic.translation_length.exact_value == 1
    cyc = cayley.classify(cayley.word([1, 2]))
    assert cyc.hyperbolic.translation_length.exact_value == 2


def test_cayley_orbit_matches_cyclic_length(cayley):
    w = cayley.word([1, 2, -1, 2])  # cyclic reduction has length 4
    cls = cayley.classify(w)
    tau = cls.hyperbolic.translation_length.exact_value
    for n in (1, 2, 3):
        d = cayley.distance(cayley.basepoint, cayley.apply(cayley.power(w, n), cayley.basepoint))
        assert d.exact_value >= n * tau  # displacement dominates n*tau


def test_cayley_ray_equality(cayley):
    r1 = cayley.ray((), (1, 2))
    r2 = cayley.ray((1, 2), (1, 2))       # shifted one period: same end
    r3 = cayley.ray((), (2, 1))
    assert cayley.boundary_equal(r1, r2)
    assert not cayley.boundary_equal(r1, r3)


def test_cayley_ray_fold_cancellation(cayley):
    # prefix ends with the inverse of the period start: folding reduces it
    r = cayley.canonical_ray((1, -2), (2, 1))
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
    assert bs23.require_iso(prod) == ((0, 1),)
    sq = bs23.compose(st_word, st_word)
    assert bs23.require_iso(sq) == ((0, 1), (1, 1), (0, 1), (1, 1))


def test_bs_inverse(bs23):
    w = bs23.word([(0, 1), (1, 2)])
    assert bs23.require_iso(bs23.compose(w, bs23.invert(w))) == ()


def test_bs_classify_st_hyperbolic(bs23):
    cls = bs23.classify(bs23.word([(0, 1), (1, 1)]))
    assert cls.tag == "hyperbolic"
    assert cls.hyperbolic.translation_length.exact_value == 2


def test_bs_classify_sts_elliptic(bs23):
    cls = bs23.classify(bs23.word([(0, 1), (1, 1), (0, 1)]))
    assert cls.tag == "elliptic"
    assert cls.elliptic.period == 3  # conjugate of t, order 3
    fixed = cls.elliptic.orbit_point
    iso = bs23.word([(0, 1), (1, 1), (0, 1)])
    assert bs23.apply(iso, fixed) == fixed


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


def test_bs_orbit_translation_oracle(bs23):
    # d(root, (st)^n root) = 2n, verified against the BFS oracle in the ball
    st_word = bs23.word([(0, 1), (1, 1)])
    for n in (1, 2, 3):
        moved = bs23.apply(bs23.power(st_word, n), bs23.basepoint)
        d = bs23.distance(bs23.basepoint, moved).exact_value
        assert d == 2 * n
        assert bs23.bfs_distance(bs23.basepoint, moved) == d


def test_bs_distance_matches_bfs_everywhere(bs23):
    ball = bs23.ball_vertices(4)
    for p, q in itertools.combinations(ball, 2):
        assert bs23.bfs_distance(p, q) == bs23.distance(p, q).exact_value


def test_bs_vertex_degrees(bs23):
    # A-vertices have degree m=2, B-vertices degree n=3
    for coords in [c.coords for c in bs23.ball_vertices(2)]:
        deg = len(bs23._neighbors(coords))
        assert deg == (2 if coords[1] == 0 else 3)


def test_bs_median_is_gromov_product(bs23):
    ball = bs23.ball_vertices(3)
    for x, y, z in itertools.combinations(ball, 3):
        med = bs23.median(x, y, z)
        assert bs23.distance(x, med).exact_value == bs23.gromov_exact(y, z, x)


def test_bs_ray_shift_equal(bs23):
    per = ((0, 1), (1, 1))
    assert bs23.boundary_equal(bs23.ray((), per), bs23.ray(per, per))


def test_bs_isometry_invariance(bs23):
    g = bs23.word([(1, 2), (0, 1)])
    ball = bs23.ball_vertices(3)
    for p, q in itertools.combinations(ball[:8], 2):
        before = bs23.distance(p, q).exact_value
        after = bs23.distance(bs23.apply(g, p), bs23.apply(g, q)).exact_value
        assert before == after


def test_bs_elliptic_decay(bs23):
    # the elliptic witness vertex is fixed, so its orbit has diameter 0
    w = bs23.word([(0, 1), (1, 1), (0, 1)])  # conjugate of t, period 3
    cls = bs23.classify(w)
    fix = cls.elliptic.orbit_point
    cur = fix
    for _ in range(4 * cls.elliptic.period):
        cur = bs23.apply(w, cur)
        assert bs23.distance(fix, cur).exact_value <= cls.elliptic.orbit_diameter.exact_value
    # a generic point's orbit stays within 2 d(point, fixed vertex)
    base = bs23.basepoint
    bound = 2 * bs23.distance(base, fix).exact_value
    cur = base
    for _ in range(4 * cls.elliptic.period):
        cur = bs23.apply(w, cur)
        assert bs23.distance(base, cur).exact_value <= bound


def test_bs_conjugation_preserves_class(bs23):
    g = bs23.word([(0, 1), (1, 1)])
    h = bs23.word([(1, 2)])
    conj = bs23.compose(bs23.compose(h, g), bs23.invert(h))
    c1 = bs23.classify(g)
    c2 = bs23.classify(conj)
    assert c1.tag == c2.tag
    assert (
        c1.hyperbolic.translation_length.exact_value
        == c2.hyperbolic.translation_length.exact_value
    )


letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10)


@given(letters, letters)
@settings(max_examples=60)
def test_cayley_group_laws(a, b):
    model = CayleyTreeModel(2)
    u = model.word(a)
    v = model.word(b)
    uv = model.compose(u, v)
    assert model.require_iso(model.compose(uv, model.invert(v))) == model.require_iso(u)


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
        assert (
            c1.hyperbolic.translation_length.exact_value
            == c2.hyperbolic.translation_length.exact_value
        )


@given(st.lists(st.sampled_from([(0, 1), (1, 1), (1, 2)]), max_size=8))
@settings(max_examples=60)
def test_bs_power_scaling(syllables):
    model = BassSerreModel(2, 3)
    w = model.word(syllables)
    cls = model.classify(w)
    if not cls.is_hyperbolic:
        return
    tau = cls.hyperbolic.translation_length.exact_value
    for n in (2, 3):
        cn = model.classify(model.power(w, n))
        assert cn.hyperbolic.translation_length.exact_value == n * tau


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
        assert bs23.apply(w, cls.elliptic.orbit_point) == cls.elliptic.orbit_point


# -- the shared metric against the BFS oracle --------------------------------


def _bfs(model):
    """The BFS oracle, memoized per unordered pair."""
    cache = {}

    def d(p, q):
        key = frozenset((p, q))
        if key not in cache:
            cache[key] = model.bfs_distance(p, q)
        return cache[key]

    return d


def _check_internal_points(model, d, x, y, z):
    tri = internal_points(model, x, y, z)
    # the point on the side [a, b] opposite c sits at <b|c>_a from a
    for (a, b, c), p in zip(((y, z, x), (z, x, y), (x, y, z)), tri.internal):
        assert d(a, p) + d(p, b) == d(a, b)
        assert 2 * d(a, p) == d(a, b) + d(a, c) - d(b, c)
    med = model.median(x, y, z)
    assert tri.internal == (med, med, med)
    assert tri.insize.exact_value == 0


def test_internal_points_against_bfs():
    bs = BassSerreModel(2, 3)
    d = _bfs(bs)
    ball = bs.ball_vertices(4)
    for x, y, z in itertools.combinations(ball, 3):
        _check_internal_points(bs, d, x, y, z)
    cayley = CayleyTreeModel(2)
    d = _bfs(cayley)
    ball = cayley.ball_vertices(4)
    rng = random.Random(0)
    for _ in range(2000):
        _check_internal_points(cayley, d, *rng.sample(ball, 3))


@pytest.mark.parametrize(
    "model", [BassSerreModel(3, 4), CayleyTreeModel(3)],
    ids=lambda m: m.model_id,
)
def test_geodesic_and_root_path_against_bfs(model):
    d = _bfs(model)
    ball = model.ball_vertices(3)
    for p, q in itertools.combinations(ball[::3], 2):
        path = model.geodesic(p, q)
        assert path[0] == p and path[-1] == q and len(path) == d(p, q) + 1
        assert all(d(a, b) == 1 for a, b in zip(path, path[1:]))
    for p in ball:
        path = model.root_path(p)
        assert path[0] == model.basepoint and path[-1] == p
        assert [d(model.basepoint, v) for v in path] == list(range(len(path)))


@pytest.mark.parametrize(
    "model", [BassSerreModel(2, 3), BassSerreModel(3, 5), CayleyTreeModel(1), CayleyTreeModel(3)],
    ids=lambda m: m.model_id,
)
def test_ball_size_counts_the_ball(model):
    for radius in range(5):
        assert model.ball_size(radius) == len(model.ball_vertices(radius))


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
