"""Action.image and SpaceModel._power compose bare payloads, and the image
is wrapped once; these tests pin them to the public, tag-checked surface,
and the size cap they keep, from a bound on each product's size, to the
cap checked on every product.  The search images its candidates f^a g^b
with Action.image too, in an action sending the letters f and g to the
images F and G."""

import math
import random
from fractions import Fraction

import pytest

from hypiso.actions import Action, ActionSystem
from hypiso.errors import MixedModels, ValidationError
from hypiso.geometry import lab
from hypiso.halfplane import HalfPlaneModel, Matrix2
from hypiso.models import MAX_ISOMETRY_SIZE, SpaceModel
from hypiso.trees import BassSerreModel, CayleyTreeModel, TreeModel
from hypiso.words import GroupWord

from reference import capped_image, capped_power, capped_product, power, product_reference

GENERATORS = ("f", "g", "h")


def test_an_action_system_refuses_generators_it_cannot_name():
    plane = HalfPlaneModel()
    act = Action("one", plane, {"f": plane.matrix(2, 1, 1, 1), "g": plane.matrix(0, -1, 1, 0)})
    for generators, actions, witnesses, message in [
        ((), [act], [], "generators: at least one generator required"),
        (("f", "g", "f"), [act], [], "generators: duplicate generator names"),
        (("f", "g^2"), [act], [], "generators: generator name 'g^2' cannot be written in a word"),
        (("f", "g", "h"), [act], [], "action 'one': no image for generator 'h'"),
        (("f", "g"), [act], [None, None], "witness list must align with actions"),
        (("f", "g"), [act], [GroupWord.parse("h")], "witness uses unknown generator 'h'"),
    ]:
        with pytest.raises(ValidationError) as info:
            ActionSystem(generators, [act], witnesses)
        assert str(info.value) == message


def plane_action() -> Action:
    # denominators everywhere, so every payload has s > 1 and products divide out a content
    plane = HalfPlaneModel()
    entries = {
        "f": (2, Fraction(1, 2), 2, 1),  # hyperbolic, s = 2
        "g": (Fraction(1, 3), Fraction(2, 3), 0, 3),  # hyperbolic, s = 3
        "h": (0, Fraction(-1, 2), 2, 0),  # order 2, s = 2
    }
    return Action("plane", plane, {gen: plane.matrix(*m) for gen, m in entries.items()})


def cayley_action() -> Action:
    cayley = CayleyTreeModel(2)
    words = {"f": [1, 2], "g": [-2], "h": [1, 1, -2, 1]}
    return Action("cayley", cayley, {gen: cayley.word(w) for gen, w in words.items()})


def bass_serre_action(m: int, n: int) -> Action:
    bs = BassSerreModel(m, n)
    words = {"f": [(0, 1), (1, 1)], "g": [(1, n - 1)], "h": [(0, 1), (1, 2), (0, m - 1)]}
    return Action(f"bass-serre-{m}-{n}", bs, {gen: bs.word(w) for gen, w in words.items()})


ACTIONS = [plane_action, cayley_action, lambda: bass_serre_action(2, 3), lambda: bass_serre_action(3, 4)]
ACTION_IDS = ["plane", "cayley", "bass-serre-2-3", "bass-serre-3-4"]


def random_word(rng: random.Random) -> GroupWord:
    """Up to 12 syllables drawn from a pool of 4, so that syllables repeat,
    with negative exponents among them."""
    pool = [(rng.choice(GENERATORS), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(4)]
    return GroupWord(tuple(rng.choice(pool) for _ in range(rng.randint(1, 12))))


def letter_fold(action: Action, word: GroupWord):
    """The left fold of the public compose over the word's letters."""
    model = action.model
    out = model.identity()
    for gen, e in word.syllables:
        letter = action.images[gen] if e > 0 else model.invert(action.images[gen])
        for _ in range(abs(e)):
            out = model.compose(out, letter)
    return out


@pytest.mark.parametrize("make_action", ACTIONS, ids=ACTION_IDS)
def test_image_is_the_fold_of_the_public_compose(make_action):
    action = make_action()
    rng = random.Random(action.name)
    words = [GroupWord(())] + [random_word(rng) for _ in range(40)]
    assert any(e < 0 for w in words for _, e in w.syllables)
    assert any(len(set(w.syllables)) < len(w.syllables) for w in words)  # a repeated syllable
    for word in words:
        assert action.image(word) == letter_fold(action, word), word
    assert action.image(GroupWord(())) == action.model.identity()


@pytest.mark.parametrize("make_action", ACTIONS, ids=ACTION_IDS)
def test_unit_syllables_image_as_the_letter_product(make_action):
    # a syllable g or g^-1 is the generator's payload or its inverse, with no
    # power ladder: among powers of other exponents, of the same generators
    # too, the image is still the letter-by-letter product, and a generator
    # with no image is refused with the same text whatever its exponent
    action = make_action()
    for text in ("f g^-1 f^-1 g f^3 g^-2 h^-1 f h^2", "g^-1 h f^-2 h^-1 g f^-1 g^-1 h^3", "h^-1 f^2 h"):
        word = GroupWord.parse(text)
        assert {1, -1} <= {e for _, e in word.syllables} and any(abs(e) > 1 for _, e in word.syllables)
        assert action.image(word) == letter_fold(action, word), text
    for text in ("k", "f k^-1", "k^2 f"):
        with pytest.raises(ValidationError) as info:
            action.image(GroupWord.parse(text))
        assert str(info.value) == f"generator 'k' has no image in action {action.name!r}"


@pytest.mark.parametrize("make_action", ACTIONS, ids=ACTION_IDS)
def test_image_and_power_build_one_isometry(make_action, monkeypatch):
    action = make_action()
    model = action.model
    word = GroupWord((("f", 3), ("g", -2), ("h", 1), ("f", 3), ("g", 5), ("f", -1)))
    built = []
    own = SpaceModel.own

    def counted(self, payload):
        built.append(payload)
        return own(self, payload)

    monkeypatch.setattr(SpaceModel, "own", counted)
    image = action.image(word)
    assert len(built) == 1 and built[0] is image.payload
    built.clear()
    fn = power(model, action.images["f"], 2**6 + 1)
    assert len(built) == 1 and built[0] is fn.payload


@pytest.mark.parametrize("make_action", ACTIONS, ids=ACTION_IDS)
def test_foreign_isometries_are_refused_where_they_enter(make_action):
    action = make_action()
    model, own = action.model, action.images["f"]
    other = CayleyTreeModel(3) if isinstance(model, HalfPlaneModel) else HalfPlaneModel()
    foreign = other.identity()
    with pytest.raises(MixedModels):
        Action("mixed", model, {**action.images, "g": foreign})
    refusals = [
        lambda: model.compose(own, foreign),
        lambda: model.compose(foreign, own),
        lambda: model.classify(foreign),
        lambda: model.invert(foreign),
    ] + [lambda n=n: power(model, foreign, n) for n in (0, 1, -1, 5)]
    for refused in refusals:
        with pytest.raises(MixedModels):
            refused()


@pytest.mark.parametrize("make_action", ACTIONS[:3], ids=ACTION_IDS[:3])
def test_foreign_boundary_and_lab_points_are_refused(make_action):
    # a boundary point or a lab point is its model's too: each public
    # boundary method and lab method that takes one refuses another model's
    action = make_action()
    model, own = action.model, action.images["f"]
    other = CayleyTreeModel(3) if isinstance(model, HalfPlaneModel) else HalfPlaneModel()
    hyperbolic = other.word([1, 2]) if isinstance(other, CayleyTreeModel) else other.matrix(2, 1, 1, 1)
    b, foreign = model.classify(own).hyperbolic.fixed_plus, other.classify(hyperbolic).hyperbolic.fixed_plus
    geo = lab(model)
    base = geo.basepoint
    refusals = [
        lambda: model.fixes(model.identity(), foreign),
        lambda: model.fixes(own, foreign),
        lambda: model.boundary_apply(own, foreign),
        lambda: model.boundary_equal(b, foreign),
        lambda: model.boundary_equal(foreign, b),
        lambda: geo.apply(own, lab(other).basepoint),
        lambda: geo.gromov_boundary_point(foreign, base, base),
        lambda: geo.gromov_boundary_pair(b, foreign, base),
    ]
    for refused in refusals:
        with pytest.raises(MixedModels):
            refused()


# the largest n with [[2, 1], [1, 1]]^n under the cap: 524,287 bits, and
# 524,289 for n + 1
N0 = 377_597
CAP = MAX_ISOMETRY_SIZE


def _outcome(fn):
    """fn()'s value, or the message of the ValidationError it raises."""
    try:
        return fn()
    except ValidationError as exc:
        return f"raised: {exc}"


def _cap_cases():
    """(action, powers (generator, n), words, products (F, G, a, b)) whose
    powers, squares and products land just under, at and just over the cap
    in each model, and past its bound with a small true size."""
    plane = HalfPlaneModel()
    x = Matrix2.of(2, 1, 1, 1)
    quarter = plane._power(x, N0 // 4, 2)[0]
    images = {"f": x, "g": Matrix2.of(1, 1, 0, 1), "h": Matrix2.of(0, -1, 1, 0)}
    yield (
        Action("plane", plane, {gen: plane.own(m) for gen, m in images.items()}),
        [("f", N0), ("f", -(N0 + 1)), ("h", 10**6 + 1)],
        [f"f^{N0 - 1} g^3", f"f^{N0 // 2} h f^{N0 - N0 // 2}"],
        [(quarter, quarter, 2, 2), (quarter, quarter, 2, 3), (quarter, images["h"], 4, 10**6)],
    )
    cayley, half = CayleyTreeModel(2), CAP // 2
    a, b = (1,), (2,)
    a8, b8 = a * (half // 2), b * (half // 2)
    yield (
        Action("cayley", cayley, {"f": cayley.word(a), "g": cayley.word(b), "h": cayley.word((1, 2, -1))}),
        [("f", CAP), ("f", CAP + 1), ("f", -2 * CAP), ("h", CAP - 2), ("h", CAP - 1)],
        [f"f^{half} g^{half}", f"f^{half} g^{half + 1}", f"f^{CAP} g^-1 f^-{CAP}", f"h^{CAP - 2}",
         f"g f^{CAP} f^-1 g"],
        [(a8, b8, 2, 2), (a8, b8, 2, 3), (a8, b, 4, 1), (a8, b, 8, 1)],
    )
    bs = BassSerreModel(2, 3)
    st, t, s = ((0, 1), (1, 1)), ((1, 1),), ((0, 1),)
    yield (
        Action("bass-serre", bs, {"f": bs.word(st), "g": bs.word(t), "h": bs.word(s)}),
        [("f", half), ("f", half + 1), ("f", -(half + 1)), ("g", 10**9)],
        [f"f^{half} g", f"f^{half} h", f"f^{half} g^2", f"f^{half} g^2 f"],
        [(st * (half // 4), t, 4, 1), (st * (half // 4), t, 4, 2), (st * (half // 4), s, 4, 1)],
    )


@pytest.mark.parametrize("case", _cap_cases(), ids=["plane", "cayley", "bass-serre"])
def test_bounded_cap_raises_where_every_product_is_sized(case):
    # the bound sizes a product only once it passes the cap, so image and
    # _power, and image on the search's candidate f^a g^b in an action
    # sending f, g to F, G, raise at the same product, with the same
    # message, as sizing every product would, or return the same payload
    action, powers, words, products = case
    model = action.model
    outcomes = set()
    for gen, n in powers:
        p = model.require(action.images[gen])
        got = _outcome(lambda: model._power(p, n, model._size(p)))
        expected = _outcome(lambda: capped_power(model, p, n))
        assert got == expected if isinstance(got, str) else got[0] == expected, (gen, n)
        if not isinstance(got, str):
            assert model._size(got[0]) <= got[1] <= CAP
        outcomes.add(isinstance(got, str))
    for text in words:
        word = GroupWord.parse(text)
        got = _outcome(lambda: action.image(word))
        expected = _outcome(lambda: capped_image(action, word))
        assert got == expected if isinstance(got, str) else got.payload == expected, text
        outcomes.add(isinstance(got, str))
    for F, G, a, b in products:
        pair = Action("pair", model, {"f": model.own(F), "g": model.own(G)})
        got = _outcome(lambda: pair.image(GroupWord((("f", a), ("g", b)))))
        expected = _outcome(lambda: capped_product(model, F, G, a, b))
        assert got == expected if isinstance(got, str) else got.payload == expected, (a, b)
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}


def test_image_sizes_nothing_under_the_cap(monkeypatch):
    # a chain word, f_(k+1) = f_k^2 g_k^3 over three generators, of 509
    # letters: every bound stays under the cap, so image sizes no product
    word = GroupWord.parse("f")
    for gen in "ghfghfg":
        word = word**2 * GroupWord.parse(f"{gen}^3")
    assert len(word) == 509 and len(set(word.syllables)) < len(word.syllables)
    sized = []
    for owner in (HalfPlaneModel, TreeModel):
        original = owner._size
        counted = staticmethod(lambda p, original=original: sized.append(p) or original(p))
        monkeypatch.setattr(owner, "_size", counted)
    for action in (plane_action(), cayley_action(), bass_serre_action(3, 4)):
        expected = capped_image(action, word)
        sized.clear()
        assert action.image(word).payload == expected
        assert sized == []


def test_least_size_is_below_the_product_size():
    # an entry x y + u v of a product, x and y nonzero and the terms of one
    # sign or u v = 0, has at least bl(x) + bl(y) - 1 bits, less 2 bl(gcd(s,
    # s')) for the content: below the true size on random signed products
    # with zero entries and shared factors of s, and on squares; equal to it
    # on diag(1, 9)/3 times diag(1089, 1)/33, whose content 9 takes 4 bits
    plane, rng = HalfPlaneModel(), random.Random(29)
    steps = [Matrix2.of(1, k, 0, 1) for k in (-3, -1, 2, 5)] + [Matrix2.of(1, 0, k, 1) for k in (-2, 1, 4)]
    steps += [Matrix2.of(0, -1, 1, 0)] + [Matrix2.of(s, 0, 0, Fraction(1, s)) for s in (2, 3, 6, 9)]
    pairs = [(Matrix2.of(Fraction(1, 3), 0, 0, 3), Matrix2.of(33, 0, 0, Fraction(1, 33)))]
    for _ in range(500):
        m, n = rng.choice(steps), rng.choice(steps)
        for _ in range(rng.randint(0, 9)):
            m, n = m * rng.choice(steps), rng.choice(steps) * n
        pairs += [(m, n), (m, m)]
    least = [plane._least_size(m, n) for m, n in pairs]
    sizes = [plane._size(m * n) for m, n in pairs]
    assert all(bound <= size for bound, size in zip(least, sizes))
    assert least[0] == sizes[0] == 7
    assert sum(bound > 0 for bound in least) > len(pairs) // 2
    assert {m.s > 1 and math.gcd(m.s, n.s) > 1 for m, n in pairs} == {True, False}
    assert CayleyTreeModel(2)._least_size((1,) * 9, (1,) * 9) == BassSerreModel(2, 3)._least_size((), ()) == 0


def _rational_matrix(rng: random.Random, dens=(1, 2, 3, 4, 6, 9, 12)) -> Matrix2:
    """A random determinant-1 matrix of signed rational entries over shared
    denominators: a, b and c drawn, d = (1 + b c)/a."""
    a, b, c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice(dens)) for _ in range(3))
    b *= rng.randint(0, 1)
    return Matrix2.of(a, b, c, (1 + b * c) / a)


def test_product_matches_the_full_content_reference():
    # the product divides by gcd(h^2, a, b, c, d), h = gcd(s1, s2), and only
    # when h > 1, and a right factor +-I is a sign: the same tuple as the
    # product that divides by the whole content whenever s > 1, on random
    # products and squares, s = 1 factors, +-I on either side, and
    # diag(1, p^2)/p times diag(p^2, 1)/p, whose content is exactly h^2
    rng = random.Random(47)
    one, minus_one = Matrix2.of(1, 0, 0, 1), Matrix2.of(-1, 0, 0, -1)
    pool = [_rational_matrix(rng) for _ in range(120)] + [_rational_matrix(rng, (1,)) for _ in range(20)]
    assert {m.s == 1 for m in pool} == {True, False} and any(min(m) < 0 for m in pool)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(3000)] + [(m, m) for m in pool]
    pairs += [(m, e) for m in pool for e in (one, minus_one)] + [(e, m) for m in pool for e in (one, minus_one)]
    pairs += [(Matrix2.of(Fraction(1, p), 0, 0, p), Matrix2.of(p, 0, 0, Fraction(1, p))) for p in (2, 3, 6, 35)]
    reduced = 0
    for m, n in pairs:
        got = m * n
        assert type(got) is Matrix2 and got == product_reference(m, n), (m, n)
        reduced += got.s < m.s * n.s
    assert reduced > 500
    assert Matrix2.of(Fraction(1, 6), 0, 0, 6) * Matrix2.of(6, 0, 0, Fraction(1, 6)) == one


# the rotations of order 2 and 3, trace 0, 1 and -1, and a conjugator with large entries
ROTATIONS = [(0, -1, 1, 0), (1, -1, 1, 0), (-1, -1, 1, 0)]
_X = Fraction(3**40 + 2, 5**12)
BIG = Matrix2.of(_X, Fraction(7, 2**30), 11, (1 + Fraction(77, 2**30)) / _X)


def _conjugated_rotations():
    return [BIG * Matrix2.of(*r) * BIG.inverse() for r in ROTATIONS]


def test_rotation_powers_take_no_product(monkeypatch):
    # a rotation of order 2 or 3 is powered modulo its order, signed by
    # (M^order)^q: M^2 = -I at trace 0, M^3 = -I at trace 1, +I at trace -1;
    # the same tuple as repeated squaring, +-I, +-M or +-M^-1 with no
    # product, with a bound of at least the power's size and no size read
    plane, rng = HalfPlaneModel(), random.Random(3)
    exponents = [0, 1, -1, 2, -2, 3, -3, 6, -6, 7, -7, 10**6 + 1] + [rng.randint(-10**9, 10**9) for _ in range(20)]
    rotations = _conjugated_rotations()
    assert [abs(m.a + m.d) for m in rotations] == [0, rotations[1].s, rotations[2].s]
    assert min(m.s for m in rotations) > 2**60
    signs = set()
    for m in rotations:
        size = plane._size(m)
        for n in exponents:
            expected = capped_power(plane, m, n)
            products, sized = [], []
            mul = Matrix2.__mul__
            monkeypatch.setattr(Matrix2, "__mul__", lambda x, y: products.append(1) or mul(x, y))
            monkeypatch.setattr(HalfPlaneModel, "_size", staticmethod(lambda p: sized.append(p) or 0))
            got, bound = plane._power(m, n, size)
            monkeypatch.undo()
            assert got == expected and type(got) is Matrix2, (m, n)
            assert products == [] and sized == [] and plane._size(got) <= bound <= size
            signs.add(got.a < 0 if got.is_proj_identity() else None)
    assert signs == {None, True, False}  # both +I and -I among the powers


def test_rotation_past_half_the_cap_powers_under_it():
    # a rotation whose square's ladder bound 2 size + 1 would pass the cap
    # still powers for no product: every power is +-I, +-M or +-M^-1, of at
    # most M's size, and is repeated squaring's
    plane, x = HalfPlaneModel(), 2 ** 2**17
    m = Matrix2.of(1 + x, -1, 1 + x + x * x, -x)  # order 3 (trace 1), entries of 2^18 + 1 bits
    size = plane._size(m)
    assert MAX_ISOMETRY_SIZE < 2 * size + 1 and size <= MAX_ISOMETRY_SIZE
    for n in (2, 5, -4, 10**6 + 1):
        got, bound = plane._power(m, n, size)
        assert got == capped_power(plane, m, n) and plane._size(got) <= bound <= size


def test_other_matrices_power_by_repeated_squaring():
    # every matrix but an order-2 or order-3 rotation goes to SpaceModel's
    # ladder: +-I, a parabolic, hyperbolics and an infinite-order rotation
    plane = HalfPlaneModel()
    for entries in ((1, 0, 0, 1), (-1, 0, 0, -1), (1, 1, 0, 1), (2, 1, 1, 1), (Fraction(1, 2), -1, 1, 0),
                    (Fraction(1, 3), Fraction(2, 3), 0, 3)):
        m = Matrix2.of(*entries)
        for n in (0, 1, -1, 2, 5, -6, 13):
            assert plane._power(m, n, plane._size(m)) == SpaceModel._power(plane, m, n, plane._size(m))
            assert plane._power(m, n, plane._size(m))[0] == capped_power(plane, m, n)


def test_image_with_identity_syllables_matches_the_capped_image():
    # chain-style words, whose syllables are mostly powers of order-2 and
    # order-3 rotations that are +-I, among hyperbolic and rotation powers:
    # the image is the capped image, and a generator with no image is
    # refused with the same text whatever syllables come before it
    plane = HalfPlaneModel()
    r0, r1, r2 = _conjugated_rotations()
    images = {"f": BIG, "g": Matrix2.of(2, 1, 1, 1), "r": r0, "t": r1, "u": r2}
    action = Action("chain", plane, {gen: plane.own(m) for gen, m in images.items()})
    rng = random.Random(11)
    for _ in range(60):
        syllables = []
        for _ in range(rng.randint(1, 30)):
            gen = rng.choice("fgrtu")
            order = 2 if gen == "r" else 3
            e = rng.choice((1, -1, 2, -3)) if gen in "fg" else order * rng.randint(-40, 40) + rng.choice((0, 0, 1, -1))
            syllables.append((gen, e or 1))
        word = GroupWord(tuple(syllables))
        assert action.image(word).payload == capped_image(action, word), word
    word = GroupWord((("r", 2), ("t", -3), ("u", 3), ("r", 6)))
    assert action.image(word).payload == Matrix2.of(-1, 0, 0, -1) == capped_image(action, word)
    for text in ("z", "r^2 z", "r^2 z r^2", "f^2 r^4 z"):
        with pytest.raises(ValidationError) as info:
            action.image(GroupWord.parse(text))
        assert str(info.value) == "generator 'z' has no image in action 'chain'"
