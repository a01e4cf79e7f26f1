"""Action.image and SpaceModel._power compose bare payloads, and the image
is wrapped once; these tests pin them to the public, tag-checked surface."""

import random
from fractions import Fraction

import pytest

from hypiso.actions import Action
from hypiso.errors import MixedModels
from hypiso.halfplane import HalfPlaneModel
from hypiso.models import SpaceModel
from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord

from reference import power

GENERATORS = ("f", "g", "h")


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
def test_image_and_power_build_one_isometry(make_action, monkeypatch):
    action = make_action()
    model = action.model
    word = GroupWord((("f", 3), ("g", -2), ("h", 1), ("f", 3), ("g", 5), ("f", -1)))
    built = []
    isometry = SpaceModel.isometry

    def counted(self, payload):
        built.append(payload)
        return isometry(self, payload)

    monkeypatch.setattr(SpaceModel, "isometry", counted)
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
        lambda: model.tag(foreign),
        lambda: model.classify(foreign),
        lambda: model.invert(foreign),
        lambda: model.size(foreign),
    ] + [lambda n=n: power(model, foreign, n) for n in (0, 1, -1, 5)]
    for refused in refusals:
        with pytest.raises(MixedModels):
            refused()
