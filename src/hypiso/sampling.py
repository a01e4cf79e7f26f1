"""Seeded, deterministic generators of points, isometries and whole action
systems.

Used by the property/acceptance suites and the CLI's delta/dynamics
commands.  Plane matrices are built from elementary shears with small
integer parameters, which keeps entry heights <= 10 and keeps axes and
fixed points within a bounded distance of the basepoint i (so orbit-growth
estimates at moderate powers are sharp).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .actions import Action, ActionSystem
from .combiner import word_tree
from .halfplane import HalfPlaneModel
from .models import HYPOTHESIS_VIOLATION, Owned, SpaceModel
from .trees import BassSerreModel, CayleyTreeModel
from .words import GroupWord


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


# -- points -------------------------------------------------------------


def sample_plane_points(geo, count: int, rng: random.Random) -> list[Owned]:
    """Random rational points of the plane lab geo, x in [-3, 3] and y in [1/10, 4], both over 100."""
    return [geo.point_xy(rng.randint(-300, 300), rng.randint(10, 400), 100) for _ in range(count)]


# -- plane isometries -----------------------------------------------------


def _shear_product(model: HalfPlaneModel, u: int, v: int, lower_first: bool) -> Owned:
    """[[1, 0], [v, 1]] [[1, u], [0, 1]] if lower_first, else the shears' other product."""
    return model.matrix(1, u, v, 1 + u * v) if lower_first else model.matrix(1 + u * v, u, v, 1)


def random_plane_hyperbolic(model: HalfPlaneModel, rng: random.Random) -> Owned:
    """|trace| > 2, entries of height <= 10, axis passing near i."""
    u = rng.choice([1, 2, 3]) * rng.choice([1, -1])
    v = abs(rng.choice([1, 2, 3])) * (1 if u > 0 else -1)  # uv > 0: trace 2 + uv
    return _shear_product(model, u, v, rng.random() < 0.5)


def random_plane_elliptic(model: HalfPlaneModel, rng: random.Random) -> Owned:
    """|trace| < 2; finite rotation orders 2 and 3 or an infinite-order
    rotation with trace +-1/2, fixed point near i."""
    if rng.random() < 0.25:
        t = Fraction(rng.choice([1, -1]), 2)
        return model.matrix(0, -1, 1, t)
    u = rng.choice([1, 2, 3])
    v = -rng.choice([1, 2, 3])
    if u * v < -3:  # keep |trace| = |2 + uv| < 2
        v = -1
    if rng.random() < 0.5:
        u, v = -u, -v
    return _shear_product(model, u, v, rng.random() < 0.5)


# -- tree isometries --------------------------------------------------------


def _random_bs_syllables(model: BassSerreModel, rng: random.Random, n: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    factor = rng.choice((0, 1))
    for _ in range(n):
        order = model.orders[factor]
        out.append((factor, rng.randint(1, order - 1)))
        factor = 1 - factor
    return out


def random_bs_hyperbolic(model: BassSerreModel, rng: random.Random) -> Owned:
    """Alternating even-syllable word: cyclically reduced, tau = 2 or 4."""
    return model.word(_random_bs_syllables(model, rng, 2 * rng.randint(1, 2)))


def random_bs_elliptic(model: BassSerreModel, rng: random.Random) -> Owned:
    factor = rng.choice((0, 1))
    order = model.orders[factor]
    core = [(factor, rng.randint(1, order - 1))]
    if rng.random() < 0.5:
        other = 1 - factor
        conj = [(other, rng.randint(1, model.orders[other] - 1))]
        inv = model.invert_word(tuple(conj))
        return model.word(conj + core + list(inv))
    return model.word(core)


def _random_cayley_word(model: CayleyTreeModel, rng: random.Random, n: int) -> list[int]:
    """A freely reduced word of n letters."""
    word: list[int] = []
    for _ in range(n):
        word.append(rng.choice([l for l in model.letters() if not word or l != -word[-1]]))
    return word


def random_cayley_hyperbolic(model: CayleyTreeModel, rng: random.Random) -> Owned:
    """A nontrivial reduced word of at most 4 letters: hyperbolic, as the group acts freely."""
    return model.word(_random_cayley_word(model, rng, rng.randint(1, 4)))


def random_hyperbolic(model: SpaceModel, rng: random.Random) -> Owned:
    if isinstance(model, HalfPlaneModel):
        return random_plane_hyperbolic(model, rng)
    if isinstance(model, BassSerreModel):
        return random_bs_hyperbolic(model, rng)
    return random_cayley_hyperbolic(model, rng)


def random_elliptic(model: SpaceModel, rng: random.Random) -> Owned:
    if isinstance(model, HalfPlaneModel):
        return random_plane_elliptic(model, rng)
    if isinstance(model, BassSerreModel):
        return random_bs_elliptic(model, rng)
    return model.identity()  # free actions: only the identity is elliptic


# -- whole systems -----------------------------------------------------------


def _random_model(rng: random.Random) -> SpaceModel:
    kind = rng.choice(["half_plane", "half_plane", "bass_serre", "cayley_tree"])
    if kind == "half_plane":
        return HalfPlaneModel()
    if kind == "bass_serre":
        m = rng.choice([2, 2, 3])
        n = rng.choice([3, 4])
        return BassSerreModel(m, n)
    return CayleyTreeModel(rng.choice([2, 3]))


def random_action_system(seed: int, n_actions: int | None = None) -> ActionSystem:
    """A seeded random system on generators f and g (2 to 4 actions unless
    given) with a valid hyperbolic witness per action and no parabolic word
    up to length 3.  Each non-witness generator image is hyperbolic with
    probability 0.6.  Systems are rejection-sampled, at most 50 times: a draw
    asks its models in turn for a violation (``tagged_words`` on ``word_tree(4,
    3)``, the hook and words of ``check_hypotheses(system, 3)``) and is refused
    at the first that has one; only a draw that passes builds its actions."""
    generators = ("f", "g")
    rng = rng_from_seed(seed)
    for _ in range(50):
        n = n_actions if n_actions is not None else rng.randint(2, 4)
        drawn = []
        for _ in range(n):
            model = _random_model(rng)
            images = {}
            witness_gen = rng.choice(generators)
            for gen in generators:
                if gen == witness_gen or rng.random() < 0.6:
                    images[gen] = random_hyperbolic(model, rng)
                else:
                    images[gen] = random_elliptic(model, rng)
            drawn.append((model, images, witness_gen))
        if not any(next(model.tagged_words(images.values(), word_tree(4, 3), HYPOTHESIS_VIOLATION), None)
                   for model, images, _ in drawn):
            actions = [Action(f"a{i}-{model.kind}", model, images) for i, (model, images, _) in enumerate(drawn)]
            return ActionSystem(generators, actions, [GroupWord.generator(gen) for _, _, gen in drawn])
    raise RuntimeError(f"could not build a hypothesis-clean system from seed {seed}")
