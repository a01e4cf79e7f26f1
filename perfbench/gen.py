"""Raw action systems: the benchmark's own inputs, apart from hypiso.

A ``SystemSpec`` holds generator images as raw data (see ``oracles``).
``write_config`` turns it into hypiso-config v1 text and ``read_config``
reads the subset of that format the benchmark writes and ``configs/``
uses, so the oracles see the same system the program parses.

``chain_system`` makes the chain-k systems: k generators g1..gk and k
actions, where action i sees only g_i as hyperbolic and every other
generator as elliptic.  Each action is resampled on its own, because the
hypothesis is per action, until no word of length <= CHECK_DEPTH is
parabolic in it.  The check runs on integer matrices: checking each
action with hypiso's check_hypotheses took up to 6 s per k = 16 system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

TREE_LETTERS = "abcdefghijklmnopqrstuvwxyz"
F0, F1 = Fraction(0), Fraction(1)
INFINITE_ORDER = 0.25
CHECK_DEPTH = 2


@dataclass
class ActionSpec:
    name: str
    kind: str  # half_plane, bass_serre, cayley_tree
    params: tuple[int, ...]  # (m, n) for bass_serre, (rank,) for cayley_tree
    images: dict
    witness: str | None = None


@dataclass
class SystemSpec:
    generators: tuple[str, ...]
    actions: list[ActionSpec] = field(default_factory=list)


# -- hypiso-config v1 text ----------------------------------------------------------


def _image_text(action: ActionSpec, image) -> str:
    if action.kind == "half_plane":
        a, b, c, d = (oracles.fmt_rational(Fraction(x)) for x in image)
        return f"[[{a}, {b}], [{c}, {d}]]"
    if action.kind == "bass_serre":
        parts = ["st"[f] + ("" if e == 1 else f"^{e}") for f, e in image]
    else:
        parts = [TREE_LETTERS[abs(x) - 1] + ("" if x > 0 else "^-1") for x in image]
    return " ".join(parts) if parts else "s^0" if action.kind == "bass_serre" else "a a^-1"


def write_config(spec: SystemSpec) -> str:
    lines = ["hypiso-config v1", "generators " + " ".join(spec.generators)]
    for action in spec.actions:
        lines += ["", f"action {action.name}", " ".join(["model", action.kind, *map(str, action.params)])]
        for gen in spec.generators:
            lines.append(f"gen {gen} {_image_text(action, action.images[gen])}")
        if action.witness is not None:
            lines.append(f"witness {action.witness}")
    return "\n".join(lines) + "\n"


def _read_image(kind: str, params: tuple, text: str):
    if kind == "half_plane":
        entries = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
        return tuple(Fraction(e) for e in entries)
    out = []
    for name, exp in oracles.parse_word(text):
        if kind == "bass_serre":
            out.append(("st".index(name), exp))
        else:
            letter = TREE_LETTERS.index(name) + 1
            out.extend([letter if exp > 0 else -letter] * abs(exp))
    if kind == "bass_serre":
        return oracles.bs_reduce(out, params)
    return oracles.free_reduce(out)


def read_config(text: str) -> SystemSpec:
    spec = None
    action = None
    for raw in text.splitlines()[1:]:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "generators":
            spec = SystemSpec(tuple(rest.split()))
        elif key == "action":
            action = ActionSpec(rest, "", (), {})
            spec.actions.append(action)
        elif action is None:
            continue  # schedule settings
        elif key == "model":
            kind, *params = rest.split()
            action.kind, action.params = kind, tuple(int(p) for p in params)
        elif key == "gen":
            gen, _, image = rest.partition(" ")
            action.images[gen] = _read_image(action.kind, action.params, image)
        elif key == "witness":
            action.witness = rest
    return spec


# -- seeded symmetries -------------------------------------------------------------------


def _plane_symmetry(m: tuple, which: int) -> tuple:
    """m conjugated by z -> z, -z, -1/z or 1/z: entries only move and
    change sign, so products keep their sizes."""
    a, b, c, d = m
    return ((a, b, c, d), (a, -b, -c, d), (d, -c, -b, a), (d, c, b, a))[which]


def symmetric_copy(spec: SystemSpec, rng: random.Random) -> SystemSpec:
    """Every action moved by its own seeded symmetry.

    A plane action is conjugated by one of z -> z, -z, -1/z, 1/z; a tree
    action is composed with a group automorphism that keeps word lengths
    (inverting the letters of a Bass-Serre factor, a signed permutation of
    the Cayley letters).  These keep every classification, period,
    translation length, hypothesis check and choice of the combiner's
    search, and the sizes of all numbers and words, so a copy costs
    exactly the work of its base, while its matrices, fixed points and
    rays, and so its certificates, change with the seed."""
    out = SystemSpec(spec.generators)
    for action in spec.actions:
        if action.kind == "half_plane":
            which = rng.randrange(4)
            images = {g: _plane_symmetry(m, which) for g, m in action.images.items()}
        elif action.kind == "bass_serre":
            signs = (rng.choice((1, -1)), rng.choice((1, -1)))
            images = {g: oracles.bs_reduce([(f, signs[f] * e) for f, e in w], action.params)
                      for g, w in action.images.items()}
        else:
            rank = action.params[0]
            perm = rng.sample(range(1, rank + 1), rank)
            signs = [rng.choice((1, -1)) for _ in range(rank)]
            relabel = {x: perm[x - 1] * signs[x - 1] for x in range(1, rank + 1)}
            relabel.update({-x: -y for x, y in list(relabel.items())})
            images = {g: tuple(relabel[x] for x in w) for g, w in action.images.items()}
        out.actions.append(ActionSpec(action.name, action.kind, action.params, images, action.witness))
    return out


# -- chain-k systems ---------------------------------------------------------------------


def _shear(u: int, v: int, lower_first: bool) -> tuple:
    """[[1,0],[v,1]][[1,u],[0,1]] or the reverse product; trace 2 + uv."""
    if lower_first:
        return tuple(map(Fraction, (1, u, v, 1 + u * v)))
    return tuple(map(Fraction, (1 + u * v, u, v, 1)))


def _conjugated(m: tuple, rng: random.Random) -> tuple:
    """m conjugated by z -> r^2 z + t with small rational r, t; the
    non-integral entries make exact parabolic products rare."""
    r = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 5)))
    t = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    a, b, c, d = m
    a, b, c, d = a, b * r * r, c / (r * r), d
    # [[1, t], [0, 1]] m [[1, -t], [0, 1]]
    return (a + t * c, b - t * a + t * (d - t * c), c, d - t * c)


def _plane_hyperbolic(rng: random.Random) -> tuple:
    u = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    v = rng.choice((1, 2, 3)) * (1 if u > 0 else -1)
    return _conjugated(_shear(u, v, rng.random() < 0.5), rng)


def _plane_elliptic(rng: random.Random) -> tuple:
    """Trace 0 or +-1: rotation order 2 or 3; with probability
    INFINITE_ORDER, trace +-1/2: a rotation of infinite order, which no
    power normalizes away."""
    if rng.random() < INFINITE_ORDER:
        return _conjugated((F0, -F1, F1, Fraction(rng.choice((1, -1)), 2)), rng)
    u = rng.choice((1, 2, 3))
    v = -rng.choice((1, 2, 3))
    if u * v < -3:
        v = -1
    if rng.random() < 0.5:
        u, v = -u, -v
    return _conjugated(_shear(u, v, rng.random() < 0.5), rng)


def _bs_hyperbolic(rng: random.Random, orders) -> tuple:
    factor = rng.choice((0, 1))
    out = []
    for _ in range(2 * rng.randint(1, 2)):
        out.append((factor, rng.randint(1, orders[factor] - 1)))
        factor = 1 - factor
    return tuple(out)


def _bs_elliptic(rng: random.Random, orders) -> tuple:
    factor = rng.choice((0, 1))
    core = [(factor, rng.randint(1, orders[factor] - 1))]
    if rng.random() < 0.5:
        other = 1 - factor
        e = rng.randint(1, orders[other] - 1)
        core = [(other, e)] + core + [(other, (-e) % orders[other])]
    return tuple(core)


def chain_action(rng: random.Random, k: int, i: int) -> ActionSpec:
    gens = [f"g{j + 1}" for j in range(k)]
    if rng.random() < 2 / 3:
        while True:
            images = [_plane_hyperbolic(rng) if j == i else _plane_elliptic(rng) for j in range(k)]
            if oracles.parabolic_count(images, CHECK_DEPTH) == 0:
                break
        kind, params = "half_plane", ()
    else:  # trees have no parabolic isometries: nothing to resample
        params = (rng.choice((2, 3)), rng.choice((3, 4)))
        images = [_bs_hyperbolic(rng, params) if j == i else _bs_elliptic(rng, params) for j in range(k)]
        kind = "bass_serre"
    return ActionSpec(f"a{i}", kind, params, dict(zip(gens, images)), witness=gens[i])


def chain_system(k: int, rng: random.Random) -> SystemSpec:
    spec = SystemSpec(tuple(f"g{j + 1}" for j in range(k)))
    spec.actions = [chain_action(rng, k, i) for i in range(k)]
    return spec
