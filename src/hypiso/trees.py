"""Tree models: Bass-Serre trees of Z/m * Z/n and Cayley trees of free groups.

Both models are exact, and hold only the group: its words, their
classification, and the boundary, whose points are eventually-periodic
reduced rays (prefix, repeating word).  The vertices, which are cosets
(Serre, *Trees*, ch. I §4), are the geometry lab's (``geometry``).

Bass-Serre conventions for G = Z/m * Z/n = <s> * <t>: syllables are
(factor, exponent) with factor 0 for s and 1 for t, exponents reduced mod
the factor order into 1..order-1 and adjacent equal factors merged.  An
element is elliptic iff
its cyclic syllable reduction has length <= 1 (it is conjugate into a
factor) and hyperbolic otherwise, with translation length the cyclic
syllable length.  On the Cayley tree the group acts freely, so only the
identity is elliptic and the translation length of a nontrivial word is
its cyclic letter length.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import NamedTuple

from .models import (
    ELLIPTIC,
    HYPERBOLIC,
    MAX_ISOMETRY_SIZE,
    IsometryClass,
    Owned,
    SpaceModel,
)
from .words import parse_powers

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"  # Cayley letter i is named _LETTER_NAMES[i - 1]
# Cayley letter x: (the text of a run of one x, the text of a run of n x's but for n)
_RUN_TEXT = {s * i: (name if s > 0 else f"{name}^-1", f"{name}^" if s > 0 else f"{name}^-")
             for i, name in enumerate(_LETTER_NAMES, 1) for s in (1, -1)}
_new = tuple.__new__  # a class is built as a plain tuple: no Python-level __new__


class RayDescriptor(NamedTuple):
    """A boundary point: the reduced infinite word prefix . period^infinity.
    ``TreeModel._fold`` builds every one; a hand-built one must be folded."""

    prefix: tuple
    period: tuple


class TreeHyperbolic(NamedTuple):
    """A hyperbolic tree class: its integer translation length (letters or
    syllables), the cyclic core (u, v) of its word u v u^-1 and its model.
    Its axis runs from the ray u v^-inf to u v^inf, each folded when read."""

    length: int
    u: tuple
    v: tuple
    model: TreeModel
    translation_length = property(lambda self: float(self.length))
    core = property(lambda self: self.model.own((self.u, self.v)))
    fixed_plus = property(lambda self: self.model.own(self.model._fold(self.u, self.v)))
    fixed_minus = property(lambda self: self.model.own(self.model._fold(self.u, self.model.invert_word(self.v))))
    fixed_points = property(lambda self: (self.fixed_plus, self.fixed_minus))
    # equal exactly when the lengths and rays are, so when the cores are: edge stabilizers are trivial in both models
    __eq__ = lambda self, other: type(other) is TreeHyperbolic and self.core == other.core
    __ne__ = lambda self, other: not self == other
    __hash__ = lambda self: hash(self.core)


class TreeModel(SpaceModel):
    """Shared machinery; units are letters (Cayley) or syllables (Bass-Serre)."""

    # Subclasses provide, on words: normal_form, multiply (of normal forms,
    # into a normal form) and invert_word (set as SpaceModel's payload hooks
    # _mul and _inv too), cyclic_reduce and _core_period (None for a
    # hyperbolic cyclic core, else its elliptic period), and bind compose
    # and classify in their own class, which perfbench/layers.py wraps per class.
    # A tree automorphism without inversions is elliptic or hyperbolic, never
    # parabolic (Serre, *Trees*, ch. I §6.4; Culler-Morgan 1987, §1).  Neither
    # model inverts an edge: the Bass-Serre action keeps the two vertex types, and
    # an inversion's square would fix a vertex, which in a free group only 1 does.

    _size, _one, _least_size = staticmethod(len), (), staticmethod(lambda p, q: 0)  # the other payload hooks
    tags = (ELLIPTIC, HYPERBOLIC)  # so the hypothesis check multiplies no tree word

    def word(self, units) -> Owned:
        return self.own(self.normal_form(tuple(units)))

    def classify(self, iso: Owned) -> IsometryClass:
        """u . v . u^-1 from ``cyclic_reduce``: elliptic of v's period, or
        hyperbolic of translation length |v|, its rays folded only when read."""
        u, v = self.cyclic_reduce(self.require(iso))
        period = self._core_period(v)
        if period:
            return _new(IsometryClass, (ELLIPTIC, period, None))
        return _new(IsometryClass, (HYPERBOLIC, None, _new(TreeHyperbolic, (len(v), u, v, self))))

    # -- boundary rays ------------------------------------------------------

    def _fold(self, p: tuple, period: tuple) -> RayDescriptor:
        """The ray p . period^inf, the one builder of a ray, for a reduced p and
        a cyclically reduced period: whole periods fold into p while the two
        units at the junction cancel or merge, the only units of normal forms
        that can meet.  With p empty the ray is period^inf, reduced as it stands."""
        while p and len(self.multiply(p[-1:], period[:1])) < 2:
            p = self.multiply(p, period)
        return _new(RayDescriptor, (p, period))

    def ray_text(self, p: tuple, period: tuple) -> str:
        """A record's text of the ray p . period^inf: folded once, and its two words displayed."""
        ray = self._fold(p, period)
        return f"ray:{self.word_display(ray.prefix, '.')};{self.word_display(ray.period, '.')}"

    def _ray_units(self, ray: RayDescriptor, count: int) -> tuple:
        periods = -((len(ray.prefix) - count) // len(ray.period))  # ceil((count - |prefix|) / |period|); <= 0 is none
        return (ray.prefix + ray.period * periods)[:count]

    def boundary_equal(self, p: Owned, q: Owned) -> bool:
        """Cofinality test, the one comparison of two rays: the reduced unit
        streams agree forever iff they agree up to the preperiods plus one common period."""
        r1, r2 = self.require(p), self.require(q)
        n = max(len(r1.prefix), len(r2.prefix)) + 2 * math.lcm(len(r1.period), len(r2.period))
        return self._ray_units(r1, n) == self._ray_units(r2, n)

    def boundary_apply(self, iso: Owned, b: Owned) -> Owned:
        g, ray = self.require(iso), self.require(b)  # g . prefix is reduced: fold the junction only
        return self.own(self._fold(self.multiply(g, ray.prefix), ray.period))


class CayleyTreeModel(TreeModel):
    """Cayley graph of the free group of given rank: the 2r-regular tree.

    Letters are nonzero ints, sign for direction, abs value in 1..rank;
    words are reduced tuples of letters."""

    kind = "cayley_tree"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > len(_LETTER_NAMES):
            raise ValueError(f"rank must be <= {len(_LETTER_NAMES)}: letters are named a to z")
        self.rank = rank
        self.model_id = f"cayley_tree(rank={rank})"

    def letters(self) -> list[int]:
        out = []
        for i in range(1, self.rank + 1):
            out.extend([i, -i])
        return out

    def normal_form(self, units) -> tuple:
        out: list[int] = []
        for letter in units:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} outside rank-{self.rank} alphabet")
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def multiply(self, u: tuple, v: tuple) -> tuple:
        """The reduced product of reduced words: only letters at the junction
        cancel, so the product is two slices joined."""
        n, k = len(u), 0
        meet = min(n, len(v))
        while k < meet and u[n - 1 - k] == -v[k]:
            k += 1
        return u[: n - k] + v[k:]

    def invert_word(self, u) -> tuple:
        return tuple([-x for x in reversed(u)])

    _mul, _inv, compose, classify = multiply, invert_word, SpaceModel.compose, TreeModel.classify

    # -- classification ----------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v cyclically reduced; returns (u, v)."""
        i, j = 0, len(w) - 1
        while j > i and w[i] == -w[j]:
            i += 1
            j -= 1
        return tuple(w[:i]), tuple(w[i : j + 1])

    def _core_period(self, v: tuple):
        return None if v else 1  # free actions: only the identity is elliptic

    def word_display(self, payload: tuple, sep: str = " ") -> str:
        return sep.join([_RUN_TEXT[x][0] if n == 1 else f"{_RUN_TEXT[x][1]}{n}"  # a run of one letter is a power
                         for x, run in groupby(payload) for n in [len(list(run))]]) or "1"

    def parse_word(self, text: str) -> Owned:
        names = tuple(_LETTER_NAMES[: self.rank])

        def check(name: str, token: str) -> None:
            if name not in names:
                raise ValueError(f"unknown letter {name!r} for rank {self.rank}")

        letters: list[int] = []
        for name, e in parse_powers(text, check):
            if len(letters) + abs(e) > MAX_ISOMETRY_SIZE:  # before the letters are built
                raise ValueError(
                    f"the word passes the cap of {MAX_ISOMETRY_SIZE} letters (MAX_ISOMETRY_SIZE)"
                )
            idx = names.index(name) + 1
            letters.extend([idx if e > 0 else -idx] * abs(e))
        return self.word(letters)


class BassSerreModel(TreeModel):
    """The Bass-Serre tree of Z/m * Z/n with its natural action."""

    kind = "bass_serre"

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError("factor orders must be >= 2")
        self.orders = (m, n)
        self.model_id = f"bass_serre(m={m},n={n})"

    # words: tuples of (factor, exponent) syllables in normal form

    def normal_form(self, units) -> tuple:
        out: list[tuple[int, int]] = []
        for factor, exp in units:
            if factor not in (0, 1):
                raise ValueError(f"bad factor {factor}")
            exp %= self.orders[factor]
            if exp and out and out[-1][0] == factor:
                exp = (out.pop()[1] + exp) % self.orders[factor]
            if exp:
                out.append((factor, exp))
        return tuple(out)

    def multiply(self, u: tuple, v: tuple) -> tuple:
        """The normal form of u.v for normal forms u and v: syllables of one
        factor meet only at the junction, where they merge, or cancel and
        let the next two meet."""
        i, j = len(u), 0
        while i and j < len(v) and u[i - 1][0] == v[j][0]:
            factor = v[j][0]
            exp = (u[i - 1][1] + v[j][1]) % self.orders[factor]
            if exp:
                return u[: i - 1] + ((factor, exp),) + v[j + 1 :]
            i, j = i - 1, j + 1
        return u[:i] + v[j:]

    def invert_word(self, u) -> tuple:
        return tuple([(f, (-e) % self.orders[f]) for f, e in reversed(u)])

    _mul, _inv, compose, classify = multiply, invert_word, SpaceModel.compose, TreeModel.classify

    # -- classification -------------------------------------------------------

    def cyclic_reduce(self, w) -> tuple[tuple, tuple]:
        """w = u . v . u^-1 with v syllable-cyclically reduced, for w in
        normal form.

        Conjugating by the head syllable adds its exponent to the last
        syllable, of the same factor, so v is always w[i:j] followed by one
        syllable ``last`` of w[j]'s factor (w[j - 1] when the sum is 0), and
        u is w[:i].
        """
        if len(w) < 2:
            return (), tuple(w)
        i, j, last = 0, len(w) - 1, w[-1]
        while j > i and w[i][0] == last[0]:
            exp = (last[1] + w[i][1]) % self.orders[last[0]]
            i += 1
            if exp:
                last = (last[0], exp)
            else:
                j -= 1
                last = w[j]
        return tuple(w[:i]), tuple(w[i:j]) + (last,)

    def _core_period(self, v: tuple):
        if len(v) >= 2:  # a core of one syllable or none is conjugate into a factor
            return None
        if not v:
            return 1
        (factor, exp), = v
        order = self.orders[factor]
        return order // math.gcd(exp, order)

    def word_display(self, payload: tuple, sep: str = " ") -> str:
        return sep.join(["st"[f] if e == 1 else f"{'st'[f]}^{e}" for f, e in payload]) or "1"

    def parse_word(self, text: str) -> Owned:
        def check(name: str, token: str) -> None:
            if name not in ("s", "t"):
                raise ValueError(f"unknown letter {name!r}; bass_serre words use s and t")

        return self.word(("st".index(name), e) for name, e in parse_powers(text, check))
