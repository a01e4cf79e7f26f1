"""Shared domain types and the SpaceModel base class.

A SpaceModel owns its isometries and boundary points, and classifies an
isometry exactly; the concrete models (half-plane, Bass-Serre tree, Cayley
tree) live in ``halfplane`` and ``trees``.  Their points, metric, balls and
orbits, which only the diagnostics read, are the geometry lab's (``geometry``).
Everything here is immutable after construction and safe for concurrent
use.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple, Optional, Protocol

from .errors import MixedModels, ValidationError

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
HYPOTHESIS_VIOLATION = "hypothesis_violation"

# The largest isometry a power (each square, and the result), a word's
# image (after each syllable) or a Cayley tree image may be, in the units
# of SpaceModel.size: the bits of a plane matrix's largest entry, the
# letters or syllables of a tree word.  So a huge exponent costs products
# of at most about 2**20 bits, while a finite-order isometry, whose powers
# stay small, takes any exponent.
MAX_ISOMETRY_SIZE = 2**19


class Owned(NamedTuple):
    """A value of one model, tagged with its id: an isometry (a primitive
    plane matrix, a tree word), a boundary point (a QuadraticNumber or None
    for infinity, a tree ray) or a lab's point (a plane triple, a tree
    vertex label), as a plain tuple.  Its model builds it with ``own`` and
    reads it with ``require``."""

    model_id: str
    payload: Any


class HyperbolicWitness(Protocol):
    """A hyperbolic class in its model's own type, holding the exact integers
    its record prints and no float or Fraction: the translation length, a
    float for a reader, and the fixed points (plus attracting, minus
    repelling) are built when read: the plane's pair from one isqrt, a
    tree's rays each folded alone."""

    translation_length: float
    fixed_plus: Owned
    fixed_minus: Owned
    fixed_points: tuple[Owned, Owned]


class IsometryClass(NamedTuple):
    """An exact class as a plain tuple: its tag, an elliptic period, a hyperbolic witness."""

    tag: str
    period: Optional[int] = None  # an elliptic class's order, None for an infinite-order plane rotation
    hyperbolic: Optional[HyperbolicWitness] = None
    is_hyperbolic = property(lambda self: self.tag == HYPERBOLIC)
    is_elliptic = property(lambda self: self.tag == ELLIPTIC)


class SpaceModel:
    """The code the concrete models share.  A model supplies the payload
    hooks below, ``tag(iso)`` (the exact tag of ``classify(iso)``, decided
    without building the class), ``classify``, ``boundary_equal(p, q)``,
    ``boundary_apply(iso, b)``, ``parse_word(text)`` and, where its isometries
    never take one of the three tags, its own ``tags`` (a tree has no parabolic).

    The public methods read each value they take with ``require``, which
    checks its model id, and tag each value they build with ``own``; they
    (``compose`` too) and the inner loops (``_power``, ``Action.image`` and the
    search's evaluator), which wrap once, run on bare payloads through five hooks:
    ``_mul(p, q)``, ``_inv(p)``, ``_one`` (the identity), ``_size(p)`` (the
    size MAX_ISOMETRY_SIZE caps) and ``_least_size(p, q)``, a lower bound on it for p q."""

    kind: str
    model_id: str
    tags = (ELLIPTIC, HYPERBOLIC, HYPOTHESIS_VIOLATION)  # those its isometries take: tagged_words walks no other
    __repr__ = lambda self: self.model_id  # what a class or an action holding its model shows in every run

    def own(self, payload) -> Owned:
        return tuple.__new__(Owned, (self.model_id, payload))  # no Python-level NamedTuple __new__

    def require(self, x: Owned) -> Any:
        """x's payload; x tagged with another model's id is MixedModels."""
        if x.model_id != self.model_id:
            raise MixedModels(f"value tagged {x.model_id}, model is {self.model_id}")
        return x.payload

    def compose(self, first: Owned, second: Owned) -> Owned:
        return self.own(self._mul(self.require(first), self.require(second)))

    def invert(self, iso: Owned) -> Owned:
        return self.own(self._inv(self.require(iso)))

    def identity(self) -> Owned:
        return self.own(self._one)

    def size(self, iso: Owned) -> int:
        return self._size(self.require(iso))

    def _power(self, p, n: int, size: int):
        """(p^n, a bound on its size) by repeated squaring, for p of at most
        the given size.  A product's size is at most its factors' sizes plus
        1, so a square's bound is 2 size + 1 and p^n's is n (size + 1) - 1;
        each square and the result are sized only once their bound passes
        MAX_ISOMETRY_SIZE, and past it they are a ValidationError."""
        if n == 0:
            return self._one, self._size(self._one)
        base, bound = (p if n > 0 else self._inv(p)), size
        n = abs(n)
        out, out_bound = None, -1
        while True:
            if n & 1:
                out = base if out is None else self._mul(out, base)
                out_bound += bound + 1
            n >>= 1
            if not n:
                if out is not base and out_bound > MAX_ISOMETRY_SIZE:
                    out_bound = self._sized(self._size(out))
                return out, out_bound
            base, bound = self._mul(base, base), 2 * bound + 1
            if bound > MAX_ISOMETRY_SIZE:
                bound = self._sized(self._size(base))

    def _sized(self, size: int, what: str = "a power") -> int:
        """A size, or a lower bound on one, read once a bound on it passes
        MAX_ISOMETRY_SIZE; past the cap it is a ValidationError."""
        if size > MAX_ISOMETRY_SIZE:
            raise ValidationError(
                f"{what} passes the cap of {MAX_ISOMETRY_SIZE} on an isometry's size "
                "(plane entry bits, tree word units)", "MAX_ISOMETRY_SIZE"
            )
        return size

    def tagged_words(self, generators: list[Owned], levels: Iterable, tag: str) -> Iterator[tuple[int, int]]:
        """(level, index) of each word of ``combiner.word_tree`` (its levels read one at a time) whose tag is
        ``tag``, in tree order; step 2i is generator i, 2i + 1 its inverse, a word its parent times its last step."""
        if tag not in self.tags:
            return
        steps = [p for g in generators for p in (self.require(g), self._inv(self.require(g)))]
        for n, level in enumerate(levels):  # words: the level above, then this one
            words = [self._mul(words[k // (len(steps) - 1)], steps[j]) if n else steps[j] for k, j in enumerate(level)]
            yield from ((n, k) for k, w in enumerate(words) if self.tag(self.own(w)) == tag)

    def fixes(self, iso: Owned, b: Owned) -> bool:
        """Whether iso fixes the boundary point b."""
        return self.boundary_equal(self.boundary_apply(iso, b), b)
