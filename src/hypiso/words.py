"""Freely reduced words over an abstract generator alphabet.

The combiner works entirely with these words; each action interprets them
in its own space model.  A word is stored as its reduced powers, the
``syllables`` (name, nonzero int), no two adjacent of one name: ``f^1000000``
is one pair, ``len`` still counts its letters, and ``w * w.inverse()`` is
the empty word by construction.  ``parse_powers`` and ``format_powers`` are
the one text form of power words; tree words share it, each printed by its model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class GroupWord:
    syllables: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "syllables", reduce_powers(self.syllables))

    @staticmethod
    def generator(name: str) -> "GroupWord":
        return GroupWord(((name, 1),))

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.syllables + other.syllables)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else self.inverse()
        return GroupWord(base.syllables * abs(n))  # one reduction pass

    def display(self) -> str:
        return format_powers(self.syllables)

    def __repr__(self):
        return f"GroupWord({self.display()!r})"

    @staticmethod
    def parse(text: str, alphabet: set[str] | None = None) -> "GroupWord":
        """Parse 'f^2 g^-1' style text; '1' is the identity, never a name."""

        def check(name: str, token: str) -> None:
            if name in ("", "1"):
                raise ValueError(f"bad word token {token!r}")

        powers = []
        for name, e in parse_powers(text, check):
            if alphabet is not None and name not in alphabet:
                raise ValueError(f"unknown generator {name!r}")
            powers.append((name, e))
        return GroupWord(tuple(powers))


def parse_powers(text: str, check: Callable[[str, str], None]) -> Iterator[tuple[str, int]]:
    """The powers of 'f^2 g^-1' style text, token by token: ('f', 2), ('g', -1).

    ``check(name, token)`` sees each token before its exponent is read, so a
    caller's own name check wins over a malformed exponent.  '1' has none."""
    if text.strip() == "1":
        return
    for token in text.split():
        name, caret, exp = token.partition("^")
        check(name, token)
        yield name, int(exp) if caret else 1


def reduce_powers(powers: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Adjacent powers of one name merged and those that cancel dropped:
    f f^2 g g^-1 f^-3 gives ().  A non-integer exponent is a ValueError."""
    out: list[tuple[str, int]] = []
    for name, e in powers:
        if not isinstance(e, int):
            raise ValueError(f"exponent must be an integer, got {e!r}")
        if out and out[-1][0] == name:
            e += out.pop()[1]
        if e:
            out.append((name, e))
    return tuple(out)


def format_powers(powers: Iterable[tuple[str, int]]) -> str:
    """'f^2 g^-1' for [('f', 2), ('g', -1)]; '1' for no powers."""
    return " ".join([name if e == 1 else f"{name}^{e}" for name, e in powers]) or "1"
