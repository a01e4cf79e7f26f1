"""Freely reduced words over an abstract generator alphabet.

The combiner works entirely with these words; each action interprets them
in its own space model.  ``parse_powers``, ``collect_powers`` and
``format_powers`` are the one text form of power words, which the tree
models' own words share.  Letters are (generator name, +1/-1) pairs and the
word is always freely reduced, so ``w * w.inverse()`` is the empty word by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class GroupWord:
    letters: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(tuple(self.letters)))

    @staticmethod
    def identity() -> "GroupWord":
        return GroupWord(())

    @staticmethod
    def generator(name: str, sign: int = 1) -> "GroupWord":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return GroupWord(((name, sign),))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else self.inverse()
        return GroupWord(base.letters * abs(n))  # one reduction pass

    def conjugate(self, by: "GroupWord") -> "GroupWord":
        return by * self * by.inverse()

    def syllables(self) -> list[tuple[str, int]]:
        """Collected powers: [('f', 2), ('g', -1), ...]."""
        return collect_powers(self.letters)

    def display(self) -> str:
        return format_powers(self.syllables())

    def __str__(self):
        return self.display()

    def __repr__(self):
        return f"GroupWord({self.display()!r})"

    @staticmethod
    def parse(text: str, alphabet: set[str] | None = None) -> "GroupWord":
        """Parse 'f^2 g^-1' style text; '1' denotes the identity."""
        text = text.strip()
        if text in ("", "1"):
            return GroupWord(())

        def check(name: str, token: str) -> None:
            if not name:
                raise ValueError(f"bad word token {token!r}")

        letters: list[tuple[str, int]] = []
        for name, e in parse_powers(text, check):
            if alphabet is not None and name not in alphabet:
                raise ValueError(f"unknown generator {name!r}")
            letters.extend([(name, 1 if e > 0 else -1)] * abs(e))
        return GroupWord(tuple(letters))


def parse_powers(text: str, check: Callable[[str, str], None]) -> Iterator[tuple[str, int]]:
    """The powers of 'f^2 g^-1' style text, token by token: ('f', 2), ('g', -1).

    ``check(name, token)`` sees each token before its exponent is read, so
    a caller's own name check wins over a malformed exponent."""
    for token in text.split():
        name, _, exp = token.partition("^")
        check(name, token)
        yield name, int(exp) if exp else 1


def collect_powers(letters: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
    """Adjacent powers of one name merged: [('f', 1), ('f', 1), ('g', -1)]
    gives [('f', 2), ('g', -1)]."""
    out: list[tuple[str, int]] = []
    for g, e in letters:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return out


def format_powers(powers: Iterable[tuple[str, int]]) -> str:
    """'f^2 g^-1' for [('f', 2), ('g', -1)]; '1' for no powers."""
    return " ".join([name if e == 1 else f"{name}^{e}" for name, e in powers]) or "1"


def _reduce(letters: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1/-1, got {s}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)
