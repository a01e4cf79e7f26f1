"""Boundary points of the plane as the primitive integer forms they are
roots of.

A QuadraticNumber is a value, not a field.  A rational p/q is the linear
form (q, -p), the root of q z - p; a quadratic irrational is its minimal
form (A, B, C), with root = +-1 naming the point (-B + root*sqrt(B^2 - 4AC))/2A.
Each form is primitive with a positive leading coefficient, so a value has
one spelling, and equality and hashing are the tuple's.  The plane moves a
point by substituting into its form (``halfplane``); infinity is None.
Floats appear only in ``float()``, for the geometry lab's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QuadraticNumber:
    """The root of an integer form: (q, -p) for p/q, root 0, or (A, B, C)
    with root +-1."""

    form: tuple[int, ...]
    root: int = 0

    @staticmethod
    def of(form: tuple[int, ...], root: int = 0) -> "QuadraticNumber":
        """The point of form, made primitive with a positive leading
        coefficient: negating a quadratic form swaps which root is larger."""
        g = math.gcd(*form)
        if form[0] < 0:
            g, root = -g, -root
        return QuadraticNumber(tuple(x // g for x in form), root)

    def __float__(self) -> float:
        """Within an ulp or two, or +-inf past float range: sqrt(Delta) as one
        isqrt of Delta * 4^k with over 64 bits, and the root as whichever of
        (-B + root sqrt(Delta))/2A and 2C/(-B - root sqrt(Delta)) adds two
        terms of one sign."""
        if not self.root:
            num, den = -self.form[1], self.form[0]
        else:
            a, b, c = self.form
            disc = b * b - 4 * a * c
            k = max(0, 64 - disc.bit_length() // 2)
            r = self.root * math.isqrt(disc << 2 * k)
            if b * self.root <= 0:
                num, den = (-b << k) + r, 2 * a << k
            else:
                num, den = 2 * c << k, (-b << k) - r
        try:
            return num / den
        except OverflowError:
            return math.inf if (num > 0) == (den > 0) else -math.inf
