"""Exact oracles for certificates, written apart from hypiso.

Nothing here imports hypiso.  Each oracle recomputes a fact from raw
integers and Fractions so that the benchmark can check the program's
outputs without trusting any of its code:

* plane actions: a word's image is a product of 2x2 Fraction matrices;
  it is hyperbolic iff |trace| > 2, and ``cosh-half`` is |trace|/2;
* Cayley actions: free reduction, then cyclic reduction; tau is the
  cyclic letter length;
* Bass-Serre actions of Z/m * Z/n: syllable normal form and cyclic
  reduction; hyperbolic iff the cyclic syllable length is at least 2;
* the number of freely reduced words of length 1..d in r generators.

Generator images are raw data (see ``gen.ActionSpec``): a 4-tuple of
Fractions for the plane, a tuple of (factor, exponent) syllables for a
Bass-Serre tree, a tuple of nonzero ints (sign = direction) for a Cayley
tree.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = tuple  # (a, b, c, d) of Fractions, determinant 1

IDENTITY: Matrix = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


# -- words --------------------------------------------------------------------


def parse_word(text: str) -> list[tuple[str, int]]:
    """'f^2 g^-1' -> [('f', 2), ('g', -1)]; '1' is the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return []
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def reduced_word_count(rank: int, depth: int) -> int:
    """Freely reduced nonempty words of length <= depth: sum 2r(2r-1)^(k-1)."""
    return sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, depth + 1))


# -- plane ----------------------------------------------------------------------


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    a, b, c, d = x
    p, q, r, s = y
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def mat_inv(m: Matrix) -> Matrix:
    a, b, c, d = m
    return (d, -b, -c, a)


def mat_pow(m: Matrix, n: int) -> Matrix:
    if n < 0:
        m, n = mat_inv(m), -n
    out = IDENTITY
    while n:
        if n & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        n >>= 1
    return out


def plane_image(images: dict, word: list[tuple[str, int]]) -> Matrix:
    out = IDENTITY
    for gen, exp in word:
        out = mat_mul(out, mat_pow(images[gen], exp))
    return out


def plane_tag(m: Matrix) -> str:
    a, b, c, d = m
    t = abs(a + d)
    if t > 2:
        return "hyperbolic"
    if t == 2 and not (b == 0 and c == 0 and a == d):
        return "parabolic"
    return "elliptic"


def sign_surd(x: Fraction, y: Fraction, r: Fraction) -> int:
    """Sign of x + y*sqrt(r), exactly (r >= 0)."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0) if r else 0
    if sy == 0 or sx == sy:
        return sx or sy
    if sx == 0:
        return sy
    diff = x * x - y * y * r
    return sx if diff > 0 else sy if diff < 0 else 0


def parse_boundary(text: str):
    """'inf' -> None; 'rat:p/q' -> (p/q, 0, 0); 'quad:a;b;d' -> (a, b, d)."""
    if text == "inf":
        return None
    kind, _, body = text.partition(":")
    if kind == "rat":
        return (Fraction(body), Fraction(0), Fraction(0))
    if kind == "quad":
        a, b, d = body.split(";")
        return (Fraction(a), Fraction(b), Fraction(d))
    raise ValueError(f"unknown plane boundary point {text!r}")


def plane_fixed_point_problems(m: Matrix, plus: str, minus: str) -> list[str]:
    """The recorded boundary points must be the attracting and repelling
    fixed points of the hyperbolic matrix m."""
    a, b, c, d = m
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
    problems = []
    points = {}
    for label, text in (("plus", plus), ("minus", minus)):
        z = parse_boundary(text)
        points[label] = z
        if z is None:
            if c != 0:
                problems.append(f"{label}=inf is not fixed")
                continue
            attracting = a * a > 1
        else:
            p, q, r = z
            # c z^2 + (d - a) z - b = 0, split into rational and sqrt(r) parts
            rational = c * (p * p + q * q * r) + (d - a) * p - b
            surd = (2 * c * p + (d - a)) * q if r else Fraction(0)
            if rational != 0 or surd != 0:
                problems.append(f"{label}={text} is not fixed")
                continue
            # attracting iff |c z + d| > 1, i.e. (c z + d)^2 - 1 > 0
            x, y = c * p + d, c * q
            attracting = sign_surd(x * x + y * y * r - 1, 2 * x * y, r) > 0
        if attracting != (label == "plus"):
            problems.append(f"{label}={text} has the wrong dynamics")
    if points["plus"] == points["minus"]:
        problems.append("plus and minus coincide")
    return problems


def parabolic_count(images: list, depth: int) -> int:
    """Parabolic images among the freely reduced words of length <= depth
    in the given generator matrices, walking the prefix tree.

    Works on integer matrices N with M = N / D, where M is parabolic iff
    |tr N| = 2D and N is not scalar."""
    letters = []
    for j, m in enumerate(images):
        den = math.lcm(*(x.denominator for x in m))
        a, b, c, d = (int(x * den) for x in m)
        letters += [((a, b, c, d, den), (j, 1)), ((d, -b, -c, a, den), (j, -1))]
    count = 0
    frontier = [((1, 0, 0, 1, 1), None)]
    for _ in range(depth):
        nxt = []
        for (a, b, c, d, den), last in frontier:
            for (p, q, r, s, den2), key in letters:
                if last == (key[0], -key[1]):
                    continue
                n = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, den * den2)
                if abs(n[0] + n[3]) == 2 * n[4] and not (n[1] == 0 == n[2] and n[0] == n[3]):
                    count += 1
                nxt.append((n, key))
        frontier = nxt
    return count


# -- Cayley trees -----------------------------------------------------------------


def free_reduce(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def free_power(w: tuple, n: int) -> tuple:
    if n < 0:
        w, n = free_inverse(w), -n
    return free_reduce(w * n)


def cayley_image(images: dict, word: list[tuple[str, int]]) -> tuple:
    out: list[int] = []
    for gen, exp in word:
        out.extend(free_power(images[gen], exp))
    return free_reduce(out)


def cyclic_core_free(w: tuple) -> tuple:
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def cayley_tau(images: dict, word: list[tuple[str, int]]) -> int:
    """Cyclic letter length: 0 for the identity (elliptic), else tau."""
    return len(cyclic_core_free(cayley_image(images, word)))


# -- Bass-Serre trees of Z/m * Z/n ---------------------------------------------------


def bs_reduce(syllables, orders: tuple[int, int]) -> tuple:
    out: list[tuple[int, int]] = []
    for factor, exp in syllables:
        exp %= orders[factor]
        if exp == 0:
            continue
        if out and out[-1][0] == factor:
            merged = (out[-1][1] + exp) % orders[factor]
            out.pop()
            if merged:
                out.append((factor, merged))
        else:
            out.append((factor, exp))
    return tuple(out)


def bs_inverse(w, orders) -> tuple:
    return tuple((f, (-e) % orders[f]) for f, e in reversed(w))


def bs_image(images: dict, word: list[tuple[str, int]], orders) -> tuple:
    out: list[tuple[int, int]] = []
    for gen, exp in word:
        w = images[gen] if exp > 0 else bs_inverse(images[gen], orders)
        out.extend(w * abs(exp))
    return bs_reduce(out, orders)


def bs_cyclic_length(w: tuple, orders) -> int:
    """Syllable length after cyclic reduction: conjugating by the first
    syllable merges it into the last while they lie in the same factor."""
    w = list(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i][0] == w[j - 1][0]:
        factor = w[i][0]
        merged = (w[i][1] + w[j - 1][1]) % orders[factor]
        i += 1
        if merged:
            w[j - 1] = (factor, merged)
        else:
            j -= 1
    return j - i


def bs_tau(images: dict, word: list[tuple[str, int]], orders) -> int:
    """Cyclic syllable length; hyperbolic iff >= 2, and then it is tau."""
    return bs_cyclic_length(bs_image(images, word, orders), orders)


# -- one action, whatever its model ----------------------------------------------------


def classify(action, word: list[tuple[str, int]]) -> tuple[str, str | None]:
    """(tag, invariant) as the record writes it, from raw arithmetic alone.

    The invariant is 'cosh-half=<|tr|/2>' on the plane and
    'syllables=<tau>' on trees; None when the word is not hyperbolic."""
    if action.kind == "half_plane":
        m = plane_image(action.images, word)
        tag = plane_tag(m)
        if tag != "hyperbolic":
            return tag, None
        return tag, f"cosh-half={fmt_rational(abs(m[0] + m[3]) / 2)}"
    if action.kind == "cayley_tree":
        tau = cayley_tau(action.images, word)
    else:
        tau = bs_tau(action.images, word, action.params)
        if tau < 2:
            tau = 0
    if tau == 0:
        return "elliptic", None
    return "hyperbolic", f"syllables={tau}"


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- records -----------------------------------------------------------------------------


def record_fields(text: str) -> dict:
    """The fields of a hypiso-record v1 text that the checks read."""
    out = {"word": None, "stages": [], "witnesses": []}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "word":
            out["word"] = rest
        elif key == "stage":
            t = line.split()
            out["stages"].append({t[i]: t[i + 1] for i in range(3, len(t) - 1, 2)})
        elif key == "witness":
            out["witnesses"].append(line.split())
    return out


def certificate_problems(spec, text: str, max_exponent: int) -> list[str]:
    """Check a combine/report record against the raw system ``spec``."""
    rec = record_fields(text)
    if rec["word"] is None:
        return ["record has no word"]
    word = parse_word(rec["word"])
    problems = []
    if len(rec["witnesses"]) != len(spec.actions):
        problems.append(f"{len(rec['witnesses'])} witnesses for {len(spec.actions)} actions")
    for stage in rec["stages"]:
        if int(stage["a"]) > max_exponent or int(stage["b"]) > max_exponent:
            problems.append(f"stage exponent above {max_exponent}: {stage}")
    for i, (action, wline) in enumerate(zip(spec.actions, rec["witnesses"])):
        tag, invariant = classify(action, word)
        if tag != "hyperbolic":
            problems.append(f"action {i}: oracle says {tag}")
            continue
        if wline[4] != "hyperbolic" or wline[5] != invariant:
            problems.append(f"action {i}: record {wline[4:6]}, oracle {invariant}")
            continue
        if action.kind == "half_plane":
            m = plane_image(action.images, word)
            plus, minus = wline[6].removeprefix("plus="), wline[7].removeprefix("minus=")
            problems += [f"action {i}: {p}" for p in plane_fixed_point_problems(m, plus, minus)]
    return problems


def alter_witness(text: str) -> str:
    """A copy of the record with the first witness invariant off by one."""
    lines = text.splitlines(keepends=True)
    for n, line in enumerate(lines):
        if line.startswith("witness "):
            parts = line.rstrip("\n").split(" ")
            key, _, value = parts[5].partition("=")
            parts[5] = f"{key}={fmt_rational(Fraction(value) + 1)}"
            lines[n] = " ".join(parts) + "\n"
            return "".join(lines)
    raise ValueError("record has no witness line")
