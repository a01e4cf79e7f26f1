"""Fuzz of the CLI: configs and records with lines dropped, inserted or
swapped and tokens replaced must end in a documented exit code (0-3), never
in a traceback; and the record of every successful combine, on those or on
whole generated configs, must verify."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypiso.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

WORDS = ["generators", "action", "model", "gen", "witness", "ball-radius", "seed", "max-exponent",
         "word-sample-depth", "half_plane", "bass_serre", "cayley_tree", "f", "g", "s", "t", "a",
         "[[", "]]", ",", "^", "/", "#", "command", "exit-code", "word", "stage", "end"]
TOKEN = st.one_of(st.sampled_from(WORDS), st.integers(-3, 6).map(str))


@st.composite
def mutated(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["drop", "insert", "swap", "token"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, " ".join(draw(st.lists(TOKEN, min_size=1, max_size=3))))
        elif op == "drop":
            del lines[i]
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:  # replace one token, or drop it
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.one_of(st.just(""), TOKEN))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@FUZZ
@given(
    config=st.sampled_from(["worked_example.cfg", "three_action.cfg"]).flatmap(
        lambda name: mutated((CONFIGS / name).read_text())
    ),
    command=st.sampled_from(["classify", "combine", "report"]),
    fmt=st.sampled_from(["table", "records"]),
)
def test_mutated_config_exits_0_to_3(tmp_path, config, command, fmt):
    path = tmp_path / "fuzz.cfg"
    path.write_text(config)
    # the flag bounds the search; the config's own max-exponent is still parsed
    assert run([command, "--input", str(path), "--max-exponent", "4", "--format", fmt]) in (0, 1, 2, 3)


def good_record() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["combine", "--input", str(CONFIGS / "worked_example.cfg"), "--format", "records"]) == 0
    return out.getvalue()


@FUZZ
@given(record=st.deferred(lambda: mutated(good_record())), fmt=st.sampled_from(["table", "records"]))
def test_mutated_record_exits_0_to_3(tmp_path, record, fmt):
    path = tmp_path / "fuzz.rec"
    path.write_text(record)
    argv = ["combine", "--input", str(CONFIGS / "worked_example.cfg"), "--verify", str(path), "--format", fmt]
    assert run(argv) in (0, 1, 2, 3)


NAMES = st.one_of(TOKEN, st.sampled_from(["h", "f^2", "g^-1"]))


@st.composite
def variant(draw, text: str) -> str:
    """The config, maybe without its witness lines (the search then finds the
    witnesses), and maybe with one generator renamed in every token that
    names it, as in 'f' and 'f^2'."""
    lines = text.splitlines()
    if draw(st.booleans()):
        lines = [line for line in lines if not line.startswith("witness")]
    if draw(st.booleans()):
        old, new = draw(st.sampled_from(["f", "g"])), draw(NAMES)

        def rename(token: str) -> str:
            name, hat, exp = token.partition("^")
            return new + hat + exp if name == old else token

        lines = [" ".join(rename(token) for token in line.split()) for line in lines]
    return "\n".join(lines) + "\n"


def rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@st.composite
def plane_image(draw, hyperbolic: bool) -> str:
    """A shear product [[1, u], [0, 1]][[1, 0], [v, 1]] or the other way
    round, of trace 2 + uv: hyperbolic for uv > 0, else maybe elliptic (uv
    not 0 or -4).  It is conjugated by diag(p, 1/p); a rational p other than
    +-1 gives it a denominator (s > 1)."""
    nonzero = st.sampled_from([1, 2, 3, -1, -2, -3])
    u, v = draw(st.tuples(nonzero, nonzero).filter(
        lambda uv: uv[0] * uv[1] > 0 if hyperbolic else uv[0] * uv[1] != -4
    ))
    a, b, c, d = (1 + u * v, u, v, 1) if draw(st.booleans()) else (1, u, v, 1 + u * v)
    p2 = draw(st.sampled_from([1, 2, 3, 5])) / Fraction(draw(st.sampled_from([1, 2, 3])))
    return f"[[{rational(a)}, {rational(b * p2 * p2)}], [{rational(c / (p2 * p2))}, {rational(d)}]]"


@st.composite
def tree_image(draw, letters: str, hyperbolic: bool) -> str:
    """A short word such as 'a^2 b^-1', or '1'; when hyperbolic, positive
    powers of distinct letters (Cayley) or s^i t^j (Bass-Serre)."""
    if hyperbolic and letters == "st":
        # an exponent may be 0 mod its factor's order: then not hyperbolic
        return f"s^{draw(st.integers(1, 3))} t^{draw(st.integers(1, 3))}"
    if hyperbolic:
        chosen = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=2, unique=True))
        return " ".join(x + draw(st.sampled_from(["", "^2"])) for x in chosen)
    power = st.tuples(st.sampled_from(letters), st.sampled_from(["", "^2", "^-1", "^-2", "^3"]))
    return " ".join(x + e for x, e in draw(st.lists(power, max_size=3))) or "1"


@st.composite
def whole_config(draw) -> str:
    """A config on generators f and g with 1-3 actions of any model kind.
    In each, one generator's image is meant to be hyperbolic, and the
    witness is none, that generator, or a word that may not be hyperbolic."""
    lines = ["hypiso-config v1", "generators f g"]
    if draw(st.booleans()):
        lines.append(f"word-sample-depth {draw(st.integers(1, 3))}")
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["half_plane", "bass_serre", "cayley_tree"]))
        model = kind
        if kind == "bass_serre":
            model = f"{kind} {draw(st.integers(2, 4))} {draw(st.integers(2, 4))}"
        elif kind == "cayley_tree":
            model = f"{kind} {draw(st.integers(1, 3))}"
        lines += ["", f"action act{i}", f"model {model}"]
        hyperbolic = draw(st.sampled_from("fg"))
        for gen in "fg":
            if kind == "half_plane":
                lines.append(f"gen {gen} {draw(plane_image(gen == hyperbolic))}")
            else:
                letters = "st" if kind == "bass_serre" else "abc"[: int(model.split()[1])]
                lines.append(f"gen {gen} {draw(tree_image(letters, gen == hyperbolic))}")
        witness = draw(st.sampled_from([None, hyperbolic, hyperbolic, "f g", "f^2 g^-1"]))
        if witness is not None:
            lines.append(f"witness {witness}")
    return "\n".join(lines) + "\n"


@settings(FUZZ, max_examples=300)
@given(config=st.one_of(
    st.sampled_from(["worked_example.cfg", "three_action.cfg"]).flatmap(
        lambda name: variant((CONFIGS / name).read_text())
    ).flatmap(lambda text: st.one_of(st.just(text), mutated(text))),
    whole_config(),
))
def test_combined_record_verifies_on_its_config(tmp_path, config):
    # whatever combine prints as a record and exits 0 on, combine --verify
    # accepts on the same config
    path, record = tmp_path / "fuzz.cfg", tmp_path / "fuzz.rec"
    path.write_text(config)
    argv = ["combine", "--input", str(path), "--max-exponent", "4"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", "records"])
    if code == 0:
        record.write_text(out.getvalue())
        assert run(argv + ["--verify", str(record)]) == 0
