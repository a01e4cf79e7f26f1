import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypiso.trees import BassSerreModel, CayleyTreeModel
from hypiso.words import GroupWord


def test_free_reduction():
    w = GroupWord((("f", 1), ("g", 1), ("g", -1), ("f", 1)))
    assert w.display() == "f^2"


def test_identity_and_inverse():
    w = GroupWord.parse("f g^-2")
    assert w * w.inverse() == GroupWord(())
    assert w.inverse().display() == "g^2 f^-1"


def test_powers():
    w = GroupWord.parse("f g")
    assert (w**3).display() == "f g f g f g"
    assert (w**-1) == w.inverse()
    assert w**0 == GroupWord(())
    assert GroupWord.parse("f g f^-1") ** 3 == GroupWord.parse("f g^3 f^-1")


def test_parse_round_trip():
    for text in ("1", "f", "f^2 g^-1", "g^-3 f g"):
        assert GroupWord.parse(text).display() == text


def test_parse_unknown_generator():
    with pytest.raises(ValueError):
        GroupWord.parse("h", alphabet={"f", "g"})


def test_parse_refuses_the_name_1():
    # '1' is the identity word, never a generator's name, with or without
    # an alphabet
    for alphabet in (None, {"f", "g", "1"}):
        with pytest.raises(ValueError, match="bad word token '1'"):
            GroupWord.parse("f 1", alphabet)



def test_parse_refuses_an_empty_exponent():
    # a caret with no exponent is int('')'s error, never the power 1: in a
    # group word and in either tree's words
    for parse, text in ((GroupWord.parse, "f^"), (GroupWord.parse, "g f^ g"),
                        (CayleyTreeModel(2).parse_word, "a^"), (BassSerreModel(2, 3).parse_word, "s^ t")):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse(text)


# unreduced power tuples over f, g and h: exponent 0 and runs of one name included
powers = st.lists(st.tuples(st.sampled_from("fgh"), st.integers(-3, 3)), max_size=10)


def reference(powers) -> tuple:
    """Letter-level reference: expand to +-1 letters, free-reduce, collect."""
    letters: list[tuple[str, int]] = []
    for name, e in powers:
        for _ in range(abs(e)):
            sign = 1 if e > 0 else -1
            if letters and letters[-1] == (name, -sign):
                letters.pop()
            else:
                letters.append((name, sign))
    collected: list[tuple[str, int]] = []
    for name, sign in letters:
        if collected and collected[-1][0] == name:
            collected[-1] = (name, collected[-1][1] + sign)
        else:
            collected.append((name, sign))
    return tuple(collected)


@given(powers, powers)
def test_powers_match_the_letter_reference(a, b):
    u, v = GroupWord(tuple(a)), GroupWord(tuple(b))
    ref = reference(a)
    assert u.syllables == ref
    assert u.display() == (" ".join(n if e == 1 else f"{n}^{e}" for n, e in ref) or "1")
    assert len(u) == sum(abs(e) for _, e in ref)
    assert (u == v) == (ref == reference(b))
    assert u * v == GroupWord(reference(a + b))


def test_parse_does_not_expand_powers():
    w = GroupWord.parse("f^1000000")
    assert w.syllables == (("f", 1000000),)
    assert len(w) == 10**6
    assert (w * GroupWord.parse("f^-999999")).display() == "f"
    assert GroupWord((("f", 2),)) == GroupWord.parse("f^2")
    assert (w**-3).syllables == (("f", -3000000),)


def test_non_integer_exponent_rejected():
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError):
            GroupWord((("f", bad),))


@given(powers, powers, powers)
def test_associativity(a, b, c):
    u, v, w = GroupWord(tuple(a)), GroupWord(tuple(b)), GroupWord(tuple(c))
    assert (u * v) * w == u * (v * w)


@given(powers, st.integers(-4, 4))
def test_power_is_repeated_product(a, n):
    u = GroupWord(tuple(a))
    expected = GroupWord(())
    for _ in range(abs(n)):
        expected = expected * (u if n > 0 else u.inverse())
    assert u**n == expected


@given(powers)
def test_inverse_law(a):
    u = GroupWord(tuple(a))
    assert u * u.inverse() == GroupWord(())
    assert u.inverse() * u == GroupWord(())
    assert u.inverse().inverse() == u


@given(powers, powers)
def test_conjugate_round_trip(a, b):
    u, h = GroupWord(tuple(a)), GroupWord(tuple(b))
    assert h.inverse() * (h * u * h.inverse()) * h == u


# -- parser fuzz: every input is a ValueError or a word whose display parses back


names = st.sampled_from(["f", "g", "a", "b", "c", "s", "t", "1", "", "fg", "x"])
exponents = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["", "+2", "--1", "x", "1.5", "^2", "0", "-0"]),
)
tokens = st.tuples(names, st.booleans(), exponents).map(
    lambda t: t[0] + ("^" + t[2] if t[1] else "")
)
word_texts = st.one_of(
    st.lists(tokens, max_size=6).map(" ".join),
    st.text(alphabet="fgabst1^- 2\t", max_size=12),
)


@given(word_texts)
def test_group_word_parse_fuzz(text):
    try:
        w = GroupWord.parse(text)
    except ValueError:
        return
    assert GroupWord.parse(w.display()) == w


@pytest.mark.parametrize("model", [CayleyTreeModel(2), BassSerreModel(2, 3)], ids=["cayley", "bass_serre"])
@given(text=word_texts)
@example(text="a^2 b^-3")  # runs of one letter, which the strategy rarely yields in a word that parses
@example(text="a a b")
@example(text="b^-1 b^-1 a^-3")
def test_tree_parse_word_fuzz(model, text):
    try:
        iso = model.parse_word(text)
    except ValueError:
        return
    assert model.parse_word(model.word_display(iso.payload)) == iso
