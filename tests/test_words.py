import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypiso.words import GroupWord


def test_free_reduction():
    w = GroupWord((("f", 1), ("g", 1), ("g", -1), ("f", 1)))
    assert w.display() == "f^2"


def test_identity_and_inverse():
    w = GroupWord.parse("f g^-2")
    assert (w * w.inverse()).is_identity
    assert w.inverse().display() == "g^2 f^-1"


def test_powers():
    w = GroupWord.parse("f g")
    assert (w**3).display() == "f g f g f g"
    assert (w**-1) == w.inverse()
    assert (w**0).is_identity
    assert GroupWord.parse("f g f^-1") ** 3 == GroupWord.parse("f g^3 f^-1")


def test_parse_round_trip():
    for text in ("1", "f", "f^2 g^-1", "g^-3 f g"):
        assert GroupWord.parse(text).display() == text


def test_parse_unknown_generator():
    with pytest.raises(ValueError):
        GroupWord.parse("h", alphabet={"f", "g"})


letters = st.lists(
    st.tuples(st.sampled_from(["f", "g", "h"]), st.sampled_from([1, -1])), max_size=12
)


@given(letters, letters, letters)
def test_associativity(a, b, c):
    u, v, w = GroupWord(tuple(a)), GroupWord(tuple(b)), GroupWord(tuple(c))
    assert (u * v) * w == u * (v * w)


@given(letters)
def test_inverse_law(a):
    u = GroupWord(tuple(a))
    assert (u * u.inverse()).is_identity
    assert (u.inverse() * u).is_identity
    assert u.inverse().inverse() == u


@given(letters, letters)
def test_conjugate_round_trip(a, b):
    u, h = GroupWord(tuple(a)), GroupWord(tuple(b))
    assert u.conjugate(h).conjugate(h.inverse()) == u
