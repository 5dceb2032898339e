import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscap.intmat import elementary
from crosscap.homology import reduced_action
from crosscap.words import (
    BoundaryTwist,
    GenusMismatchError,
    InvalidSymbolError,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
    WordSyntaxError,
    commutator,
    conjugate,
    format_word,
    parse,
    word,
)


def test_parse_twist_power():
    w = parse("T(1,2)^3", 4)
    assert w.letters == ((Twist((1, 2)), 3),)


def test_parse_commutator_expands():
    w = parse("[T(2,4), Y(1,2)]", 4)
    expected = commutator(word(4, Twist((2, 4))), word(4, Slide(1, 2)))
    assert w == expected
    assert len(w.letters) == 4


def test_parse_free_reduction():
    assert parse("Y(1,2) Y(1,2)^-1", 4).is_identity()
    assert parse("T(1,2) T(1,2)^2", 4).letters == ((Twist((1, 2)), 3),)


def test_parse_conj():
    w = parse("conj(T(1,2), Y(3,2))", 4)
    assert w == conjugate(word(4, Twist((1, 2))), word(4, Slide(3, 2)))


def test_parse_nested_and_compound():
    inner = commutator(word(4, Slide(1, 2)), word(4, Slide(2, 1)))
    outer = commutator(word(4, Twist((1, 2))), inner)
    assert parse("[T(1,2), [Y(1,2), Y(2,1)]]", 4) == outer
    w = parse("conj(T(1,2)^2, Y(1,3) Y(2,3))", 4)
    assert w == conjugate(
        word(4, (Twist((1, 2)), 2)), word(4, Slide(1, 3)) * word(4, Slide(2, 3))
    )
    # concatenation does not require whitespace
    assert parse("T(1,2)T(1,3)", 4) == word(4, Twist((1, 2))) * word(4, Twist((1, 3)))


def test_parse_named_families_and_tags():
    assert parse("A(1,2)", 4).letters == ((Twist((1, 2)), 4),)
    assert parse("B(1,2)", 4).letters == ((Slide(1, 2), 2),)
    assert parse("Bname(1,2)", 4).letters == ((TorelliTag("beta", (1, 2)), 1),)
    assert parse("Gamma", 4).letters == ((TorelliTag("gamma"), 1),)
    assert parse("Delta(1)", 4).letters == ((BoundaryTwist("delta", (1,)), 1),)
    assert parse("Eta(1,2;3)", 4).letters == ((BoundaryTwist("eta", (1, 2, 3)), 1),)


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse("T(1,2) %", 4)
    assert err.value.pos == 7
    with pytest.raises(WordSyntaxError):
        parse("T(1,2", 4)
    with pytest.raises(WordSyntaxError):
        parse("Q(1,2)", 4)
    with pytest.raises(WordSyntaxError):
        parse("T(1,2,3)", 4)  # odd twist set
    with pytest.raises(WordSyntaxError):
        parse("T(1,9)", 4)  # exceeds genus


def test_format_parse_roundtrip():
    texts = [
        "T(1,3)^2 Y(1,2)^-1 A(1,2)",
        "C(1,2;4) Gamma Bname(1,2)",
        "Delta(1) Eps(4,1) Zeta(1,2) Zbar(1,2) Acurve(1;2)^2",
        "",
    ]
    for text in texts:
        w = parse(text, 4)
        again = parse(format_word(w), 4)
        assert again == w
        # stability after one pass
        assert format_word(again) == format_word(w)


@settings(max_examples=120)
@given(st.data())
def test_roundtrip_random_words(data):
    g = data.draw(st.integers(3, 6))
    letters = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(("twist", "slide", "beta", "boundary")))
        if kind == "twist":
            size = data.draw(st.sampled_from(range(2, g + 1, 2)))
            idx = tuple(
                sorted(
                    data.draw(
                        st.lists(
                            st.integers(1, g), min_size=size, max_size=size, unique=True
                        )
                    )
                )
            )
            sym = Twist(idx)
        elif kind == "slide":
            a, b = data.draw(
                st.lists(st.integers(1, g), min_size=2, max_size=2, unique=True)
            )
            sym = Slide(a, b)
        elif kind == "beta":
            i, j = data.draw(
                st.lists(st.integers(1, g), min_size=2, max_size=2, unique=True)
            )
            sym = TorelliTag("beta", (i, j))
        else:
            sym = BoundaryTwist("delta", (data.draw(st.integers(1, 3)),))
        exp = data.draw(st.integers(-4, 4).filter(lambda e: e != 0))
        letters.append((sym, exp))
    w = MCGWord.from_letters(g, letters)
    assert parse(format_word(w), g) == w


def test_commutator_identities():
    a = word(4, Twist((1, 2)))
    assert commutator(a, a).is_identity()
    assert conjugate(a, MCGWord.identity(4)) == a


def test_commutator_power_hits_elementary():
    # genus 4, level 4: the half-power of the twist/slide commutator
    w = parse("[T(2,4), Y(1,2)]^2", 4)
    assert reduced_action(w).rows == elementary(3, 1, 2, 4).rows


def test_inverse_and_power():
    w = parse("T(1,2) Y(1,3)^2", 4)
    assert (w * w.inverse()).is_identity()
    assert w**0 == MCGWord.identity(4)
    assert w**-2 == (w.inverse()) ** 2


def test_power_of_one_letter_scales_the_exponent():
    assert parse("Y(1,2)^30000000", 3).letters == ((Slide(1, 2), 30000000),)
    n = 10**20 - 1
    w = parse("T(1,2)^-99999999999999999999", 3)
    assert w.letters == ((Twist((1, 2)), -n),)
    assert reduced_action(w).rows == ((1 + n, -n), (n, 1 - n))


def test_power_of_a_word_matches_the_explicit_product():
    w = parse("T(1,2) Y(1,3)", 4)
    explicit = MCGWord.from_letters(4, w.letters * 1000)
    assert w**1000 == explicit
    assert w**-1000 == explicit.inverse()
    u = parse("conj(T(1,2), Y(1,3))", 4)
    assert u**7 == MCGWord.from_letters(4, u.letters * 7)


def test_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        word(4, Twist((1, 2))) * word(5, Twist((1, 2)))


def test_symbol_validation():
    with pytest.raises(InvalidSymbolError):
        Twist((1, 2, 3))
    with pytest.raises(InvalidSymbolError):
        Slide(2, 2)
    with pytest.raises(InvalidSymbolError):
        word(2, Twist((1, 3)))
    with pytest.raises(InvalidSymbolError):
        TorelliTag("beta", (1,))


def test_boundary_words_parse_and_count():
    w = parse("Delta(1)^3 Zbar(1,2)", 4)
    assert all(isinstance(s, BoundaryTwist) for s, _ in w.letters)
    assert w.length() == 4
