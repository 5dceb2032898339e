"""The matrix-free ``act`` (one coefficient vector, letter by letter)
against ``oracle_homology.oracle_act`` (the word's matrix times the
vector), errors included, and ``H1Class`` as a frozen value type."""

import copy
import itertools
import pickle
import random

import pytest

from crosscap import homology
from crosscap.homology import H1Class, NoHomologyActionError, act, acts_trivially, word_matrix
from crosscap.words import (
    BoundaryTwist,
    InvalidSymbolError,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
)
from oracle_homology import oracle_act

HUGE = 10**20
EXPONENTS = (0, 1, -1, 2, -2, 5, -5, HUGE, -HUGE, HUGE + 1)


def _symbols(g: int) -> list:
    """Every generator symbol at genus g: twists of every even size, slides, tags."""
    out = [
        Twist(c)
        for size in range(2, g + 1, 2)
        for c in itertools.combinations(range(1, g + 1), size)
    ]
    out += [Slide(a, b) for a, b in itertools.permutations(range(1, g + 1), 2)]
    out += [TorelliTag("beta", c) for c in itertools.combinations(range(1, g + 1), 2)]
    out.append(TorelliTag("gamma"))
    return out


def _raw_word(rng: random.Random, g: int) -> MCGWord:
    """A raw word: letters may repeat and exponents may be 0; about one in
    ten is empty."""
    symbols = _symbols(g)
    length = rng.choice((0, *range(1, 10)))
    return MCGWord(g, tuple((rng.choice(symbols), rng.choice(EXPONENTS)) for _ in range(length)))


def _class(rng: random.Random, g: int) -> H1Class:
    return H1Class(g, [rng.choice((0, 1, -1, 3, -7, HUGE)) for _ in range(g)])


@pytest.mark.parametrize("g", range(2, 9))
def test_random_words_match_the_oracle(g):
    rng = random.Random(3000 + g)
    for _ in range(400):
        w, x = _raw_word(rng, g), _class(rng, g)
        got, want = act(w, x), oracle_act(w, x)
        # the raw coefficients, not H1Class's == up to an even shift
        assert got.coeffs == want.coeffs, (str(w), x)


@pytest.mark.parametrize("g", range(2, 9))
def test_every_letter_and_exponent_matches_the_oracle(g):
    rng = random.Random(4000 + g)
    x = _class(rng, g)
    for sym in _symbols(g):
        for exp in EXPONENTS:
            w = MCGWord(g, ((sym, exp),))
            assert act(w, x).coeffs == oracle_act(w, x).coeffs, (sym, exp)


def test_the_empty_word_returns_the_class_unchanged():
    x = H1Class(3, (5, -2, HUGE))
    assert act(MCGWord(3, ()), x).coeffs == (5, -2, HUGE)


def test_no_matrix_is_built(monkeypatch):
    w = MCGWord(5, ((Twist((1, 2, 3, 5)), -HUGE), (Slide(2, 4), 1), (TorelliTag("gamma"), 3)))
    x = H1Class(5, (1, 2, 3, 4, 5))
    expected = oracle_act(w, x).coeffs

    def refuse(*args):
        raise AssertionError("act must not build a matrix")

    monkeypatch.setattr(homology, "product_matrix", refuse)
    monkeypatch.setattr(homology, "word_matrix", refuse)
    # Y(2,4) sends x_2 to 2 x_4 - x_2 = 6; the twist adds -HUGE (w . x) = -7 HUGE
    assert act(w, x).coeffs == expected
    assert expected == (1 - 7 * HUGE, 6 - 7 * HUGE, 3 - 7 * HUGE, 4, 5 - 7 * HUGE)


def _outcome(evaluate, *args):
    try:
        return "value", evaluate(*args).coeffs
    except Exception as exc:  # the exact type and message are the point
        return type(exc), str(exc)


def _raised(evaluate, *args):
    with pytest.raises(Exception) as info:
        evaluate(*args)
    return info.type, str(info.value)


BAD_LETTERS = [
    (Slide(2, 5), InvalidSymbolError),
    (Slide(5, 1), InvalidSymbolError),
    (Twist((1, 5)), InvalidSymbolError),
    (Twist((1, 2, 3, 6)), InvalidSymbolError),
    (TorelliTag("beta", (3, 5)), InvalidSymbolError),
    (BoundaryTwist("delta", (1,)), NoHomologyActionError),
    (BoundaryTwist("eta", (1, 2, 3)), NoHomologyActionError),
    ("Y(1,2)", TypeError),
    (7, TypeError),
]


@pytest.mark.parametrize("bad, error", BAD_LETTERS)
@pytest.mark.parametrize("position", [0, 1, 3])
def test_a_bad_letter_raises_as_the_oracle_does(bad, error, position):
    good = [(Slide(1, 2), 1), (Twist((1, 2, 3, 4)), -HUGE), (TorelliTag("gamma"), 1)]
    letters = good[:position] + [(bad, 1)] + good[position:]
    w = MCGWord(4, tuple(letters))
    x = H1Class(4, (1, 0, 2, 0))
    got = _outcome(act, w, x)
    assert got == _outcome(oracle_act, w, x)
    assert got[0] is error
    # act and acts_trivially read their letters by the one checking pass
    assert got == _raised(acts_trivially, 4, ((w, 1),))


@pytest.mark.parametrize("first, second", itertools.permutations(range(len(BAD_LETTERS)), 2))
def test_the_leftmost_bad_letter_raises(first, second):
    # the matrix reads left to right, so its first bad letter is the leftmost
    w = MCGWord(4, ((Slide(1, 2), 1), (BAD_LETTERS[first][0], 1), (BAD_LETTERS[second][0], -1)))
    x = H1Class(4, (1, 1, 1, 1))
    got = _outcome(act, w, x)
    assert got == _outcome(oracle_act, w, x)
    assert got == _outcome(lambda w, x: word_matrix(w), w, x)
    assert got == _raised(acts_trivially, 4, ((w, 1),))


def test_a_class_of_another_genus_raises_as_the_oracle_does():
    w = MCGWord(4, ((Slide(1, 2), 1),))
    x = H1Class(3, (1, 0, 0))
    got = _outcome(act, w, x)
    assert got == _outcome(oracle_act, w, x) == (ValueError, "genus mismatch: word 4, class 3")
    # the genus is compared before any letter is read
    bad = MCGWord(4, ((BoundaryTwist("delta", (1,)), 1),))
    assert _outcome(act, bad, x) == _outcome(oracle_act, bad, x) == got


# ---------------------------------------------------------------------------
# H1Class as a frozen value type
# ---------------------------------------------------------------------------


def test_assignment_and_deletion_raise():
    x = H1Class(3, (1, 0, 0))
    members = {x}
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        x.coeffs = (0, 1, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'genus'"):
        x.genus = 4
    with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
        del x.coeffs
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x.coeffs == (1, 0, 0) and x in members


def test_equality_and_hash_are_on_normal_forms():
    x, y = H1Class(4, (1, 1, 1, 3)), H1Class(4, (-1, -1, -1, 1))
    assert x == y and hash(x) == hash(y)
    assert x.coeffs != y.coeffs
    assert H1Class(4, (1, 1, 1, 1)) != H1Class(4, (2, 2, 2, 2))
    assert H1Class(2, (0, 0)) != H1Class(3, (0, 0, 0))
    assert H1Class(3, (1, 0, 0)).__eq__((1, 0, 0)) is NotImplemented
    assert len({H1Class(3, (c + 2, c, c + 2)) for c in range(-4, 5, 2)}) == 1
    assert repr(x) == "H1Class(g=4, 'a1 + a2 + a3 + 3a4')"
    assert str(y) == "-a1 - a2 - a3 + a4"


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_copies_and_pickles_keep_the_raw_coefficients(clone):
    x = H1Class(4, (5, 0, 2, -HUGE))
    twin = clone(x)
    assert type(twin) is H1Class
    assert (twin.genus, twin.coeffs) == (4, (5, 0, 2, -HUGE))
    assert twin == x and hash(twin) == hash(x)


def test_arithmetic_is_unchanged():
    x, y = H1Class(3, (1, 2, 3)), H1Class(3, (0, -2, 5))
    assert (x + y).coeffs == (1, 0, 8)
    assert (-x).coeffs == (-1, -2, -3)
    with pytest.raises(ValueError, match="genus mismatch: 3 vs 2"):
        x + H1Class(2, (0, 0))


@pytest.mark.parametrize("genus", [0, -1])
def test_a_genus_below_one_is_refused(genus):
    with pytest.raises(ValueError, match="^genus must be >= 1$"):
        H1Class(genus, ())


def test_a_wrong_coefficient_count_is_refused():
    with pytest.raises(ValueError, match="^need 3 coefficients, got 2$"):
        H1Class(3, (1, 2))
