"""``word_matrix`` (column operations) against the dense-product oracle."""

import itertools
import random

import pytest

from crosscap.families import main3_generators
from crosscap.homology import NoHomologyActionError, word_matrix
from crosscap.intmat import IntMatrix
from crosscap.words import (
    BoundaryTwist,
    InvalidSymbolError,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
)
from oracle_homology import oracle_word_matrix

HUGE = 10**20
EXPONENTS = (0, 1, -1, 2, -2, 3, -3, 4, -5, 10, -11, HUGE, -HUGE, HUGE + 1, -HUGE - 1)


def _letters(g: int) -> list:
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


def _random_word(rng: random.Random, g: int, length: int) -> MCGWord:
    """A raw word: letters may repeat and exponents may be 0, as in ``MCGWord(g, letters)``."""
    symbols = _letters(g)
    letters = tuple((rng.choice(symbols), rng.choice(EXPONENTS)) for _ in range(length))
    return MCGWord(g, letters)


@pytest.mark.parametrize("g", range(2, 9))
def test_every_letter_and_exponent_matches_oracle(g):
    for sym in _letters(g):
        for exp in EXPONENTS:
            w = MCGWord(g, ((sym, exp),))
            assert word_matrix(w) == oracle_word_matrix(w), (sym, exp)


@pytest.mark.parametrize("g", range(2, 9))
def test_random_words_match_oracle(g):
    rng = random.Random(1000 + g)
    for _ in range(120):
        w = _random_word(rng, g, rng.randint(0, 12))
        assert word_matrix(w) == oracle_word_matrix(w), str(w)
        reduced = MCGWord.from_letters(g, w.letters)
        assert word_matrix(reduced) == word_matrix(w)


def test_main3_generators_match_oracle_g4():
    count = 0
    for w in main3_generators(4):
        assert word_matrix(w) == oracle_word_matrix(w), str(w)
        count += 1
    assert count == 12800


@pytest.mark.parametrize("evaluate", (word_matrix, oracle_word_matrix))
def test_boundary_letters_raise(evaluate):
    for sym in (BoundaryTwist("delta", (1,)), BoundaryTwist("eta", (1, 2, 3))):
        w = MCGWord(4, ((Twist((1, 2)), 1), (sym, 1), (Slide(1, 2), 1)))
        with pytest.raises(NoHomologyActionError):
            evaluate(w)


@pytest.mark.parametrize("evaluate", (word_matrix, oracle_word_matrix))
@pytest.mark.parametrize(
    "sym", (Twist((1, 5)), Slide(5, 1), Slide(2, 5), TorelliTag("beta", (3, 5)))
)
def test_out_of_genus_symbol_raises(evaluate, sym):
    w = MCGWord(4, ((Slide(1, 2), 1), (sym, 2)))
    with pytest.raises(InvalidSymbolError):
        evaluate(w)


def test_no_dense_products(monkeypatch):
    w = MCGWord(
        5,
        (
            (Twist((1, 2)), 3),
            (Slide(2, 4), 1),
            (TorelliTag("gamma"), 1),
            (Twist((1, 2, 3, 5)), -HUGE),
            (Slide(5, 1), 2),
            (TorelliTag("beta", (2, 3)), -1),
            (Slide(3, 1), -3),
        ),
    )
    expected = oracle_word_matrix(w)

    def no_products(self, other):
        raise AssertionError("word_matrix must not multiply matrices")

    monkeypatch.setattr(IntMatrix, "__mul__", no_products)
    assert word_matrix(w) == expected
