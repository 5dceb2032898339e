"""``acts_trivially`` (is a product of words the identity on H_1, decided on
one Kronecker-packed class) against ``product_matrix(...).is_identity()``,
errors included."""

import itertools
import random

import pytest

from crosscap import homology
from crosscap.homology import NoHomologyActionError, acts_trivially, product_matrix
from crosscap.intmat import DimensionError, IntMatrix
from crosscap.words import (
    BoundaryTwist,
    GenusMismatchError,
    InvalidSymbolError,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
    word,
)

EXPONENTS = (0, 1, -1, 2, -2, 3, -5, 10**20, -(10**20), 2**64, -(2**64) + 1, 3**50)
SIGNS = (1, -1)


def _symbols(g: int) -> list:
    out = [
        Twist(c)
        for size in range(2, g + 1, 2)
        for c in itertools.combinations(range(1, g + 1), size)
    ]
    out += [Slide(a, b) for a, b in itertools.permutations(range(1, g + 1), 2)]
    out += [TorelliTag("gamma")]
    if g >= 2:
        out.append(TorelliTag("beta", (1, 2)))
    return out


def _random_word(rng: random.Random, g: int) -> MCGWord:
    symbols = _symbols(g)
    letters = [(rng.choice(symbols), rng.choice(EXPONENTS)) for _ in range(rng.randint(0, 6))]
    return MCGWord.from_letters(g, letters)


def _random_product(rng: random.Random, g: int) -> list:
    """A random factor list; half of them a list followed by its inverse
    (the identity), some of those with one factor dropped or one letter
    changed, so both answers occur."""
    factors = [(_random_word(rng, g), rng.choice(SIGNS)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        closed = factors + [(w, -s) for w, s in reversed(factors)]
        if closed and rng.random() < 0.3:
            del closed[rng.randrange(len(closed))]
        if rng.random() < 0.2:
            closed.insert(rng.randrange(len(closed) + 1), (_random_word(rng, g), rng.choice(SIGNS)))
        return closed
    return factors


@pytest.mark.parametrize("g", range(1, 9))
def test_random_products_match_product_matrix(g):
    rng = random.Random(5000 + g)
    answers = set()
    for _ in range(400):
        factors = _random_product(rng, g)
        want = product_matrix(g, factors).is_identity()
        assert acts_trivially(g, factors) is want, factors
        # an iterator is read whole, once
        assert acts_trivially(g, iter(factors)) is want
        answers.add(want)
    # genus 1 has no slide or twist, so every product there is trivial
    assert answers == ({True} if g == 1 else {True, False})


@pytest.mark.parametrize("g", range(2, 9))
def test_the_entry_bound_holds(g):
    # the reading pass's bound is what makes the packed decision exact:
    # every entry of the product is at most 2^b
    rng = random.Random(6000 + g)
    for _ in range(200):
        factors = _random_product(rng, g)
        bits = homology._entry_bits(g, tuple(factors))
        m = product_matrix(g, factors)
        assert max(abs(e) for row in m.rows for e in row) <= 1 << bits, factors


@pytest.mark.parametrize("g", range(2, 9))
def test_the_packed_base_is_above_twice_the_entries(monkeypatch, g):
    # the class handed to the vector pass is (1, B, ..., B^(g-1)) with B a
    # power of two above twice every entry of M - I, so its base-B digits
    # are the entries themselves
    classes = []
    real = homology._apply

    def apply(factors, v):
        classes.append(list(v))
        return real(factors, v)

    monkeypatch.setattr(homology, "_apply", apply)
    rng = random.Random(8000 + g)
    for _ in range(200):
        factors = _random_product(rng, g)
        classes.clear()
        acts_trivially(g, factors)
        (x,) = classes
        base = x[1]
        assert base & (base - 1) == 0
        assert x == [base**c for c in range(g)]
        m = product_matrix(g, factors)
        assert base > 2 * max(abs(e - (r == c)) for r, row in enumerate(m.rows) for c, e in enumerate(row))


@pytest.mark.parametrize("k", range(0, 80))
def test_a_twist_power_at_the_width_edge_is_nontrivial(k):
    g = 3
    e = 1 << k
    t = word(g, (Twist((1, 2)), e))
    # its bound is k + 2 bits, so B = 2^(k + 4) and the entry e of M - I
    # sits just below B / 2
    assert homology._entry_bits(g, ((t, 1),)) == k + 2
    assert not acts_trivially(g, [(t, 1)])
    assert not acts_trivially(g, [(t, -1), (word(g, (Twist((1, 2)), e - 1)), 1)])
    y = word(g, Slide(3, 1))
    # a slide at most triples the entries: 2 bits each
    assert homology._entry_bits(g, ((y, 1), (t, 1), (y, 1))) == k + 6
    assert not acts_trivially(g, [(y, 1), (t, 1), (y, 1)])
    assert acts_trivially(g, [(t, 1), (word(g, (Twist((1, 2)), -e)), 1)])


def raised(evaluate, g, factors) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        evaluate(g, factors)
    return info.type, str(info.value)


BAD_SLIDE = MCGWord(4, ((Slide(1, 2), 1), (Slide(2, 5), 1)))
BAD_TWIST_AND_BOUNDARY = MCGWord(4, ((Twist((1, 6)), 1), (BoundaryTwist("delta", (1,)), 2)))
TAG = word(4, TorelliTag("gamma"))
TAG_THEN_BAD_SLIDE = MCGWord(4, ((TorelliTag("gamma"), 1), (Slide(2, 5), 1)))
# a factor with a bound of over a thousand bits before the bad letter
BIG_TWIST = word(4, (Twist((1, 2)), 1 << 1025))


@pytest.mark.parametrize(
    "factors, error",
    [
        ([(word(4, Slide(3, 1)), 1), (BAD_SLIDE, 1), (word(5, Slide(1, 5)), 1)], InvalidSymbolError),
        # a -1 factor is read from its last letter: the boundary twist first
        ([(BAD_TWIST_AND_BOUNDARY, -1)], NoHomologyActionError),
        ([(BAD_TWIST_AND_BOUNDARY, 1)], InvalidSymbolError),
        ([(BAD_SLIDE, -1), (word(4, Slide(3, 1)), 2)], InvalidSymbolError),
        ([(word(4, Slide(3, 1)), 0), (BAD_SLIDE, 1)], ValueError),
        ([(word(5, Slide(1, 2)), 1), (BAD_SLIDE, 1)], GenusMismatchError),
        ([(TAG, 1), (BAD_SLIDE, 2)], ValueError),
        ([(TAG, 1), (word(5, Slide(1, 2)), 0)], GenusMismatchError),
        ([(TAG_THEN_BAD_SLIDE, 1)], InvalidSymbolError),
        ([(MCGWord(4, ((Slide(1, 2), 1), (BoundaryTwist("delta", (1,)), 1))), -1)], NoHomologyActionError),
        ([(BIG_TWIST, 1), (BAD_SLIDE, -1)], InvalidSymbolError),
        ([(BIG_TWIST, 1), (TAG, 3)], ValueError),
        ([(BIG_TWIST, 1), (word(5, Slide(1, 2)), 1)], GenusMismatchError),
        # malformed factors: first in reading order, and after a failure
        ([("junk", 1), (BAD_SLIDE, 1)], AttributeError),
        ([5, (BAD_SLIDE, 1)], TypeError),
        ([(BAD_SLIDE, 1), ("junk", 1)], InvalidSymbolError),
        ([(BAD_SLIDE, 1), 5], InvalidSymbolError),
    ],
)
def test_errors_match_product_matrix(factors, error):
    want = raised(product_matrix, 4, factors)
    assert want[0] is error
    assert raised(acts_trivially, 4, factors) == want
    assert raised(acts_trivially, 4, iter(factors)) == want


def test_genus_is_checked():
    with pytest.raises(DimensionError, match="dimension must be >= 1"):
        acts_trivially(0, [])
    assert acts_trivially(1, [])
    assert acts_trivially(3, [(MCGWord.identity(3), -1)])


def test_no_matrix_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(homology, "product_matrix", refuse)
    monkeypatch.setattr(homology, "word_matrix", refuse)
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    g = 5
    u = word(g, (Slide(2, 4), 1), (Twist((1, 2, 3, 5)), -(10**20)), (TorelliTag("gamma"), 3))
    assert acts_trivially(g, [(u, 1), (u, -1)])
    assert not acts_trivially(g, [(u, 1)])
