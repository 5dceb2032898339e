"""``product_matrix`` (the action of a product of words, read factor by
factor) against the dense-product oracle of the spelled product and the
column-update evaluator it replaced, the slide-commutator rows' factors
against the word-spelling oracle table, and LEM42-3CHAIN's chain and
slide-form factors against the words they replaced."""

import itertools
import random

import pytest

import oracle_ledger
from crosscap import families, intmat, ledger
from crosscap.homology import NoHomologyActionError, product_matrix, reduced_action, word_matrix
from crosscap.intmat import DimensionError, IntMatrix
from crosscap.words import (
    BoundaryTwist,
    GenusMismatchError,
    InvalidSymbolError,
    MCGWord,
    ReducedWord,
    Slide,
    TorelliTag,
    Twist,
    word,
)
from oracle_families import slide_commutator_rows as oracle_rows
from oracle_families import three_chain_relations as oracle_three_chain
from oracle_homology import column_product_matrix, oracle_word_matrix

HUGE = 10**20
EXPONENTS = (0, 1, -1, 2, -2, 3, -5, HUGE, -HUGE - 1)
SIGNS = (1, -1)


def _symbols(g: int) -> list:
    out = [
        Twist(c)
        for size in range(2, g + 1, 2)
        for c in itertools.combinations(range(1, g + 1), size)
    ]
    out += [Slide(a, b) for a, b in itertools.permutations(range(1, g + 1), 2)]
    out += [TorelliTag("beta", (1, 2)), TorelliTag("gamma")]
    return out


def _random_word(rng: random.Random, g: int) -> MCGWord:
    symbols = _symbols(g)
    letters = [(rng.choice(symbols), rng.choice(EXPONENTS)) for _ in range(rng.randint(0, 6))]
    return MCGWord.from_letters(g, letters)


def spelled(g: int, factors) -> MCGWord:
    """The product w_1^s_1 ... w_k^s_k as one freely reduced word."""
    out = MCGWord.identity(g)
    for w, sign in factors:
        out = out * (w if sign == 1 else w.inverse())
    return out


@pytest.mark.parametrize("g", range(2, 9))
def test_random_factor_lists_match_the_spelled_product(g):
    rng = random.Random(2000 + g)
    for _ in range(60):
        ws = [_random_word(rng, g) for _ in range(rng.randint(0, 5))]
        factors = [(w, rng.choice(SIGNS)) for w in ws]
        # a word next to its own inverse or itself, so seams cancel or merge
        if ws:
            w = rng.choice(ws)
            factors.insert(rng.randrange(len(factors) + 1), (w, rng.choice(SIGNS)))
        got = product_matrix(g, factors)
        assert got == oracle_word_matrix(spelled(g, factors)), factors
        assert got == column_product_matrix(g, factors), factors


@pytest.mark.parametrize("sign", SIGNS)
def test_empty_factor_lists_and_empty_factors_give_the_identity(sign):
    assert product_matrix(4, []) == IntMatrix.identity(4)
    assert product_matrix(4, [(MCGWord.identity(4), sign)]) == IntMatrix.identity(4)
    assert product_matrix(1, [(MCGWord.identity(1), sign)]) == IntMatrix.identity(1)


@pytest.mark.parametrize("sign", SIGNS)
def test_inverse_twist_powers(sign):
    g = 5
    for sym, exp in ((Twist((1, 2)), -3), (Twist((1, 2, 3, 5)), -HUGE), (Twist((2, 4)), -1)):
        w = word(g, (Slide(2, 1), 1), (sym, exp))
        assert product_matrix(g, [(w, sign)]) == oracle_word_matrix(w if sign == 1 else w.inverse())
        # a twist power against its own inverse power cancels exactly
        t = word(g, (sym, exp))
        assert product_matrix(g, [(t, sign), (word(g, (sym, -exp)), sign)]).is_identity()


@pytest.mark.parametrize("sign", SIGNS)
def test_torelli_tags_act_trivially(sign):
    g = 4
    tags = word(g, TorelliTag("gamma"), (TorelliTag("beta", (1, 3)), -2))
    assert product_matrix(g, [(tags, sign)]).is_identity()
    slide = word(g, Slide(1, 2))
    assert product_matrix(g, [(slide, 1), (tags, sign), (slide, -1)]).is_identity()


@pytest.mark.parametrize("sign", SIGNS)
def test_seams_that_would_cancel(sign):
    g = 5
    u = word(g, (Slide(1, 2), 1), (Twist((1, 3)), 2), (Slide(4, 5), -1))
    v = word(g, (Slide(4, 5), 1), (Twist((1, 3)), -2), (Slide(2, 3), 1))
    # u v cancels two letters at the seam; u u^-1 cancels to the empty word
    assert product_matrix(g, [(u, sign), (u, -sign)]).is_identity()
    for factors in ([(u, 1), (v, sign)], [(v, sign), (u, sign), (v, -sign)]):
        assert product_matrix(g, factors) == oracle_word_matrix(spelled(g, factors))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize(
    "bad, error",
    [
        (MCGWord(4, ((Slide(1, 2), 1), (Slide(2, 5), 2))), InvalidSymbolError),
        (MCGWord(4, ((Slide(1, 2), 1), (Twist((1, 5)), -1))), InvalidSymbolError),
        (MCGWord(4, ((Twist((1, 2)), 1), (BoundaryTwist("delta", (1,)), 1))), NoHomologyActionError),
        (MCGWord.from_letters(5, [(Slide(1, 2), 1)]), GenusMismatchError),
    ],
)
def test_errors_match_word_matrix(sign, bad, error):
    good = word(4, Slide(3, 1))
    with pytest.raises(error):
        product_matrix(4, [(good, 1), (bad, sign), (good, -1)])
    if error is not GenusMismatchError:
        with pytest.raises(error):
            word_matrix(bad if sign == 1 else bad.inverse())


def raised(evaluate, g, factors) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        evaluate(g, factors)
    return info.type, str(info.value)


BAD_SLIDE = MCGWord(4, ((Slide(1, 2), 1), (Slide(2, 5), 1)))
BAD_TWIST_AND_BOUNDARY = MCGWord(4, ((Twist((1, 6)), 1), (BoundaryTwist("delta", (1,)), 2)))
# a valid tag read after a failure must not clear it
TAG = word(4, TorelliTag("gamma"))
TAG_THEN_BAD_SLIDE = MCGWord(4, ((TorelliTag("gamma"), 1), (Slide(2, 5), 1)))


@pytest.mark.parametrize(
    "factors, error",
    [
        # a bad letter in factor 2 and a factor of genus 5 at position 3
        ([(word(4, Slide(3, 1)), 1), (BAD_SLIDE, 1), (word(5, Slide(1, 5)), 1)], InvalidSymbolError),
        # a -1 factor is read from its last letter: the boundary twist first
        ([(BAD_TWIST_AND_BOUNDARY, -1)], NoHomologyActionError),
        ([(BAD_TWIST_AND_BOUNDARY, 1)], InvalidSymbolError),
        # a bad letter before a bad sign, and a bad sign before a bad letter
        ([(BAD_SLIDE, -1), (word(4, Slide(3, 1)), 2)], InvalidSymbolError),
        ([(word(4, Slide(3, 1)), 0), (BAD_SLIDE, 1)], ValueError),
        ([(word(5, Slide(1, 2)), 1), (BAD_SLIDE, 1)], GenusMismatchError),
        # a bad sign on a factor that also holds a bad letter
        ([(TAG, 1), (BAD_SLIDE, 2)], ValueError),
        # a genus-5 factor whose letters pass genus 4, and whose bad sign
        # comes after its genus in reading order
        ([(TAG, 1), (word(5, Slide(1, 2)), 0)], GenusMismatchError),
        ([(TAG_THEN_BAD_SLIDE, 1)], InvalidSymbolError),
    ],
)
def test_the_first_error_read_left_to_right_is_raised(factors, error):
    want = raised(column_product_matrix, 4, factors)
    assert want[0] is error
    # an iterator of factors must be read whole, once
    assert raised(product_matrix, 4, iter(factors)) == want


def test_a_malformed_factor_still_raises():
    # first in reading order: its own Python error
    with pytest.raises(AttributeError):
        product_matrix(4, [("junk", 1), (BAD_SLIDE, 1)])
    with pytest.raises(TypeError):
        product_matrix(4, [5, (BAD_SLIDE, 1)])
    # after a well-formed failure: that failure
    with pytest.raises(InvalidSymbolError):
        product_matrix(4, [(BAD_SLIDE, 1), ("junk", 1)])
    with pytest.raises(InvalidSymbolError):
        product_matrix(4, [(BAD_SLIDE, 1), 5])


def test_genus_and_sign_are_checked():
    with pytest.raises(DimensionError):
        product_matrix(0, [])
    with pytest.raises(DimensionError):
        word_matrix(MCGWord(0, ()))
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        product_matrix(3, [(word(3, Slide(1, 2)), 2)])


def test_no_word_or_matrix_products(monkeypatch):
    g = 5
    u = word(g, (Twist((1, 2)), 3), (Slide(2, 4), 1), (TorelliTag("gamma"), 1))
    v = word(g, (Twist((1, 2, 3, 5)), -HUGE), (Slide(5, 1), 2), (Slide(3, 1), -3))
    factors = [(u, 1), (v, -1), (u, -1), (v, 1)]
    expected = oracle_word_matrix(spelled(g, factors))

    def refuse(*args):
        raise AssertionError("product_matrix must not form words or matrix products")

    monkeypatch.setattr(IntMatrix, "__mul__", refuse)
    monkeypatch.setattr(MCGWord, "__mul__", refuse)
    monkeypatch.setattr(ReducedWord, "inverse", refuse)
    assert product_matrix(g, factors) == expected


def test_generators_and_reduced_actions_form_no_products(monkeypatch):
    g = 6
    w = word(g, (Twist((1, 2, 3, 5)), -HUGE), (Slide(5, 1), 1), (Twist((2, 6)), 3), Slide(6, 4))
    m = oracle_word_matrix(w).rows
    expected = IntMatrix(tuple(tuple(x - y for x, y in zip(row, m[-1][:-1])) for row in m[:-1]))
    generators = {
        (n, d): oracle_ledger.product_gamma_generators(n, d) for n in (3, 5) for d in (2, 3, HUGE)
    }

    def refuse(*args):
        raise AssertionError("must not form matrix products or re-validate entries")

    monkeypatch.setattr(IntMatrix, "__mul__", refuse)
    monkeypatch.setattr(intmat, "_freeze", refuse)
    assert reduced_action(w) == expected
    for (n, d), gens in generators.items():
        assert oracle_ledger.gamma_generators(n, d) == gens
        assert ledger.conjugated_gamma_generators(n, d) == gens[n * (n - 1) :]


@pytest.mark.parametrize("g", range(4, 9))
def test_commutator_rows_spell_the_oracle_words(g):
    # each relation is [Y_x1, Y_x2]^-1 as four factors, then its row
    relations = [(name, factors) for name, genus, factors in families.slide_commutator_relations(g) if genus == g]
    reference = list(oracle_rows(g))
    assert [name for name, _ in relations] == [(g, x1, x2) for x1, x2, _ in reference]
    for (name, factors), (_, _, rhs) in zip(relations, reference):
        y1, y2 = (word(g, Slide(*x)) for x in name[1:])
        assert factors[:4] == ((y2, 1), (y1, 1), (y2, -1), (y1, -1)), name
        assert spelled(g, factors[4:]) == rhs, name
        assert (len(factors) == 4) == rhs.is_identity(), name
    # the pairs of commuting slides, whose rows are empty
    assert sum(len(factors) == 4 for _, factors in relations) == {4: 4, 5: 24, 6: 80, 7: 200, 8: 420}[g]


@pytest.mark.parametrize("g", range(4, 9))
def test_three_chain_factors_act_as_the_words_they_replace(g):
    # the oracle's relations hold the chain power and the slide form as
    # words: (chain, 1) first, and (slide form, -1) last of "slides"
    words = {name: factors for name, genus, factors in oracle_three_chain(g) if genus == g}
    relations = {name: factors for name, genus, factors in families.three_chain_relations(g) if genus == g}
    assert list(relations) == list(words)
    for _, j, k, l in families.family_indices("D", g):
        chain, slide_form = words[g, j, k, l, "slides"]
        chain_factors = families.three_chain_factors(j, k, l, lambda idx: word(g, Twist(idx)))
        slide_factors = families.three_chain_slide_factors(j, k, l, lambda a, b: word(g, Slide(a, b)))
        assert product_matrix(g, chain_factors).rows == word_matrix(chain[0]).rows
        assert product_matrix(g, slide_factors).rows == word_matrix(slide_form[0]).rows
        assert spelled(g, chain_factors) == chain[0]
        assert spelled(g, slide_factors) == slide_form[0]
        # the chain power inverted, then the paired form T D^-1 T or the slide form
        twist = word(g, Twist((1, j, k, l)))
        d = families.named_element("D", (1, j, k, l), g).word
        inverse = families.inverse_factors(chain_factors)
        assert relations[g, j, k, l, "paired"] == inverse + ((twist, 1), (d, -1), (twist, 1))
        assert relations[g, j, k, l, "slides"] == inverse + slide_factors
