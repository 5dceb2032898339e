"""Stallings folding on the coset table against the rescanning oracle and
the dict-keyed union-find it replaced, and the canonical numbering of folded
graphs."""

import random

import pytest

import oracle_pi1free
from crosscap.pi1free import (
    FreeWord,
    StallingsGraph,
    parse_free,
    plus_basis_alphabet,
    rewrite_two_sided,
    x_,
)
from oracle_pi1free import claimed_ker_theta_generators, schreier_ker_theta_generators

CRITERION_8_POINTS = [(4, 1, 2), (4, 1, 3), (4, 2, 2), (5, 1, 2)]
KERNEL_CERT_POINTS = [(4, 2, 4), (5, 1, 3), (5, 2, 3)]


def mirrored(graph):
    """The backward entries that the forward entries of ``graph`` imply."""
    back = [[None] * len(graph.alphabet) for _ in graph.rows]
    for v, row in enumerate(graph.rows):
        for t, target in enumerate(row[::2]):
            if target is not None:
                back[target][t] = v
    return back


def edges(graph, label=None):
    """The forward edges (v, atom, t) of ``graph``, its vertices relabelled
    by ``label`` when one is given."""
    label = list(range(graph.vertex_count)) if label is None else label
    return sorted(
        (label[v], atom, label[t])
        for v, row in enumerate(graph.rows)
        for atom, t in zip(graph.alphabet, row[::2])
        if t is not None
    )


def renumbered(graph):
    """The edges of ``graph`` with its vertices numbered breadth-first from
    the base, letters in alphabet order, out-edges before in-edges."""
    order, label = [0], {0: 0}
    for v in order:
        for nbr in graph.rows[v]:
            if nbr is not None and nbr not in label:
                label[nbr] = len(order)
                order.append(nbr)
    return edges(graph, label)


def assert_matches_oracle(words, alphabet):
    graph = StallingsGraph.fold(words, alphabet)
    assert graph.to_json() == oracle_pi1free.folder_fold(words, alphabet).to_json()
    oracle = oracle_pi1free.fold(words, alphabet)
    assert graph.vertex_count == oracle.vertex_count
    assert graph.index() == oracle.index()
    assert [list(row[1::2]) for row in graph.rows] == mirrored(graph)
    # every vertex hangs off the base, and the numbering is already breadth-first
    assert renumbered(graph) == renumbered(oracle) == edges(graph)
    return graph


def plus_words(generators, g, n, d):
    return [rewrite_two_sided(w, g) for w in generators(g, n, d)]


@pytest.mark.parametrize("g,n,d", CRITERION_8_POINTS + KERNEL_CERT_POINTS)
@pytest.mark.parametrize(
    "generators", [claimed_ker_theta_generators, schreier_ker_theta_generators]
)
def test_matches_oracle_at_certification_points(g, n, d, generators):
    graph = assert_matches_oracle(plus_words(generators, g, n, d), plus_basis_alphabet(g, n))
    assert graph.index() == d ** (g - 1)


def random_word(rng, alphabet):
    letters = []
    for _ in range(rng.randint(0, 6)):
        run = 50 if rng.random() < 0.05 else rng.randint(1, 4)
        letters.append((rng.choice(alphabet), rng.choice((-1, 1)) * run))
    return FreeWord.from_letters(letters)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_matches_oracle_on_random_generator_sets(size):
    rng = random.Random(size)
    alphabet = [("x", i) for i in range(1, size + 1)]
    for _ in range(400):
        words = [random_word(rng, alphabet) for _ in range(rng.randint(0, 5))]
        if words and rng.random() < 0.2:
            words.append(rng.choice(words))
        if rng.random() < 0.1:
            words.append(FreeWord.identity())
        assert_matches_oracle(words, alphabet)


@pytest.mark.parametrize(
    "text",
    [
        "x2 x1^4 x2^-2",
        "x2 x1^4 x2^-1",
        "x1 x2 x1^-2",
        "x1^-1 x2^3 x1^2",
        "x1 x2 x3 x1^-1",
        "x3^2 x1 x2^-1 x3^-1",
    ],
)
def test_matches_oracle_on_words_not_cyclically_reduced(text):
    alphabet = [("x", 1), ("x", 2), ("x", 3)]
    w = parse_free(text)
    assert_matches_oracle([w], alphabet)
    assert_matches_oracle([w, w.inverse()], alphabet)
    assert_matches_oracle([x_(1) ** 3, w], alphabet)


def test_empty_and_trivial_inputs():
    alphabet = [("x", 1), ("x", 2)]
    for words in ([], [FreeWord.identity()]):
        graph = StallingsGraph.fold(words, alphabet)
        assert graph.rows == ((None,) * 4,)
    graph = StallingsGraph.fold([x_(1, 50)], alphabet)
    assert graph.vertex_count == 50 and graph.index() is None
    assert StallingsGraph.fold([x_(1, 50), x_(1, 35)], alphabet).vertex_count == 5


def test_numbering_depends_only_on_the_subgroup():
    rng = random.Random(7)
    alphabet = [("x", 1), ("x", 2), ("x", 3)]
    for _ in range(200):
        words = [random_word(rng, alphabet) for _ in range(rng.randint(1, 4))]
        expected = StallingsGraph.fold(words, alphabet).to_json()
        shuffled = rng.sample(words, len(words))
        assert StallingsGraph.fold(shuffled, alphabet).to_json() == expected
        assert StallingsGraph.fold(words + words[:2], alphabet).to_json() == expected
        a, b = rng.choice(words), rng.choice(words)
        extended = words + [a * b, a.inverse() * b * a, b ** 3]
        assert StallingsGraph.fold(rng.sample(extended, len(extended)), alphabet).to_json() == expected


@pytest.mark.parametrize("g,n,d", CRITERION_8_POINTS + [(4, 2, 4)])
def test_claimed_and_schreier_graphs_are_identical(g, n, d):
    alphabet = plus_basis_alphabet(g, n)
    claimed = StallingsGraph.fold(plus_words(claimed_ker_theta_generators, g, n, d), alphabet)
    schreier = StallingsGraph.fold(plus_words(schreier_ker_theta_generators, g, n, d), alphabet)
    assert claimed.to_json() == schreier.to_json()
