"""Tietze elimination before coset enumeration, against the enumeration of
the presentation as given.

``finitegrp.eliminate_generators`` must present the same group, so
Todd-Coxeter must count as many cosets on its output as on its input, and
``pi1free.coset_count_ker_theta``, which enumerates the reduced kernel
relators, must agree with the plain enumeration of
``relators_for_enumeration`` and with the index d^(g-1).
"""

import random

import pytest

import oracle_pi1free
from conftest import Budget
from crosscap.finitegrp import ScaleGuardError, eliminate_generators, todd_coxeter
from crosscap.pi1free import coset_count_ker_theta, relators_for_enumeration
from test_coset_rows import KERNEL_POINTS, PRESENTATIONS

SMALL_GRID = [
    (g, n, d)
    for g in range(1, 6)
    for n in range(1, 4)
    for d in range(2, 7)
    if d ** (g - 1) <= 1500
]


@pytest.mark.parametrize("g,n,d", sorted(set(KERNEL_POINTS) | set(SMALL_GRID)))
def test_reduced_enumeration_counts_the_index_as_the_plain_one_does(g, n, d):
    plain = todd_coxeter(*relators_for_enumeration(g, n, d)).coset_count
    assert coset_count_ker_theta(g, n, d).coset_count == plain == d ** (g - 1)


def test_the_oracle_enumerates_the_relators_as_given():
    table = oracle_pi1free.coset_count_ker_theta(4, 2, 2)
    assert table.rank == 9 and table.coset_count == 8


@pytest.mark.parametrize(
    "g,n,d,rank,relators",
    # v_g, y_k and z_k are one-letter relators, and x_j^2 = u_j v_j leaves
    # v_j = u_j^-1; the commutators [u_i, u_j] and the powers u_i^d remain
    [(4, 2, 4, 3, 6), (5, 1, 3, 4, 10), (5, 2, 3, 4, 10), (5, 1, 8, 4, 10)],
)
def test_kernel_presentations_shrink_to_the_u_letters(g, n, d, rank, relators):
    reduced_rank, reduced = eliminate_generators(*relators_for_enumeration(g, n, d))
    assert (reduced_rank, len(reduced)) == (rank, relators)
    assert sorted(map(len, reduced)) == sorted([4] * (relators - rank) + [d] * rank)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_small_groups_keep_their_orders(name):
    rank, rels = PRESENTATIONS[name]
    reduced = eliminate_generators(rank, rels)
    assert todd_coxeter(*reduced).coset_count == todd_coxeter(rank, rels).coset_count


def count_or_cap(rank, rels, cap):
    try:
        return todd_coxeter(rank, rels, cap=cap).coset_count
    except ScaleGuardError:
        return None


def test_random_presentations_keep_their_orders():
    rng = random.Random(11)
    finite = 0
    for _ in range(300):
        rank = rng.randint(1, 3)
        letters = [x for x in range(-rank, rank + 1) if x]
        rels = [
            [rng.choice(letters) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 4))
        ]
        plain = count_or_cap(rank, rels, 2000)
        reduced = count_or_cap(*eliminate_generators(rank, rels), 2000)
        if (plain is None) != (reduced is None):
            # one side hit the small cap: the other count must be confirmed
            plain = plain or count_or_cap(rank, rels, 50_000)
            reduced = reduced or count_or_cap(*eliminate_generators(rank, rels), 50_000)
        assert plain == reduced, (rank, rels)
        finite += plain is not None
    assert finite > 100


def test_a_free_letter_survives_and_the_cap_is_reached():
    # x1 = 1 leaves x2 free: the group is Z, and dropping x2 would make it 1
    assert eliminate_generators(2, [[1]]) == (1, [])
    with Budget("todd_coxeter(1, [])", 5.0):
        with pytest.raises(ScaleGuardError, match="exceeded cap of 100000"):
            todd_coxeter(*eliminate_generators(2, [[1]]))


def test_the_last_generator_is_never_eliminated():
    assert eliminate_generators(3, [[1], [-2], [3, 1, -1]]) == (1, [[1]])
    # at g = 1 every plus-basis letter is a one-letter relator
    assert relators_for_enumeration(1, 3, 5)[0] == 5
    assert eliminate_generators(*relators_for_enumeration(1, 3, 5)) == (1, [[1]])
    assert coset_count_ker_theta(1, 3, 5).coset_count == 1


@pytest.mark.parametrize(
    "rank, rels, reduced",
    [
        # x1^3 x2 = 1: x2 = x1^-3
        (2, [[1, 1, 1, 2], [2, 2]], (1, [[-1] * 6])),
        # read cyclically, x2^-1 x1 x2^-1 is x1 x2^-2: x1 = x2^2, renumbered
        (2, [[-2, 1, -2], [1, 2, 1, 2, 1]], (1, [[1] * 8])),
        # x1 x2: both exponents are +-1, so the later generator goes
        (2, [[1, 2], [2, 2, 2]], (1, [[-1, -1, -1]])),
        # x1^2 x2^2 and x1 x2 x1 x2 eliminate nothing; x3 x3^-1 reduces away
        (3, [[1, 1, 2, 2], [1, 2, 1, 2], [3, -3]], (3, [[1, 1, 2, 2], [1, 2, 1, 2]])),
        # free and cyclic reduction: x2 x1 x1^-1 x3 x2^-1 is x3, eliminated;
        # then x1 x2 eliminates x2, and x1 is left free
        (3, [[2, 1, -1, 3, -2], [3, 1, 2]], (1, [])),
    ],
)
def test_tietze_moves(rank, rels, reduced):
    assert eliminate_generators(rank, rels) == reduced


def test_bad_presentations_are_refused():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        eliminate_generators(0, [])
    with pytest.raises(ValueError, match="letter 3 outside alphabet of rank 2"):
        eliminate_generators(2, [[1, 3]])
    with pytest.raises(ValueError, match="letter 0 outside alphabet of rank 2"):
        eliminate_generators(2, [[0]])
