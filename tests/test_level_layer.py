"""The level layer Gamma_d / Gamma_2d (d even) as F_2 subspaces: canonical
bases, explicit preconditions, and the registry checks that run on it at
genera where listing the elements is out of reach.

The comparisons with the enumerating closure engine are in
``test_closure_engine.py``.
"""

import random
import time

import pytest

from crosscap import families, ledger
from crosscap.families import Main2Generator
from crosscap.finitegrp import (
    LayerError,
    identity_offsets,
    layer_closure,
    layer_normal_closure,
    vector_coordinates,
)
from crosscap.intmat import ModMatrix, elementary
from crosscap.words import Twist, word


def refuse_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure was enumerated")

    monkeypatch.setattr(ledger, "bfs_closure", refuse)
    monkeypatch.setattr(ledger, "normal_closure", refuse)


@pytest.mark.parametrize("g", [6, 7, 8])
@pytest.mark.parametrize("d", [2, 4, 1 << 15])
def test_thm31_closure_passes_at_the_frontier(monkeypatch, g, d):
    refuse_enumeration(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    order = 1 << ((g - 1) ** 2 - 1)
    assert record.status == "pass"
    assert record.details["closure_order"] == record.details["reference_order"] == order
    assert record.details["modulus"] == 2 * d


@pytest.mark.parametrize("g", [6, 7, 8])
# layer vectors are bit-packed, never keyed: moduli 2^16 .. 2^62 need no key
@pytest.mark.parametrize("l", [3, 4, 16, 40, 62])
def test_tower_passes_at_the_frontier(monkeypatch, g, l):
    refuse_enumeration(monkeypatch)
    record = ledger.run_check("TOWER-2L", {"g": g, "l": l})
    assert record.status == "pass"
    assert record.details["order"] == record.details["expected"] == 1 << ((g - 1) ** 2 - 1)


@pytest.mark.parametrize(
    "d, check_id",
    [
        (1 << 40, "THM31-CLOSURE"),
        (1 << 40, "THM31-MEMBER"),
        # THM31-CLOSURE's ceiling: its entries are int64 residues mod 2d
        (1 << 61, "THM31-CLOSURE"),
        (1 << 62, "THM31-MEMBER"),
    ],
)
def test_thm31_at_a_huge_even_level_stops_before_the_seed_word(monkeypatch, check_id, d):
    # the even-d seed is a 4-letter commutator to the power d/2; building
    # it at these levels would need 2d letters
    def refuse(*args):
        raise AssertionError("the seed word was built")

    monkeypatch.setattr(families, "commutator", refuse)
    start = time.perf_counter()
    record = ledger.run_check(check_id, {"g": 4, "d": d})
    assert time.perf_counter() - start < 1.0
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the seed (twist(a12) twist(a12')^-1)^(d/2) would have {2 * d} letters,"
        f" over the limit of {families.SEED_LETTER_LIMIT}"
    }


def test_a_seed_outside_the_layer_fails_and_is_named(monkeypatch):
    real = families.main2_normal_generators

    def with_a_twist(g, n, d):
        # a single twist acts nontrivially mod 2, so it lies in no even level
        twist = Main2Generator("twist(a12)", word(g, Twist((1, 2))), True)
        return real(g, n, d) + [twist]

    monkeypatch.setattr(families, "main2_normal_generators", with_a_twist)
    for d in (2, 4):
        record = ledger.run_check("THM31-CLOSURE", {"g": 4, "d": d})
        assert record.status == "fail"
        assert record.details == {"reason": f"seed twist(a12) is not congruent to I mod {d}"}


def layer_element(n, d, *entries):
    """I + d(sum of the unit matrices E_rc) mod 2d, 1-based (r, c)."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for r, c in entries:
        rows[r - 1][c - 1] += d
    return ModMatrix.from_rows(2 * d, rows)


def test_generators_outside_the_layer_raise_with_their_index():
    good = layer_element(3, 2, (1, 2))
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 2") as err:
        layer_closure([good, elementary(3, 1, 2, 1).reduce_mod(4)], 2)
    assert err.value.index == 1
    with pytest.raises(LayerError, match="generator 0 has modulus 8, not 2d = 4"):
        layer_closure([layer_element(3, 4, (1, 2)), good], 2)
    half_step = ModMatrix.from_rows(8, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    ambient = [elementary(3, 2, 1, 1).reduce_mod(8)]
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 4"):
        layer_normal_closure(ambient, [layer_element(3, 4, (2, 3)), half_step], 4)
    with pytest.raises(ValueError, match="even level, got d = 3"):
        layer_closure([elementary(3, 1, 2, 3).reduce_mod(6)], 3)
    with pytest.raises(ValueError, match="need at least one generator"):
        layer_closure([], 2)


def test_equal_subgroups_have_equal_reduced_echelon_bases():
    rng = random.Random(5)
    n, d = 4, 4
    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    gens = [layer_element(n, d, *rng.sample(units, 3)) for _ in range(6)]
    layer = layer_closure(gens, d)
    for _ in range(5):
        shuffled = rng.sample(gens, len(gens))
        # products of generators add their vectors, so they change no span
        shuffled.append(gens[0] * gens[1])
        assert layer_closure(shuffled, d) == layer
    pivots = [v.bit_length() - 1 for v in layer.basis]
    assert pivots == sorted(pivots, reverse=True)
    for v, pivot in zip(layer.basis, pivots):
        assert sum(w >> pivot & 1 for w in layer.basis) == 1
    assert layer.order == 1 << len(layer.basis)


def test_normal_closure_of_one_elementary_vector_is_the_trace_zero_layer():
    # conjugating E_12 by the elementary matrices reaches every off-diagonal
    # unit and every E_ii - E_jj: the n^2 - 1 dimensional trace-zero layer
    n, d = 3, 2
    ambient = [
        elementary(n, i, j, 1).reduce_mod(2 * d)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    layer = layer_normal_closure(ambient, [layer_element(n, d, (1, 2))], d)
    assert layer.order == 1 << (n * n - 1)
    assert layer_normal_closure([], [layer_element(n, d, (1, 2))], d).order == 2
    assert layer_normal_closure(ambient, [ModMatrix.identity(n, 2 * d)], d).order == 1


def layer_coordinates(basis, gens, d):
    """The masks of ``gens`` in the layer vectors of ``basis``."""
    return vector_coordinates(identity_offsets(basis + gens, d), len(basis))


def test_coordinates_rebuild_every_element_from_the_basis():
    rng = random.Random(11)
    n, d = 3, 4
    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    # the unit vectors in a shuffled order, each mixed with the ones before
    order = rng.sample(units, len(units))
    basis = [layer_element(n, d, *order[: t + 1]) for t in range(len(order))]
    gens = [layer_element(n, d, *rng.sample(units, rng.randrange(len(units)))) for _ in range(40)]
    gens.append(ModMatrix.identity(n, 2 * d))
    coords = layer_coordinates(basis, gens, d)
    for m, mask in zip(gens, coords):
        product = ModMatrix.identity(n, 2 * d)
        for t, b in enumerate(basis):
            if mask >> t & 1:
                product = product * b
        assert product == m
    assert coords[-1] == 0


def test_coordinates_refuse_a_dependent_basis_and_name_what_lies_outside():
    n, d = 3, 2
    e12, e13 = layer_element(n, d, (1, 2)), layer_element(n, d, (1, 3))
    assert layer_coordinates([e12, e13, e12 * e13], [e12], d) is None
    with pytest.raises(LayerError, match="generator 3 is outside the span of the basis") as err:
        layer_coordinates([e12, e13], [e12 * e13, layer_element(n, d, (2, 1))], d)
    assert err.value.index == 3
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 2"):
        layer_coordinates([e12], [elementary(n, 1, 2, 1).reduce_mod(4)], d)
