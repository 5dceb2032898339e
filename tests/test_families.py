import itertools

import numpy as np
import pytest

import oracle_families
import oracle_ledger
from crosscap import families
from crosscap.families import FamilyIndexError
from crosscap.finitegrp import ScaleGuardError
from crosscap.homology import level_member, reduced_action, word_matrix
from crosscap.words import BoundaryTwist, MCGWord, Slide, Twist, commutator, word


def test_family_counts_g4():
    assert len(families.family_indices("Y", 4)) == 9
    assert len(families.family_indices("A", 4)) == 6
    assert len(families.family_indices("B", 4)) == 6
    assert len(families.family_indices("C", 4)) == 12
    assert len(families.family_indices("D", 4)) == 1
    assert len(families.zset(4, 3)) == 8


def test_family_counts_general():
    from math import comb

    for g in (4, 5, 6):
        assert len(families.family_indices("Y", g)) == (g - 1) ** 2
        assert len(families.family_indices("C", g)) == comb(g, 2) * (g - 2)
        assert len(families.family_indices("D", g)) == comb(g - 1, 3)
        assert len(families.zset(g, 3)) == (g - 1) ** 2 - 1


def test_named_a_matches_twist_power():
    el = families.named_element("A", (1, 2), 3)
    assert reduced_action(el.word).rows == ((-3, 4), (-4, 5))


def test_named_b_and_d_act_trivially():
    for g in (4, 5):
        for idx in families.family_indices("B", g):
            assert word_matrix(families.named_element("B", idx, g).word).is_identity()
    el = families.named_element("D", (1, 2, 3, 4), 4)
    assert word_matrix(el.word).is_identity()
    assert families._resolve_d_sign(4, (1, 2, 3, 4)) in (1, -1)


def test_dual_realizations_agree_on_homology():
    for g in (3, 4, 5):
        for family in ("A", "B", "C"):
            for idx in families.family_indices(family, g):
                m = word_matrix(families.named_element(family, idx, g).word)
                for alt in oracle_families.alternates(family, idx, g):
                    assert word_matrix(alt).rows == m.rows


def test_bad_indices_raise():
    with pytest.raises(families.FamilyIndexError):
        families.named_element("A", (2, 1), 4)
    with pytest.raises(families.FamilyIndexError):
        families.named_element("C", (1, 2, 2), 4)
    with pytest.raises(families.FamilyIndexError):
        families.named_element("Y", (4, 1), 4)  # first index must be < g
    with pytest.raises(families.FamilyIndexError):
        families.zset(4, 2)


@pytest.mark.parametrize("l", [24, 20000, 10**9])
def test_tower_guard_refuses_before_forming_a_power(monkeypatch, l):
    # the family words themselves use small powers; the tower power is 2^(l-3)
    real = MCGWord.__pow__

    def small_power(self, e):
        assert abs(e) < 1 << 20, "the tower power was formed"
        return real(self, e)

    monkeypatch.setattr(MCGWord, "__pow__", small_power)
    with pytest.raises(ScaleGuardError, match=rf"4 x 2\^{l - 3} letters"):
        families.zset(4, l)


def test_transversal_order_and_count():
    stream = families.transversal_2y(4)
    first = next(stream)
    assert first.is_identity()
    assert families.transversal_count(4) == 512
    second = next(stream)
    assert second.letters == ((Slide(1, 2), 1),)
    # masks enumerate ordered products with strictly increasing factors
    w = families.subset_word(4, 0b101)
    assert [s for s, _ in w.letters] == [Slide(1, 2), Slide(1, 4)]
    for mask in (0, 0b101, 0b110011001, 511):
        product = MCGWord.identity(4)
        for t in range(9):
            if mask >> t & 1:
                product = product * families.subset_word(4, 1 << t)
        assert families.subset_word(4, mask) == product


def test_transversal_2z_count():
    count = sum(1 for _ in families.transversal_2z(4, 3))
    assert count == 2 ** len(families.zset(4, 3)) == 256


def test_main2_conditional_entries():
    names_430 = [r.name for r in families.main2_normal_generators(4, 0, 3)]
    assert "twist(a12)^d" in names_430
    assert "twist(a1234)^d" in names_430
    assert not any("(d/2)" in n for n in names_430)

    recs_504 = families.main2_normal_generators(5, 0, 4)
    names_504 = [r.name for r in recs_504]
    assert "(twist(a12) twist(a12')^-1)^(d/2)" in names_504
    assert "twist(gamma)" not in names_504
    half = next(r for r in recs_504 if "(d/2)" in r.name)
    assert half.word == commutator(word(5, Twist((1, 2))), word(5, Slide(3, 2))) ** 2

    recs_422 = families.main2_normal_generators(4, 2, 2)
    names_422 = [r.name for r in recs_422]
    assert "twist(delta1)" in names_422
    assert "twist(eps4,1)" in names_422
    boundary = [r for r in recs_422 if not r.closed_surface]
    assert all(isinstance(s, BoundaryTwist) for r in boundary for s, _ in r.word.letters)


def test_main2_boundary_range_flag():
    tight = families.main2_normal_generators(4, 2, 2)
    tight_names = {r.name for r in tight}
    assert "twist(delta2)" not in tight_names


def test_main3_count_and_random_access():
    assert families.main3_count(4) == 512 * 25
    stream = families.main3_generators(4)
    first = next(stream)
    assert first == families.named_element("A", (1, 2), 4).word
    fams = families.main3_families(4)
    for idx in (0, 1, 24, 25, 1000, 12799):
        w = oracle_families.main3_word(4, idx, fams)
        assert isinstance(w, MCGWord) and w == families.main3_generator(4, idx)
    with pytest.raises(IndexError):
        families.main3_generator(4, 12800)


def test_main3_position_splits_the_stream_transversal_major():
    indices = [0, 1, 24, 25, 1000, 12799]
    masks, which = oracle_ledger.main3_positions(4, np.array(indices), 25)
    assert [families.main3_position(4, i, 25) for i in indices] == list(zip(masks, which))
    assert list(zip(masks, which)) == [(0, 0), (0, 1), (0, 24), (1, 0), (40, 0), (511, 24)]
    stream = list(itertools.islice(families.main3_generators(4), 1001))
    for idx in indices[:-1]:
        assert families.main3_generator(4, idx) == stream[idx]
    for bad in (-1, 12800):
        with pytest.raises(IndexError, match="out of range 0..12799"):
            families.main3_position(4, bad, 25)
    with pytest.raises(IndexError, match="index -2 out of range 0..12799"):
        oracle_ledger.main3_positions(4, np.array([5, -2]), 25)


def test_main3_stream_refuses_genus_below_four():
    for call in (
        lambda: families.main3_count(3),
        lambda: families.main3_generator(3, 0),
        lambda: next(families.main3_generators(3)),
    ):
        with pytest.raises(FamilyIndexError, match="needs genus >= 4"):
            call()


def test_main3_sample_is_level4():
    fams = families.main3_families(4)
    for idx in range(0, 12800, 640):
        assert level_member(oracle_families.main3_word(4, idx, fams), 4)


def test_gen_n_counts():
    sets = families.GenNSets(4, 1, 2)
    assert sets.g_count() == 8
    assert len(list(sets.g_set(1))) == 8
    f1 = sets.f_set(1)
    assert len(f1) == sets.f_count(1)
    assert not any(
        isinstance(s, BoundaryTwist) and s.kind in ("zeta", "zetabar")
        for w in f1
        for s, _ in w.letters
    )
    assert families.GenNSets(4, 0, 2).h_count() == 0
    assert sets.h_count() == sets.f_count(1) * 8
    stream = sets.h_stream()
    w = next(stream)
    assert isinstance(w, MCGWord)


def test_gen_n_f2_has_between_boundary_curves():
    sets = families.GenNSets(4, 2, 3)
    f2 = sets.f_set(2)
    kinds = {s.kind for w in f2 for s, _ in w.letters if isinstance(s, BoundaryTwist)}
    assert {"zeta", "zetabar", "delta", "epsilon", "eta", "acurve"} <= kinds
    assert sets.g_count() == 27


def test_three_chain_relations_name_each_tuple_twice():
    names = [name for name, _, _ in families.three_chain_relations(6)]
    tuples = [
        (g, j, k, l) for g in (4, 5, 6) for j in range(2, g + 1)
        for k in range(j + 1, g + 1) for l in range(k + 1, g + 1)
    ]
    assert names == [t + (form,) for t in tuples for form in ("paired", "slides")]
    assert list(families.three_chain_relations(3)) == []


def test_commutator_rhs_trivial_cases_commute():
    # non-crossing pairs of slides with four distinct indices act commutatively
    g = 6
    relations = {name: factors for name, _, factors in families.slide_commutator_relations(g)}
    for x1, x2 in (((1, 2), (3, 4)), ((1, 4), (2, 3)), ((2, 3), (4, 5))):
        # an empty row leaves the commutator's four factors alone
        assert len(relations[g, x1, x2]) == 4
        lhs = commutator(word(g, Slide(*x1)), word(g, Slide(*x2)))
        assert word_matrix(lhs).is_identity()
