"""Acceptance criteria, one test per criterion, each with its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

import random

import pytest

import oracle_families
import oracle_finitegrp
from conftest import Budget, random_word
from oracle_ledger import gamma_generators
from crosscap import families
from crosscap.finitegrp import bfs_closure, layer_closure, schreier_generators, todd_coxeter
from crosscap.homology import (
    H1Class,
    act,
    collapse_total_class,
    level_member,
    lift_obstruction,
    mod2_action,
    mod2_pairing,
    product_matrix,
    reduced_action,
    word_matrix,
)
from crosscap.intmat import elementary
from crosscap.ledger import brute_force_mod2_orthogonal, run_check
from crosscap.pi1free import (
    FreeWord,
    StallingsGraph,
    push_coefficients_int,
    verify_ker_theta,
    x_,
    y_,
)
from crosscap.words import Slide, Twist, commutator, word


def test_criterion_1_example_matrices():
    with Budget("criterion 1 (genus-3 action matrices)", 1.0):
        slides = {
            (1, 2): ((-1, 2), (0, 1)),
            (2, 1): ((1, 0), (2, -1)),
            (1, 3): ((-1, 0), (0, 1)),
            (3, 1): ((-1, 0), (-2, 1)),
            (2, 3): ((1, 0), (0, -1)),
            (3, 2): ((1, -2), (0, -1)),
        }
        for (a, b), expect in slides.items():
            assert reduced_action(word(3, Slide(a, b))).rows == expect
        for d in range(1, 7):
            twists = {
                (1, 2): ((1 - d, d), (-d, 1 + d)),
                (1, 3): ((1, 0), (d, 1)),
                (2, 3): ((1, d), (0, 1)),
            }
            for (i, j), expect in twists.items():
                assert reduced_action(word(3, (Twist((i, j)), d))).rows == expect


def test_criterion_2_elementary_identities():
    with Budget("criterion 2 (commutator and conjugated-twist identities)", 5.0):
        for g in (4, 5):
            n = g - 1
            for d in (4, 6):
                half = d // 2
                for i in range(1, g):
                    for j in range(i + 1, g):
                        lhs = reduced_action(
                            commutator(word(g, Twist((j, g))), word(g, Slide(i, j))) ** half
                        )
                        assert lhs.rows == elementary(n, i, j, d).rows
                        lhs = reduced_action(
                            commutator(word(g, Twist((i, g))), word(g, Slide(j, i))) ** half
                        )
                        assert lhs.rows == elementary(n, j, i, d).rows
                for k in range(2, g):
                    lhs = reduced_action(word(g, (Twist((1, k)), d)))
                    rhs = (
                        elementary(n, k, 1)
                        * elementary(n, 1, k, d)
                        * elementary(n, k, 1, -1)
                    )
                    assert lhs.rows == rhs.rows


def test_criterion_3_mod2_obstruction():
    with Budget("criterion 3 (mod-2 lifting obstruction)", 5.0):
        for g in (4, 5):
            for d in (3, 5):
                result = lift_obstruction(elementary(g - 1, 1, 2, d), g)
                assert result.obstructed
                assert result.candidates_checked == 2**g
            for d in (2, 4):
                target = elementary(g - 1, 1, 2, d)
                result = lift_obstruction(target, g)
                assert not result.obstructed
                assert collapse_total_class(result.witness).rows == target.rows


def test_criterion_4_identity_suites():
    with Budget("criterion 4 (homology identity suites)", 30.0):
        for g in (4, 5, 6):
            for i in range(1, g + 1):
                for j in range(i + 1, g + 1):
                    lhs = word_matrix(word(g, (Twist((i, j)), 2)))
                    rhs = word_matrix(word(g, (Slide(j, i), -1), (Slide(i, j), 1)))
                    assert lhs.rows == rhs.rows
            for family in ("A", "B", "C"):
                for idx in families.family_indices(family, g):
                    m = word_matrix(families.named_element(family, idx, g).word)
                    for alt in oracle_families.alternates(family, idx, g):
                        assert word_matrix(alt).rows == m.rows
            for idx in families.family_indices("D", g):
                assert word_matrix(families.named_element("D", idx, g).word).is_identity()
            # the inverse of the chain power times each of its two other forms
            for name, genus, factors in families.three_chain_relations(g):
                if genus == g:
                    assert product_matrix(g, factors).is_identity(), name
            ys = families.family_indices("Y", g)
            relations = [r for r in families.slide_commutator_relations(g) if r[1] == g]
            assert [name for name, _, _ in relations] == [
                (g, x1, x2) for pos, x1 in enumerate(ys) for x2 in ys[pos + 1 :]
            ]
            # a relation is the commutator's inverse as four factors, then its row
            for (_, x1, x2), _, factors in relations:
                y1, y2 = word(g, Slide(*x1)), word(g, Slide(*x2))
                assert factors[:4] == ((y2, 1), (y1, 1), (y2, -1), (y1, -1))
                lhs = word_matrix(commutator(y1, y2))
                assert lhs.rows == product_matrix(g, factors[4:]).rows


def test_criterion_5_finite_quotient_orders():
    with Budget("criterion 5 (finite quotient orders)", 10.0):
        g = 4
        gens = [reduced_action(el.word) for el in families.family_elements("Y", g)]
        gens += [reduced_action(el.word) for el in families.family_elements("D", g)]
        # enumerated over Z/4 and Z/8 by the oracle, and as level layers
        grp = oracle_finitegrp.bfs_closure([m.reduce_mod(4) for m in gens])
        assert grp.order == 512 == 2 ** families.y_count(g)
        assert oracle_finitegrp.has_exponent(grp, 2)
        assert oracle_finitegrp.layer_keys(layer_closure(gens, 2)) == grp.keys
        tower_gens = gamma_generators(3, 4)
        tower = oracle_finitegrp.bfs_closure([m.reduce_mod(8) for m in tower_gens])
        assert tower.order == 256 == 2 ** ((g - 1) ** 2 - 1)
        assert oracle_finitegrp.layer_keys(layer_closure(tower_gens, 4)) == tower.keys


def test_criterion_6_level4_generating_stream():
    with Budget("criterion 6 (level-4 generating stream)", 120.0):
        total = 0
        for w in families.main3_generators(4):
            assert level_member(w, 4)
            total += 1
        assert total == 512 * 25

        rng = random.Random(0)
        fams5 = families.main3_families(5)
        count5 = families.main3_count(5)
        for idx in rng.sample(range(count5), 1000):
            assert level_member(oracle_families.main3_word(5, idx, fams5), 4)

        record = run_check("THM41-MOD8", {"g": 4})
        assert record.status == "pass"
        assert record.details["closure_order"] == record.details["reference_order"] == 256


def test_criterion_7_mod2_orthogonal_group():
    with Budget("criterion 7 (mod-2 orthogonal group)", 60.0):
        g = 4
        brute = brute_force_mod2_orthogonal(g)
        gens = [word_matrix(word(g, Twist((i, i + 1)))) for i in range(1, g)]
        gens.append(word_matrix(word(g, Twist((1, 2, 3, 4)))))
        grp = bfs_closure(gens)
        assert grp.keys == brute
        assert grp.order == 48


@pytest.mark.parametrize("g,n,d", [(4, 1, 2), (4, 1, 3), (4, 2, 2), (5, 1, 2)])
def test_criterion_8_kernel_certification(g, n, d):
    with Budget(f"criterion 8 (kernel certification g={g} n={n} d={d})", 60.0):
        report = verify_ker_theta(g, n, d)
        assert report["ok"], report
        expected = d ** (g - 1)
        assert report["claimed_index"] == report["schreier_index"] == expected
        assert report["coset_count"] == expected
        assert report["subgroups_equal"]
        assert report["claimed_all_in_kernel"]


def test_criterion_9_normal_generator_membership_and_closures():
    with Budget("criterion 9 (normal generators: membership and closures)", 60.0):
        for g in (4, 5):
            for d in (2, 3, 4):
                for rec in families.main2_normal_generators(g, 0, d):
                    assert level_member(rec.word, d), (g, d, rec.name)
                record = run_check("THM31-CLOSURE", {"g": g, "d": d})
                assert record.status == "pass", (g, d, record.details)
                assert record.details["closure_order"] == record.details["reference_order"]


def test_criterion_10_property_suites():
    with Budget("criterion 10 (randomized property suites)", 60.0):
        rng = random.Random(0)
        cases = 0

        for _ in range(2500):
            g = rng.randint(3, 6)
            u = random_word(rng, g, rng.randint(0, 5))
            v = random_word(rng, g, rng.randint(0, 5))
            assert reduced_action(u * v).rows == (reduced_action(u) * reduced_action(v)).rows
            cases += 1

        for _ in range(2500):
            g = rng.randint(3, 6)
            m = mod2_action(random_word(rng, g, rng.randint(0, 6)))
            assert (m.transpose() * m).is_identity()
            cases += 1

        for _ in range(2500):
            g = rng.randint(3, 6)
            w = random_word(rng, g, rng.randint(0, 5))
            x = H1Class(g, [rng.randint(-3, 3) for _ in range(g)])
            y = H1Class(g, [rng.randint(-3, 3) for _ in range(g)])
            assert mod2_pairing(act(w, x), act(w, y)) == mod2_pairing(x, y)
            cases += 1

        for _ in range(2000):
            g = rng.randint(2, 6)
            u = _random_two_sided(rng, g)
            v = _random_two_sided(rng, g)
            tu = push_coefficients_int(u, g)
            tv = push_coefficients_int(v, g)
            assert push_coefficients_int(u * v, g) == tuple(a + b for a, b in zip(tu, tv))
            cases += 1

        # folded-graph membership vs brute-forced products of generators
        letters = [x_(1), x_(2), x_(3)]
        alphabet = [("x", 1), ("x", 2), ("x", 3)]
        for _ in range(40):
            gens = []
            for _ in range(rng.randint(1, 3)):
                w = FreeWord.identity()
                for _ in range(rng.randint(1, 4)):
                    w = w * rng.choice(letters) ** rng.choice((-1, 1))
                if not w.is_identity():
                    gens.append(w)
            if not gens:
                continue
            graph = StallingsGraph.fold(gens, alphabet)
            closed = gens + [w.inverse() for w in gens]
            for _ in range(50):
                product = FreeWord.identity()
                for _ in range(rng.randint(1, 4)):
                    product = product * rng.choice(closed)
                assert graph.contains(product)
                cases += 1

        # coset enumeration vs subgroup-graph index on abelianized quotients
        for k, m in ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4)):
            def quotient(w):
                a = sum(e for (kind, i), e in w.letters if kind == "x" and i == 1)
                b = sum(e for (kind, i), e in w.letters if kind == "x" and i == 2)
                return (a % k, b % m)

            table = {
                (a, b): x_(1) ** a * x_(2) ** b for a in range(k) for b in range(m)
            }
            gens = list(
                schreier_generators(
                    quotient, lambda key: table[key], [x_(1), x_(2)], FreeWord.identity()
                )
            )
            graph = StallingsGraph.fold(gens, [("x", 1), ("x", 2)])
            rels = [[1] * k, [2] * m, [1, 2, -1, -2]]
            assert graph.index() == todd_coxeter(2, rels).coset_count == k * m
            cases += 1

        assert cases >= 10_000, cases
        print(f"  property cases run: {cases}")


def _random_two_sided(rng, g):
    w = FreeWord.identity()
    for _ in range(rng.randint(0, 6)):
        w = w * x_(rng.randrange(1, g + 1), rng.choice((-1, 1)))
    total = sum(e for (kind, _), e in w.letters if kind == "x")
    if total % 2:
        w = w * x_(g)
    return w
