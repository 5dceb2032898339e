import pytest

import oracle_finitegrp
from crosscap.finitegrp import (
    ScaleGuardError,
    SectionError,
    bfs_closure,
    normal_closure,
    schreier_generators,
    todd_coxeter,
)
from crosscap.intmat import ModMatrix, elementary
from crosscap.pi1free import FreeWord, x_, y_


def diag(d, *entries):
    n = len(entries)
    return ModMatrix.from_rows(d, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def e(n, i, j):
    return elementary(n, i, j, 1).reduce_mod(2)


def test_bfs_trivial_group():
    assert bfs_closure([ModMatrix.identity(2, 2)]).order == 1


def test_bfs_klein_four():
    # e_12 and e_13 commute and square to I over F_2
    grp = bfs_closure([e(3, 1, 2), e(3, 1, 3)])
    assert grp.order == 4
    elements = oracle_finitegrp.elements(grp)
    assert all((m * m).is_identity() for m in elements)
    assert e(3, 1, 2) * e(3, 1, 3) in elements


def test_bfs_closure_is_closed(rng):
    # GL(3, 2), of order 168
    grp = bfs_closure([e(3, 1, 2), e(3, 2, 3), e(3, 3, 1)])
    assert grp.order == 168
    elements = oracle_finitegrp.elements(grp)
    for _ in range(100):
        a, b = rng.choice(elements), rng.choice(elements)
        assert a * b in elements
        assert a.inverse() in elements


def test_bfs_cap():
    with pytest.raises(ScaleGuardError):
        bfs_closure([e(3, 1, 2), e(3, 2, 3), e(3, 3, 1)], cap=100)


def test_normal_closure_trivial_and_central():
    # e_13 is central in the unitriangular group that e_12 and e_23 generate
    amb = [e(3, 1, 2), e(3, 2, 3)]
    assert normal_closure(amb, [ModMatrix.identity(3, 2)]).order == 1
    assert normal_closure(amb, [e(3, 1, 3)]).order == 2


def test_normal_closure_contains_conjugates(rng):
    amb = [e(3, i, j) for i, j in ((1, 2), (2, 3), (3, 1))]
    seed = e(3, 1, 3)
    grp = normal_closure(amb, [seed])
    elements = oracle_finitegrp.elements(grp)
    for a in amb:
        assert a * seed * a.inverse() in elements
        assert a.inverse() * seed * a in elements


def test_lagrange_consistency(rng):
    amb = [e(3, 1, 2), e(3, 2, 1), e(3, 2, 3)]
    sub = normal_closure(amb, [e(3, 1, 3)])
    full = bfs_closure(amb + [e(3, 1, 3)])
    assert full.order % sub.order == 0
    assert sub.order < full.order


def test_schreier_trivial_quotient_returns_generators():
    gens = [x_(1), y_(1)]
    outputs = list(
        schreier_generators(lambda w: 0, lambda key: FreeWord.identity(), gens, FreeWord.identity())
    )
    expected = {x_(1), x_(1).inverse(), y_(1), y_(1).inverse()}
    assert set(outputs) == expected


def test_schreier_parity_quotient():
    # index-2 parity quotient of F(x1, y1) with transversal {1, x1}
    table = {0: FreeWord.identity(), 1: x_(1)}

    def quotient(w):
        return sum(e for (k, _), e in w.letters if k == "x") % 2

    outputs = list(schreier_generators(quotient, lambda key: table[key], [x_(1), y_(1)], FreeWord.identity()))
    assert x_(1) * x_(1) in outputs
    assert x_(1) * y_(1) * x_(1).inverse() in outputs
    assert y_(1) in outputs
    for w in outputs:
        assert quotient(w) == 0


def test_schreier_section_error():
    with pytest.raises(SectionError):
        list(
            schreier_generators(
                lambda w: sum(e for (k, _), e in w.letters if k == "x") % 2,
                lambda key: x_(1),  # not a section of the quotient
                [x_(1)],
                FreeWord.identity(),
            )
        )


def test_todd_coxeter_cyclic():
    assert todd_coxeter(1, [[1] * 5]).coset_count == 5


def test_todd_coxeter_klein_four():
    assert todd_coxeter(2, [[1, 1], [2, 2], [1, 2, 1, 2]]).coset_count == 4


def test_todd_coxeter_symmetric_groups():
    assert todd_coxeter(2, [[1, 1, 1], [2, 2], [1, 2, 1, 2]]).coset_count == 6
    rels = [[1, 1], [2, 2], [3, 3], [1, 2] * 3, [2, 3] * 3, [1, 3] * 2]
    assert todd_coxeter(3, rels).coset_count == 24


def test_todd_coxeter_cap_is_inconclusive():
    with pytest.raises(ScaleGuardError):
        todd_coxeter(2, [[1, 1]], cap=64)


def test_todd_coxeter_matches_matrix_order():
    # cross-oracle: the Klein four group over F_2 and as mod-3 diagonal
    # matrices, closed by the oracle
    table = todd_coxeter(2, [[1, 1], [2, 2], [1, 2, 1, 2]])
    assert bfs_closure([e(3, 1, 2), e(3, 1, 3)]).order == table.coset_count
    grp = oracle_finitegrp.bfs_closure([diag(3, -1, 1), diag(3, 1, -1)])
    assert grp.order == table.coset_count
    # and (Z/3)^2 both ways
    grp2 = oracle_finitegrp.bfs_closure([diag(9, 4, 1), diag(9, 1, 4)])
    rels = [[1] * 3, [2] * 3, [1, 2, -1, -2]]
    assert todd_coxeter(2, rels).coset_count == grp2.order == 9


def test_coset_table_is_complete():
    table = todd_coxeter(2, [[1, 1], [2, 2], [1, 2, 1, 2]])
    assert len(table.table) == table.coset_count
    for row in table.table:
        assert all(0 <= entry < table.coset_count for entry in row)


def test_relator_validation():
    with pytest.raises(ValueError):
        todd_coxeter(2, [[0]])
    with pytest.raises(ValueError):
        todd_coxeter(2, [[3]])
    with pytest.raises(ValueError):
        todd_coxeter(0, [])
