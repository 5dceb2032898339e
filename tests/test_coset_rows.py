"""The one partial coset table, ``finitegrp._CosetRows``, behind coset
enumeration, Stallings folding and the claimed kernel graph.

``todd_coxeter`` must give the tables of the closure-held enumeration it
replaced, and scans read table entries without resolving them through the
union-find.  That is sound only while, after every completed coincidence,
live rows point only at live rows and every entry has its inverse entry; a
hook on ``coincidence`` asserts this on enumeration and folding inputs.
``coincidence`` reads only the filled entries of a merged row; with the
all-columns form of ``oracle_finitegrp`` patched in, every table must come
out the same.
"""

import random

import pytest

import oracle_finitegrp
from conftest import Budget
from crosscap import finitegrp
from crosscap.finitegrp import ScaleGuardError, todd_coxeter
from crosscap.pi1free import (
    StallingsGraph,
    claimed_kernel_graph,
    coset_count_ker_theta,
    relators_for_enumeration,
)
from test_fold import random_word

KERNEL_POINTS = [(4, 2, 4), (5, 1, 3), (5, 2, 3), (4, 1, 2), (4, 1, 3), (4, 2, 2), (5, 1, 2)]

PRESENTATIONS = {
    "cyclic 5": (1, [[1] * 5]),
    "Klein four": (2, [[1, 1], [2, 2], [1, 2, 1, 2]]),
    "S3": (2, [[1, 1, 1], [2, 2], [1, 2, 1, 2]]),
    "dihedral 10": (2, [[1] * 5, [2, 2], [1, 2, 1, 2]]),
    "dihedral 16": (2, [[1] * 8, [2, 2], [2, 1, 2, 1]]),
    "quaternion": (2, [[1] * 4, [1, 1, -2, -2], [-2, 1, 2, 1]]),
    "S4": (3, [[1, 1], [2, 2], [3, 3], [1, 2] * 3, [2, 3] * 3, [1, 3] * 2]),
}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_todd_coxeter_matches_the_oracle_on_small_groups(name):
    rank, rels = PRESENTATIONS[name]
    assert todd_coxeter(rank, rels) == oracle_finitegrp.todd_coxeter(rank, rels)


@pytest.mark.parametrize("g,n,d", KERNEL_POINTS)
def test_todd_coxeter_matches_the_oracle_at_kernel_points(g, n, d):
    rank, rels = relators_for_enumeration(g, n, d)
    table = todd_coxeter(rank, rels)
    assert table == oracle_finitegrp.todd_coxeter(rank, rels)
    assert table.coset_count == d ** (g - 1)


@pytest.mark.parametrize("rank, rels, cap", [(2, [[1, 1]], 64), (2, [[1, 2]], 50), (1, [[1, -1]], 9)])
def test_todd_coxeter_hits_the_cap_where_the_oracle_does(rank, rels, cap):
    messages = []
    for enumerate_ in (todd_coxeter, oracle_finitegrp.todd_coxeter):
        with pytest.raises(ScaleGuardError) as info:
            enumerate_(rank, rels, cap=cap)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"coset table exceeded cap of {cap}"


@pytest.mark.parametrize("g,n,d,cosets,scans", [(4, 2, 4, 64, 768), (5, 1, 8, 4096, 61_440)])
def test_todd_coxeter_scans_each_live_coset_and_relator_once(monkeypatch, g, n, d, cosets, scans):
    rank, rels = relators_for_enumeration(g, n, d)
    scanned = []
    original = finitegrp._CosetRows.scan_and_fill

    def counted(table, alpha, rel):
        scanned.append(alpha)
        original(table, alpha, rel)

    monkeypatch.setattr(finitegrp._CosetRows, "scan_and_fill", counted)
    assert todd_coxeter(rank, rels).coset_count == cosets
    assert len(scanned) == cosets * len(rels) == scans


@pytest.mark.parametrize("rank, rels", [(2, [[1, 1]]), (3, [[1, 2, -1, -2], [1, 1, 1]]), (2, [])])
def test_todd_coxeter_ends_inconclusive_on_a_free_letter(rank, rels):
    # the last letter is in no relator, so the group is infinite
    with Budget(f"todd_coxeter({rank}, {rels})", 5.0):
        with pytest.raises(ScaleGuardError, match="exceeded cap of 100000"):
            todd_coxeter(rank, rels)


@pytest.mark.parametrize("cap", [0, -5])
def test_todd_coxeter_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
        todd_coxeter(1, [[1]], cap=cap)
    assert todd_coxeter(1, [[1]], cap=1).coset_count == 1


def assert_sound(table):
    """Live rows point only at live rows, every entry has its inverse entry,
    and the rows of dead cosets are empty."""
    rows, parent = table.rows, table.parent
    for c, row in enumerate(rows):
        if parent[c] != c:
            assert row == [None] * table.ncols, f"dead coset {c} keeps entries"
            continue
        for col, e in enumerate(row):
            if e is not None:
                assert parent[e] == e, f"live coset {c} points at dead coset {e}"
                assert rows[e][col ^ 1] == c, f"entry ({c}, {col}) has no inverse"


@pytest.fixture
def coincidences(monkeypatch):
    """Check the table after every completed coincidence; the list of the
    identifications asked for, so a test can see that the hook ran."""
    calls = []
    original = finitegrp._CosetRows.coincidence

    def checked(table, a, b):
        original(table, a, b)
        assert_sound(table)
        calls.append((a, b))

    monkeypatch.setattr(finitegrp._CosetRows, "coincidence", checked)
    return calls


@pytest.mark.parametrize("g,n,d", [(4, 1, 2), (4, 2, 2), (5, 1, 2), (4, 1, 3), (3, 2, 6)])
def test_every_coincidence_leaves_a_sound_table_in_enumeration(coincidences, g, n, d):
    rank, rels = relators_for_enumeration(g, n, d)
    assert todd_coxeter(rank, rels).coset_count == d ** (g - 1)
    assert coincidences


@pytest.mark.parametrize("g,n,d", [(4, 2, 4), (5, 1, 3), (4, 1, 8), (3, 2, 6)])
def test_every_coincidence_leaves_a_sound_table_in_the_kernel_graph(coincidences, g, n, d):
    assert claimed_kernel_graph(g, n, d).index() == d ** (g - 1)
    assert coincidences


def test_every_coincidence_leaves_a_sound_table_in_folding(coincidences):
    rng = random.Random(3)
    alphabet = [("x", 1), ("x", 2), ("x", 3)]
    for _ in range(200):
        words = [random_word(rng, alphabet) for _ in range(rng.randint(1, 5))]
        StallingsGraph.fold(words, alphabet)
    assert coincidences


def with_oracle_coincidence(monkeypatch, build):
    """``build()`` on the engine's coincidence and then on the oracle's."""
    ours = build()
    with monkeypatch.context() as patch:
        patch.setattr(finitegrp._CosetRows, "coincidence", oracle_finitegrp.coincidence)
        return ours, build()


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_coincidence_matches_the_all_columns_oracle_on_small_groups(monkeypatch, name):
    rank, rels = PRESENTATIONS[name]
    ours, theirs = with_oracle_coincidence(monkeypatch, lambda: todd_coxeter(rank, rels))
    assert ours == theirs


@pytest.mark.parametrize("g,n,d", KERNEL_POINTS)
def test_coincidence_matches_the_all_columns_oracle_at_kernel_points(monkeypatch, g, n, d):
    rank, rels = relators_for_enumeration(g, n, d)
    ours, theirs = with_oracle_coincidence(
        monkeypatch,
        lambda: (todd_coxeter(rank, rels), coset_count_ker_theta(g, n, d), claimed_kernel_graph(g, n, d)),
    )
    assert ours == theirs


def test_coincidence_matches_the_all_columns_oracle_in_folding(monkeypatch):
    rng = random.Random(5)
    alphabet = [("x", 1), ("x", 2), ("x", 3)]
    inputs = [[random_word(rng, alphabet) for _ in range(rng.randint(1, 5))] for _ in range(200)]
    ours, theirs = with_oracle_coincidence(
        monkeypatch, lambda: [StallingsGraph.fold(words, alphabet) for words in inputs]
    )
    assert ours == theirs
