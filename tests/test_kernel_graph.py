"""The kernel certificate on graphs against the word-level oracle.

``theta_graph`` reads the coset graph of ker theta off theta, and
``claimed_kernel_graph`` folds the normal relators as loops at the ends of
the transversal paths.  Both must equal the folds of the spelled-out
Schreier generators and conjugates, the claimed graph must equal the one the
dict-keyed union-find of the oracle folds, and ``verify_ker_theta`` must
give the oracle's report, also on certificates that are wrong on purpose.
``theta_graph`` must equal the breadth-first form it replaced, and the
claimed graph must scan every claimed generator exactly once.
"""

from collections import Counter

import pytest

import oracle_pi1free
from conftest import Budget
from crosscap import finitegrp, ledger, pi1free
from crosscap.finitegrp import ScaleGuardError
from crosscap.ledger import run_check
from crosscap.pi1free import (
    claimed_kernel_graph,
    theta_graph,
    verify_ker_theta,
    x_run,
)

KERNEL_CERT_POINTS = [(4, 2, 4), (5, 1, 3), (5, 2, 3)]
CRITERION_8_POINTS = [(4, 1, 2), (4, 1, 3), (4, 2, 2), (5, 1, 2)]


@pytest.mark.parametrize("g,n,d", KERNEL_CERT_POINTS + CRITERION_8_POINTS + [(4, 3, 4), (4, 1, 8)])
def test_graphs_and_report_match_the_word_level_oracle(g, n, d):
    report, claimed, schreier = oracle_pi1free.certify_in_words(g, n, d)
    assert theta_graph(g, n, d).to_json() == schreier.to_json()
    assert claimed_kernel_graph(g, n, d).to_json() == claimed.to_json()
    assert verify_ker_theta(g, n, d) == report
    assert report["ok"] and oracle_pi1free.loops_at_every_vertex(g, n, d)


@pytest.mark.parametrize(
    "g,n,d", KERNEL_CERT_POINTS + CRITERION_8_POINTS + [(4, 3, 4), (4, 1, 8), (5, 1, 8)]
)
def test_claimed_graph_matches_the_dict_folder(g, n, d):
    expected = oracle_pi1free.claimed_kernel_graph(g, n, d).to_json()
    assert claimed_kernel_graph(g, n, d).to_json() == expected


THETA_GRID = [(g, n, d) for g in range(1, 7) for n in (1, 2, 3) for d in range(2, 8)]


@pytest.mark.parametrize("g,n,d", THETA_GRID)
def test_theta_graph_by_digits_matches_the_breadth_first_oracle(g, n, d):
    # g = 1 is one vertex, and at d = 2 a digit's +1 and -1 moves coincide
    pi1free.kernel_guard(g, n, d)
    assert theta_graph(g, n, d).to_json() == oracle_pi1free.theta_graph(g, n, d).to_json()


@pytest.mark.parametrize("g,n,d", KERNEL_CERT_POINTS + [(4, 1, 8), (3, 2, 6)])
def test_the_claimed_graph_scans_each_word_and_relator_once_where_the_word_ends(monkeypatch, g, n, d):
    scans = []
    original = finitegrp._CosetRows.scan_and_fill

    def recorded(table, alpha, rel):
        scans.append((table, alpha, tuple(rel)))
        original(table, alpha, rel)

    monkeypatch.setattr(finitegrp._CosetRows, "scan_and_fill", recorded)
    assert claimed_kernel_graph(g, n, d).index() == d ** (g - 1)
    relators = [tuple(cols) for cols in pi1free._relator_loops(g, n, d)]
    assert len(scans) == d ** (g - 1) * len(relators)
    (table,) = {table for table, _, _ in scans}
    # each transversal word w leads from the base to a distinct vertex of the
    # final table, and every relator is scanned there once
    ends = []
    for cols in pi1free._plus_columns(pi1free.gtilde(g, d), g, n):
        v = 0
        for col in cols:
            v = table.rows[v][col]
        ends.append(v)
    assert len(set(ends)) == d ** (g - 1)
    expected = Counter((v, rel) for v in ends for rel in relators)
    assert Counter((table.rep(alpha), rel) for _, alpha, rel in scans) == expected


def test_kernel_rank_is_the_schreier_formula():
    for g, n, d in KERNEL_CERT_POINTS:
        index, rank = d ** (g - 1), len(pi1free.plus_basis_alphabet(g, n))
        assert verify_ker_theta(g, n, d)["kernel_rank"] == index * (rank - 1) + 1


def patch_relators(monkeypatch, change):
    """Make both certificates use ``change(true relators)``."""
    real = pi1free.ker_theta_normal_relators
    fake = lambda g, n, d: change(g, real(g, n, d))  # noqa: E731
    monkeypatch.setattr(pi1free, "ker_theta_normal_relators", fake)
    monkeypatch.setattr(oracle_pi1free, "ker_theta_normal_relators", fake)


def test_dropping_the_power_family_fails_the_certificate(monkeypatch):
    g, n, d = 4, 1, 3
    # without the (x_i x_g)^d family the relators present an infinite group,
    # on which coset enumeration would only stop at its cap: keep the
    # cross-check on the true relators
    cosets = pi1free.coset_count_ker_theta(g, n, d)
    monkeypatch.setattr(pi1free, "_enumerate_kernel", lambda *relators: cosets)
    monkeypatch.setattr(oracle_pi1free, "coset_count_ker_theta", lambda *point: cosets)
    patch_relators(monkeypatch, lambda g, rels: rels[: -(g - 1)])
    report = verify_ker_theta(g, n, d)
    assert report["claimed_index"] is None
    assert report["subgroups_equal"] is False
    assert report["ok"] is False
    assert report["claimed_all_in_kernel"] and report["schreier_index"] == d ** (g - 1)
    assert report == oracle_pi1free.certify_in_words(g, n, d)[0]


def test_a_relator_outside_the_kernel_fails_the_certificate(monkeypatch):
    g, n, d = 4, 1, 3
    patch_relators(monkeypatch, lambda g, rels: rels + [x_run(1, g)])
    report = verify_ker_theta(g, n, d)
    assert report["claimed_all_in_kernel"] is False
    assert oracle_pi1free.loops_at_every_vertex(g, n, d) is False
    assert report["subgroups_equal"] is False and report["ok"] is False
    assert report == oracle_pi1free.certify_in_words(g, n, d)[0]


def test_largest_point_under_the_guard():
    with Budget("kernel certification g=5 n=1 d=8", 5.0):
        report = verify_ker_theta(5, 1, 8)
    assert report["ok"], report
    assert report["claimed_index"] == report["schreier_index"] == report["coset_count"] == 4096
    assert report["claimed_count"] == 61_440


def test_the_certificate_reaches_index_15625():
    with Budget("kernel certification g=7 n=1 d=5", 15.0):
        report = verify_ker_theta(7, 1, 5)
    assert report["ok"], report
    assert report["claimed_index"] == report["schreier_index"] == report["coset_count"] == 15625
    record = run_check("PROP34-TC", {"g": 7, "n": 1, "d": 5})
    assert record.status == "pass"
    assert record.details == {"cosets": 15625, "stallings_index": 15625, "expected": 15625}


@pytest.mark.parametrize("g", range(1, 7))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("d", (2, 3, 5))
def test_the_work_estimate_counts_the_relator_letters(g, n, d):
    loops = pi1free._plus_columns(pi1free.ker_theta_normal_relators(g, n, d), g, n)
    assert pi1free._relator_letters(g, n, d) == sum(map(len, loops))


@pytest.mark.parametrize(
    "g,n,d,work",
    # (2,1,1447) and (8,1,4) are the last points in, at the budget 2^22 = 4194304
    [(5, 1, 8, 421_888), (7, 1, 5, 2_312_500), (8, 1, 4, 2_883_584), (2, 1, 1447, 4_191_959)],
)
def test_points_inside_the_work_budget(g, n, d, work):
    assert d ** (g - 1) * pi1free._relator_letters(g, n, d) == work
    pi1free.kernel_guard(g, n, d)


@pytest.mark.parametrize(
    "g,n,d,index,letters",
    [
        (2, 1, 1448, 1448, 2899),
        (4, 1, 32, 32768, 214),
        (5, 1, 16, 65536, 167),
        (6, 1, 8, 32768, 141),
        (7, 1, 7, 117649, 172),
        (8, 1, 8, 2097152, 232),
    ],
)
def test_points_past_the_work_budget_end_inconclusive_before_any_enumeration(
    monkeypatch, g, n, d, index, letters
):
    def refuse(*args):
        raise AssertionError("a coset table was started or a transversal word built")

    monkeypatch.setattr(finitegrp._CosetRows, "__init__", refuse)
    monkeypatch.setattr(ledger, "gtilde", refuse)
    reason = (
        f"kernel work d^(g-1) x relator letters = {index} x {letters} = {index * letters},"
        " over KERNEL_WORK_BUDGET = 4194304"
    )
    for check_id in ("PROP34-TC", "PROP52-STALLINGS", "THETA-BASIS"):
        record = run_check(check_id, {"g": g, "n": n, "d": d})
        assert record.status == "inconclusive"
        assert record.details == {"reason": reason}


@pytest.mark.parametrize("g,n,d", [(100_000, 1, 3), (10**7, 1, 3), (2, 1, 10**40), (1, 10**40, 2)])
def test_huge_points_end_inconclusive_without_forming_the_index(g, n, d):
    # 3^(10^7 - 1) would take seconds to form, and 3^99999 has too many
    # digits for Python to print
    with Budget(f"kernel guard g={g} n={n} d={d}", 1.0):
        for check_id in ("PROP34-TC", "PROP52-STALLINGS"):
            record = run_check(check_id, {"g": g, "n": n, "d": d})
            assert record.status == "inconclusive"
            assert record.details == {
                "reason": "kernel work d^(g-1) x relator letters > 2^64, over KERNEL_WORK_BUDGET = 4194304"
            }


@pytest.mark.parametrize("build", [theta_graph, claimed_kernel_graph, verify_ker_theta])
def test_modulus_is_checked_after_the_boundary_count_and_before_the_scale_guard(build):
    for d in (-100, -2, 0, 1):
        with pytest.raises(ValueError, match=rf"^modulus d must be >= 2, got {d}$") as info:
            build(5, 1, d)
        assert not isinstance(info.value, ScaleGuardError)
    with pytest.raises(ValueError, match="^needs n >= 1$"):
        build(5, 0, 1)
    with pytest.raises(ScaleGuardError):
        build(5, 1, 16)
