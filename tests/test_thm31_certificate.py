"""THM31-CLOSURE's certificates: the seeds' normal closure under g + 1
conjugating letters, certified equal to the closure under the whole
alphabet by the trace bound on the layer at even d and by the orthogonal
bound mod 2 at odd d, and the refusal of an odd-d bound the closure engine
could never hold.

``oracle_ledger.thm31_whole_alphabet_closure`` is the closure under the
whole alphabet that the certified one must equal, and
``oracle_ledger.product_gamma_generators`` the reference generators as
matrix products, which the rows written in closed form must equal."""

import time

import pytest

import oracle_finitegrp
import oracle_ledger
from crosscap import families, ledger
from crosscap.families import Main2Generator
from crosscap.finitegrp import CLOSURE_CAP, layer_normal_closure, normal_closure
from crosscap.homology import reduced_action
from crosscap.intmat import elementary
from crosscap.words import Slide, Twist, word


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("d", [1, 2, 3, 4, 1 << 40])
def test_reference_generators_equal_their_matrix_products(n, d):
    assert oracle_ledger.gamma_generators(n, d) == oracle_ledger.product_gamma_generators(n, d)
    conjugated = oracle_ledger.product_conjugated_gamma_generators(n, d)
    assert ledger.conjugated_gamma_generators(n, d) == conjugated


def spy_normal_closures(monkeypatch):
    """The (ambient, seeds, result) of every ``layer_normal_closure`` and
    ``normal_closure`` the registry makes, in order."""
    calls = []

    def layer_spy(ambient, seeds, d):
        layer = layer_normal_closure(ambient, seeds, d)
        calls.append((ambient, seeds, layer))
        return layer

    def spy(ambient, seeds):
        group = normal_closure(ambient, seeds)
        calls.append((ambient, seeds, group))
        return group

    monkeypatch.setattr(ledger, "layer_normal_closure", layer_spy)
    monkeypatch.setattr(ledger, "normal_closure", spy)
    return calls


@pytest.mark.parametrize("g", range(4, 11))
@pytest.mark.parametrize("d", [2, 4, 6])
def test_the_certified_closure_is_the_whole_alphabet_closure(monkeypatch, g, d):
    calls = spy_normal_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    ((_, _, layer),) = calls
    assert layer == oracle_ledger.thm31_whole_alphabet_closure(g, d)
    details = dict(record.details)
    n = g - 1
    assert details.pop("bound") == {"kind": "trace", "dim": n * n - 1}
    assert details.pop("ambient") == [str(w) for w in ledger.conjugating_letters(g)]
    assert (record.status == "pass", details) == oracle_ledger.thm31_closure_even(g, d)


@pytest.mark.parametrize("g, d", [(4, 3), (5, 3), (6, 3), (4, 5), (5, 5), (4, 7)])
def test_the_certified_odd_level_closure_is_the_whole_alphabet_closure(monkeypatch, g, d):
    calls = spy_normal_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    (_, _, closure), _ = calls
    assert closure.keys == oracle_ledger.thm31_whole_alphabet_closure(g, d).keys
    details = dict(record.details)
    assert details.pop("bound") == {"kind": "orthogonal", "order": ledger._orthogonal_bound(g)}
    assert details.pop("ambient") == [str(w) for w in ledger.conjugating_letters(g)]
    assert (record.status == "pass", details) == oracle_ledger.thm31_closure_odd(g, d)


@pytest.mark.parametrize("g", [4, 5])
def test_an_odd_level_reference_outside_the_closure_fails(monkeypatch, g):
    # conjugated by a plain elementary matrix, the references leave the
    # orthogonal image; the record must give the whole-alphabet comparison
    n, d = g - 1, 3
    real = ledger.conjugated_gamma_generators(n, d)
    planted = [elementary(n, 1, 2) * r * elementary(n, 1, 2, -1) for r in real]
    monkeypatch.setattr(ledger, "conjugated_gamma_generators", lambda n, d: planted)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    closure = oracle_ledger.thm31_whole_alphabet_closure(g, d)
    reference = normal_closure(oracle_ledger.ambient_phi_images(g), planted)
    assert closure != reference and record.status == "fail"
    assert record.details["closure_order"] == closure.order == ledger._orthogonal_bound(g)
    assert record.details["reference_order"] == reference.order


def test_equal_orders_do_not_pass_two_different_odd_level_groups(monkeypatch):
    # with no conjugating letter and a bound of 2, the seeds at (4, 3) close
    # to a group of order 2, and so do their conjugates by T(2,3), which lie
    # outside it: the orders agree, the groups do not
    g, d = 4, 3
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    a = reduced_action(word(g, Twist((2, 3))))
    planted = [a * reduced_action(r.word) * a.inverse() for r in closed]
    monkeypatch.setattr(ledger, "conjugating_letters", lambda g: [])
    monkeypatch.setattr(ledger, "_orthogonal_bound", lambda g: 2)
    monkeypatch.setattr(ledger, "conjugated_gamma_generators", lambda n, d: planted)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    assert record.details["closure_order"] == record.details["reference_order"] == 2
    assert record.status == "fail"


@pytest.mark.parametrize("g, d", [(4, 2), (5, 4), (4, 3), (5, 5)])
def test_a_closure_one_short_of_the_bound_ends_inconclusive(monkeypatch, g, d):
    if d % 2:
        bound = ledger._orthogonal_bound(g) + 1
        monkeypatch.setattr(ledger, "_orthogonal_bound", lambda g: bound)
    else:
        bound = (g - 1) ** 2
        monkeypatch.setattr(ledger, "_trace_bound", lambda layer: bound)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    kind, measure = ("orthogonal", "order") if d % 2 else ("trace", "dimension")
    assert record.status == "inconclusive"
    reason = record.details["reason"]
    assert reason.endswith(f"{measure} {bound - 1}, below the {kind} bound of {measure} {bound}")


@pytest.mark.parametrize(
    "d, g", [(d, g) for d in (2, 4) for g in range(4, 9)] + [(3, g) for g in range(4, 8)]
)
def test_an_even_level_run_conjugates_by_g_plus_1_letters(monkeypatch, g, d):
    def refuse(*args):
        raise AssertionError("the whole alphabet was built")

    monkeypatch.setattr(families, "generator_alphabet", refuse)
    calls = spy_normal_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    assert record.status == "pass"
    # one layer closure at even d; the seeds' and the references' at odd d
    assert len(calls) == 1 + d % 2
    assert all(len(ambient) == g + 1 for ambient, _, _ in calls)
    twists = [f"T({i},{i + 1})" for i in range(1, g)] + ["T(1,2,3,4)"]
    assert record.details["ambient"] == twists + [f"Y({g - 1},{g})"]


@pytest.mark.parametrize("g", [4, 5, 6])
def test_a_trace_one_seed_moves_the_bound_to_the_whole_layer(monkeypatch, g):
    real = families.main2_normal_generators

    def with_a_slide(g, n, d):
        # a slide acts as I + 2X mod 4 with X = E_11 mod 2, of trace 1
        slide = Main2Generator("Y(1,2)", word(g, Slide(1, 2)), True)
        return real(g, n, d) + [slide]

    monkeypatch.setattr(families, "main2_normal_generators", with_a_slide)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": 2})
    n = g - 1
    assert record.details["bound"] == {"kind": "trace", "dim": n * n}
    # the closure fills the whole layer, twice the traceless reference
    assert record.status == "fail"
    assert record.details["closure_order"] == 2 * record.details["reference_order"] == 1 << n * n


@pytest.mark.parametrize("g, d", [(4, 2), (4, 4), (5, 2), (6, 4), (5, 3)])
def test_too_few_conjugating_letters_end_inconclusive_by_name(monkeypatch, g, d):
    monkeypatch.setattr(ledger, "conjugating_letters", lambda g: [word(g, Twist((1, 2)))])
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    seeds = [reduced_action(r.word) for r in closed]
    letter = [reduced_action(word(g, Twist((1, 2))))]
    if d % 2:
        reached, bound = normal_closure(letter, seeds).order, ledger._orthogonal_bound(g)
        measure, kind = "order", "orthogonal"
    else:
        reached, bound = len(layer_normal_closure(letter, seeds, d).basis), (g - 1) ** 2 - 1
        measure, kind = "dimension", "trace"
    assert reached < bound
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the seeds' closure under conjugation by T(1,2) reached {measure} {reached},"
        f" below the {kind} bound of {measure} {bound}"
    }


@pytest.mark.parametrize("g", [2, 3, 4])
def test_the_orthogonal_bound_counts_the_orthogonal_group(g):
    # O(g, F_2) -> GL(F_2^g / <1>) has a kernel of order 2 at even g
    k = 2 - g % 2
    assert ledger._orthogonal_bound(g) * k == len(ledger.brute_force_mod2_orthogonal(g))


@pytest.mark.parametrize("g", [4, 5, 6])
def test_the_whole_alphabet_mod_2_generates_the_orthogonal_bound(g):
    alphabet = [m.reduce_mod(2) for m in oracle_ledger.ambient_phi_images(g)]
    assert oracle_finitegrp.bfs_closure(alphabet).order == ledger._orthogonal_bound(g)


def test_the_orthogonal_bound_passes_the_cap_from_g_8():
    bounds = [ledger._orthogonal_bound(g) for g in range(2, 9)]
    assert bounds == [1, 6, 24, 720, 11_520, 1_451_520, 92_897_280]
    # odd d reaches the closure engine up to g = 7
    assert bounds[-2] <= CLOSURE_CAP < bounds[-1]


@pytest.mark.parametrize("g", [8, 9, 16, 23, 24, 40, 100_000])
def test_an_odd_level_bound_over_the_cap_stops_before_any_word(monkeypatch, g):
    def refuse(*args):
        raise AssertionError("a word was built")

    for name in ("generator_alphabet", "main2_normal_generators"):
        monkeypatch.setattr(families, name, refuse)
    monkeypatch.setattr(ledger, "conjugating_letters", refuse)
    start = time.perf_counter()
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": 3})
    assert time.perf_counter() - start < 0.1
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the orthogonal bound at g = {g} is at least 92897280, its value at g = 8,"
        f" over CLOSURE_CAP = {CLOSURE_CAP}"
    }
