"""THM31-CLOSURE's certificates: at even d the seeds' layer normal closure
under g + 1 conjugating letters, certified equal to the closure under the
whole alphabet by the trace bound; at odd d the refusal of an alphabet the
closure engine could never hold.

``oracle_ledger.thm31_whole_alphabet_closure`` is the closure under the
whole alphabet that the certified one must equal."""

import time

import pytest

import oracle_ledger
from crosscap import families, ledger
from crosscap.families import Main2Generator
from crosscap.finitegrp import CLOSURE_CAP, layer_normal_closure
from crosscap.homology import reduced_action
from crosscap.words import Slide, Twist, word


def spy_normal_closures(monkeypatch):
    """The (ambient, seeds, d) arguments and the result of every
    ``layer_normal_closure`` the registry makes, in order."""
    calls = []

    def spy(ambient, seeds, d):
        layer = layer_normal_closure(ambient, seeds, d)
        calls.append((ambient, seeds, d, layer))
        return layer

    monkeypatch.setattr(ledger, "layer_normal_closure", spy)
    return calls


@pytest.mark.parametrize("g", range(4, 11))
@pytest.mark.parametrize("d", [2, 4, 6])
def test_the_certified_closure_is_the_whole_alphabet_closure(monkeypatch, g, d):
    calls = spy_normal_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    ((_, _, _, layer),) = calls
    assert layer == oracle_ledger.thm31_whole_alphabet_closure(g, d)
    details = dict(record.details)
    n = g - 1
    assert details.pop("bound") == {"kind": "trace", "dim": n * n - 1}
    assert details.pop("ambient") == [str(w) for w in ledger.conjugating_letters(g)]
    assert (record.status == "pass", details) == oracle_ledger.thm31_closure_even(g, d)


@pytest.mark.parametrize("g", range(4, 9))
@pytest.mark.parametrize("d", [2, 4])
def test_an_even_level_run_conjugates_by_g_plus_1_letters(monkeypatch, g, d):
    def refuse(*args):
        raise AssertionError("the whole alphabet was built")

    monkeypatch.setattr(ledger, "ambient_phi_images", refuse)
    monkeypatch.setattr(families, "generator_alphabet", refuse)
    calls = spy_normal_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    assert record.status == "pass"
    ((ambient, _, _, _),) = calls
    assert len(ambient) == g + 1
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


@pytest.mark.parametrize("g, d", [(4, 2), (4, 4), (5, 2), (6, 4)])
def test_too_few_conjugating_letters_end_inconclusive_by_name(monkeypatch, g, d):
    monkeypatch.setattr(ledger, "conjugating_letters", lambda g: [word(g, Twist((1, 2)))])
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    seeds = [reduced_action(r.word) for r in closed]
    reached = len(layer_normal_closure([reduced_action(word(g, Twist((1, 2))))], seeds, d).basis)
    bound = (g - 1) ** 2 - 1
    assert reached < bound
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the seeds' closure under conjugation by T(1,2) reached dimension {reached},"
        f" below the trace bound of dimension {bound}"
    }


def test_the_alphabet_size_counts_the_alphabet():
    for g in range(2, 9):
        assert ledger.alphabet_size(g) == len(families.generator_alphabet(g))
    # odd d reaches the closure engine up to g = 22
    assert ledger.alphabet_size(22) <= CLOSURE_CAP < ledger.alphabet_size(23)


@pytest.mark.parametrize("g", [23, 24, 40])
def test_an_odd_level_alphabet_over_the_cap_stops_before_any_word(monkeypatch, g):
    def refuse(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(families, "generator_alphabet", refuse)
    monkeypatch.setattr(families, "main2_normal_generators", refuse)
    start = time.perf_counter()
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": 3})
    assert time.perf_counter() - start < 0.1
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the generator alphabet at g = {g} has {ledger.alphabet_size(g)} letters,"
        f" over the closure cap of {CLOSURE_CAP} elements"
    }
