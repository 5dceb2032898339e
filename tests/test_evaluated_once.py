"""The hot checks build each word once: LEM43-COMM looks every A, B and C
element up in one table per genus, and RS-GAMMA24 evaluates each sampled
Schreier word once, deciding level 4 and phi mod 4 on that one action."""

from collections import Counter

from crosscap import families, homology, ledger
from crosscap.ledger import run_check


def test_lem43_comm_builds_each_element_once_per_genus(monkeypatch):
    built = Counter()
    real = families.named_element

    def spy(family, indices, g):
        built[family, tuple(indices), g] += 1
        return real(family, indices, g)

    monkeypatch.setattr(families, "named_element", spy)
    record = run_check("LEM43-COMM", {"gmax": 6})
    assert record.status == "pass"
    assert record.details["pairs"] == 36 + 120 + 300
    assert max(built.values()) == 1
    assert {family for family, _, _ in built} == {"A", "B", "C"}
    assert {g for _, _, g in built} == {4, 5, 6}
    assert sum(built.values()) == 133


def test_rs_gamma24_evaluates_each_sampled_word_once(monkeypatch):
    g = 4
    run_check("RS-GAMMA24", {"g": g})  # fills the per-genus family caches
    seen = {"ledger": 0, "homology": 0}
    real = homology.word_matrix

    def spy(binding):
        def evaluate(w):
            seen[binding] += 1
            return real(w)

        return evaluate

    # the sampled words go to ledger's binding; phi_mod's closure and
    # coordinate images go through reduced_action, which reads homology's
    monkeypatch.setattr(ledger, "word_matrix", spy("ledger"))
    monkeypatch.setattr(homology, "word_matrix", spy("homology"))
    record = run_check("RS-GAMMA24", {"g": g})
    assert record.status == "pass"
    sampled = record.details["rs_outputs_sampled"]
    assert sampled == 200
    assert seen["ledger"] == sampled
    # the generators Y and D for the closure, then the single slides and
    # the signed generators for the coordinates: one image each
    gens = len(ledger._y_union_d_words(g))
    assert seen["homology"] == gens + families.y_count(g) + 2 * gens
