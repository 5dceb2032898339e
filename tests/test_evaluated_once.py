"""The hot checks build and evaluate each word once: LEM43-COMM looks every
A, B and C element up in one table per genus and hands its rows to
``product_matrix`` as factor lists; RS-GAMMA24 evaluates each single slide
and each signed generator once and decides its sampled Schreier words on
their layer vectors mod 4, with no ``product_matrix`` call; GEN-FIX-ONES
applies each generator to the total class with ``act``, which builds no
matrix.  None of them forms a word product or inverse per row or sample."""

from collections import Counter

import pytest

from crosscap import families, homology, ledger, words
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
    seen = Counter()

    def spy(binding, real):
        def evaluate(*args):
            seen[binding] += 1
            return real(*args)

        return evaluate

    # no sampled word is evaluated: each is decided on the layer vectors of
    # its signed generator and single slides.  phi_mod's closure images go
    # through reduced_action, which reads homology's word_matrix; the single
    # slides and signed generators go to ledger's word_matrix
    monkeypatch.setattr(ledger, "product_matrix", spy("ledger", homology.product_matrix))
    monkeypatch.setattr(ledger, "word_matrix", spy("ledger word_matrix", homology.word_matrix))
    monkeypatch.setattr(homology, "word_matrix", spy("homology", homology.word_matrix))
    record = run_check("RS-GAMMA24", {"g": g})
    assert record.status == "pass"
    sampled = record.details["rs_outputs_sampled"]
    assert sampled == 200
    assert seen["ledger"] == 0
    # the generators Y and D for the closure, then the single slides and
    # the signed generators for the coordinates and layer vectors: one
    # action each
    gens = len(ledger._y_union_d_words(g))
    assert seen["homology"] + seen["ledger word_matrix"] == gens + families.y_count(g) + 2 * gens
    assert seen["ledger word_matrix"] == families.y_count(g) + 2 * gens


def test_gen_fix_ones_builds_no_matrix(monkeypatch):
    seen = Counter()

    def spy(binding, real):
        def evaluate(*args):
            seen[binding] += 1
            return real(*args)

        return evaluate

    for module in (ledger, homology):
        for name in ("word_matrix", "product_matrix"):
            monkeypatch.setattr(module, name, spy("matrix", getattr(module, name)))
    # the parent had no ledger.act, and its count of matrices fails there
    monkeypatch.setattr(ledger, "act", spy("act", homology.act), raising=False)
    record = run_check("GEN-FIX-ONES", {"gmax": 8})
    assert record.status == "pass"
    assert seen["matrix"] == 0
    assert seen["act"] == record.details["generators_checked"] > 0


@pytest.mark.parametrize(
    "check_id, params, inverses",
    [
        ("LEM43-COMM", {"gmax": 6}, 0),
        # the signed generators x, x^-1 of Y and D, built once per call
        ("RS-GAMMA24", {"g": 4}, len(ledger._y_union_d_words(4))),
        ("RS-GAMMA24", {"g": 6}, len(ledger._y_union_d_words(6))),
    ],
)
def test_hot_checks_form_no_words_per_row(monkeypatch, check_id, params, inverses):
    formed = Counter()
    depth = [0]
    real_named = families.named_element

    def named(*args):
        depth[0] += 1
        try:
            return real_named(*args)
        finally:
            depth[0] -= 1

    def spy(kind, real):
        def method(self, *args):
            if not depth[0]:
                formed[kind] += 1
            return real(self, *args)

        return method

    # the A, B, C and D elements build and check their words inside
    # named_element; everything else counts
    monkeypatch.setattr(families, "named_element", named)
    monkeypatch.setattr(words.MCGWord, "__mul__", spy("product", words.MCGWord.__mul__))
    monkeypatch.setattr(words.ReducedWord, "inverse", spy("inverse", words.ReducedWord.inverse))
    record = run_check(check_id, params)
    assert record.status == "pass"
    assert formed["product"] == 0
    assert formed["inverse"] == inverses
