"""The bounded-memory forms of PSI-O2's exhaustion and the level-4 stream
checks, against the whole-array oracles they replaced (``oracle_ledger``),
and the traced working memory of the default suite."""

import tracemalloc

import pytest

import oracle_finitegrp
import oracle_ledger
import oracle_packed
from crosscap import families, homology, ledger
from crosscap.finitegrp import FiniteMatrixGroup
from crosscap.intmat import IntMatrix
from crosscap.ledger import brute_force_mod2_orthogonal, run_check, run_suite
from crosscap.pi1free import ScaleGuardError

# the traced peak of a default run_suite(); the whole-array forms peaked at
# 24.6 MiB, almost all of it PSI-O2's int64 exhaustion
SUITE_BUDGET = 6 << 20


@pytest.mark.parametrize("g, order", [(1, 1), (2, 2), (3, 6), (4, 48)])
def test_bit_packed_exhaustion_matches_the_einsum_oracle(g, order):
    got = brute_force_mod2_orthogonal(g)
    expected = oracle_ledger.brute_force_mod2_orthogonal(g)
    assert len(got) == len(expected) == order
    # the engine's int keys against the oracle's uint16 entries
    assert oracle_finitegrp.elements(FiniteMatrixGroup(g, got)) == oracle_finitegrp.elements(
        oracle_finitegrp.Group(2, g, expected, ())
    )
    # and against the numpy exhaustion's packed-byte keys
    assert got == {int.from_bytes(key, "little") for key in oracle_packed.brute_force_mod2_orthogonal(g)}


def test_exhaustion_keeps_its_genus_guard():
    with pytest.raises(ScaleGuardError, match="2\\^\\(g\\^2\\) enumeration unreasonable for g = 5"):
        brute_force_mod2_orthogonal(5)


@pytest.mark.parametrize("batch", [7, oracle_ledger._STREAM_BATCH])
def test_mod8_dedupe_matches_the_axis0_oracle(monkeypatch, batch):
    # the stacked stream, the reference THM41-MOD8's family closure is held
    # to at g = 5, dedupes as the whole-array oracle does
    monkeypatch.setattr(oracle_ledger, "_STREAM_BATCH", batch)
    first, images = oracle_ledger.thm41_mod8_first_images(4)
    names, inputs = [], []
    real_named, real_closure = oracle_ledger._named, oracle_ledger.layer_closure

    def named(labels, closure):
        names.append(list(labels))
        return real_named(labels, closure)

    def closure(gens, d):
        inputs.append(list(gens))
        return real_closure(gens, d)

    monkeypatch.setattr(oracle_ledger, "_named", named)
    monkeypatch.setattr(oracle_ledger, "layer_closure", closure)
    ok, details = oracle_ledger.thm41_mod8_stacked(4)
    assert ok
    assert details["distinct_images"] == len(first) == 19
    assert names[0] == [f"stream word {i}" for i in first]
    assert inputs[0] == [IntMatrix.from_rows(m.tolist()) for m in images]


@pytest.mark.parametrize(
    "check_id, params",
    [("THM41-MEMBER", {}), ("THM41-MEMBER", {"g": 5}), ("THM41-MOD8", {})],
)
def test_stream_words_are_evaluated_once_per_check(monkeypatch, check_id, params):
    # the first build of a genus's families resolves its D signs, which are
    # kept per genus, so build them before counting
    families.main3_families(params.get("g", 4))
    count = [0]
    decided = [0]
    real, real_decide = homology.word_matrix, homology.acts_trivially

    def spy(w):
        count[0] += 1
        return real(w)

    def decide(*args):
        decided[0] += 1
        return real_decide(*args)

    # level_member and reduced_action read homology's binding, and a C
    # build imports acts_trivially from homology when it runs
    monkeypatch.setattr(ledger, "word_matrix", spy)
    monkeypatch.setattr(homology, "word_matrix", spy)
    monkeypatch.setattr(homology, "acts_trivially", decide)
    record = run_check(check_id, params)
    assert record.status == "pass"
    # 25 family elements at g = 4 and 54 at g = 5, each evaluated once;
    # THM41-MOD8 also reads the 9 single slides mod 2.  Each of their 12
    # and 30 C elements decides its slide form against its twist form on
    # every build, with no matrix
    g = record.params["g"]
    words = {4: 25, 5: 54}[g] + (9 if check_id == "THM41-MOD8" else 0)
    assert count[0] == words
    assert decided[0] == {4: 12, 5: 30}[g]


def test_default_suite_runs_in_a_few_mib():
    run_suite()  # fills the per-genus caches the checks share
    tracemalloc.start()
    try:
        run_suite()
        peak = tracemalloc.get_traced_memory()[1]
        per_check = {}
        if peak > SUITE_BUDGET:
            for check_id in sorted(ledger.CHECKS):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                run_check(check_id)
                per_check[check_id] = f"{(tracemalloc.get_traced_memory()[1] - held) / 2**20:.2f} MiB"
    finally:
        tracemalloc.stop()
    assert peak <= SUITE_BUDGET, (
        f"traced peak {peak / 2**20:.2f} MiB over {SUITE_BUDGET >> 20} MiB; per check: {per_check}"
    )
