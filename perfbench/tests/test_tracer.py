"""Self-checks of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

The subprocess tests run real workload passes (one to three minutes in all
on two cores, with the host's speed): two traced passes with one seed must give identical counts, and a
traced pass must give the same verdicts as an untraced one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_registry_ids_are_the_verify_items():
    from crosscap import ledger

    assert sorted(ledger.CHECKS) == list(workloads.VERIFY_IDS)


def test_install_patches_every_binding_and_uninstall_restores():
    import crosscap
    from crosscap import families, finitegrp, homology, ledger, pi1free

    originals = (homology.word_matrix, finitegrp.schreier_generators, pi1free.StallingsGraph.fold)
    t = tracing.install(tracing.Tracer())
    try:
        assert ledger.word_matrix is homology.word_matrix is crosscap.word_matrix
        assert homology.word_matrix is not originals[0]
        assert ledger.schreier_generators is pi1free.schreier_generators
        assert pi1free.schreier_generators is not originals[1]
        # a function-level import inside families sees the wrapper too
        families._D_SIGN_CACHE.clear()
        families.named_element("D", (1, 2, 3, 4), 4)
        assert t.calls["homology.word_matrix"] > 0
    finally:
        t.uninstall()
    assert homology.word_matrix is ledger.word_matrix is originals[0]
    assert finitegrp.schreier_generators is pi1free.schreier_generators is originals[1]
    assert pi1free.StallingsGraph.fold is originals[2]


def test_self_time_excludes_child_spans():
    t = tracing.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    tracing.perf, saved = (lambda: next(clock)), tracing.perf
    try:
        inner = t.span("b.inner", lambda: None)
        outer = t.span("a.outer", lambda: inner())
        outer()
    finally:
        tracing.perf = saved
    assert t.total_s["a.outer"] == 10.0
    assert t.self_s["a.outer"] == 8.0
    assert t.self_s["b.inner"] == 2.0
    assert [s[3] for s in t.spans] == [-1, 0]


def _worker(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload]
    cmd += ["--seed", "7", *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_verdicts_match_untraced(workload):
    first = _worker(workload, "--trace")
    second = _worker(workload, "--trace")
    plain = _worker(workload)
    for name in metrics.counts():
        assert first["layers"][name] == second["layers"][name], name
    assert first["verdicts"] == second["verdicts"] == plain["verdicts"]
    assert not any(plain["problems"].values())
