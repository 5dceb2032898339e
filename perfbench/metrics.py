"""The benchmark's metric catalogue and the per-layer metrics of a traced pass.

The names and units of the metrics are read from ``BENCHMARK.json`` at the
root of the checkout; ``layer_metrics`` is the only code that knows how each
per-layer value is computed.
"""

from __future__ import annotations

import json
import os

from workloads import VERIFY_IDS

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def catalogue(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC, encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def counts() -> list[str]:
    """The per-layer metrics that are counts: traced passes repeat them exactly."""
    return [name for name, unit in catalogue("per_layer").items() if unit == "count"]


# Layer-isolation predictions: the share of traced wall time a layer takes
# is at least the floor on its own workload and at most CEILING elsewhere.
ISOLATION = (
    ("homology.word_matrix_share", "verify-all", 0.70),
    ("pi1free.fold_share", "kernel-cert", 0.80),
    ("finitegrp.closure_share", "closure", 0.90),
)
CEILING = 0.05


def _ratio(part: float, whole: float, scale: float = 1.0) -> float:
    return part * scale / whole if whole else 0.0


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose traced wall time is ``wall_s``.
    ``trace.overhead_s`` needs an untraced pass and is added by the runner."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    layers = tracer.layer_self_s()
    closures = self_s["finitegrp.bfs_closure"] + self_s["finitegrp.normal_closure"]
    out = {
        "intmat.mul_calls": counts["intmat.mul_calls"],
        "words.mul_calls": counts["words.mul"],
        "words.mul_s": tracer.hot_s["words.mul"],
        "families.words_built": counts["families.words_built"],
        "families.build_s": sum(
            self_s[name]
            for name in (
                "families.main3_generator",
                "families.main3_generators",
                "families.subset_word",
                "words.conjugate",
            )
        ),
        "homology.word_matrix_calls": calls["homology.word_matrix"],
        "homology.letters": counts["homology.letters"],
        "homology.word_matrix_s": self_s["homology.word_matrix"],
        "homology.ns_per_letter": _ratio(
            self_s["homology.word_matrix"], counts["homology.letters"], 1e9
        ),
        "homology.self_s": layers["homology"],
        "homology.word_matrix_share": _ratio(self_s["homology.word_matrix"], wall_s),
        "finitegrp.bfs_closure_s": self_s["finitegrp.bfs_closure"],
        "finitegrp.normal_closure_s": self_s["finitegrp.normal_closure"],
        "finitegrp.elements": counts["finitegrp.elements"],
        "finitegrp.elements_per_s": _ratio(counts["finitegrp.elements"], closures),
        "finitegrp.closure_share": _ratio(closures, wall_s),
        "finitegrp.schreier_yields": counts["finitegrp.schreier_yields"],
        "finitegrp.schreier_self_s": self_s["finitegrp.schreier_generators"],
        "finitegrp.todd_coxeter_s": self_s["finitegrp.todd_coxeter"],
        "finitegrp.cosets": counts["finitegrp.cosets"],
        "finitegrp.cosets_per_s": _ratio(
            counts["finitegrp.cosets"], self_s["finitegrp.todd_coxeter"]
        ),
        "finitegrp.self_s": layers["finitegrp"],
        "pi1free.fold_s": self_s["pi1free.fold"],
        "pi1free.fold_letters": counts["pi1free.fold_letters"],
        "pi1free.ns_per_fold_letter": _ratio(
            self_s["pi1free.fold"], counts["pi1free.fold_letters"], 1e9
        ),
        "pi1free.fold_vertices": counts["pi1free.fold_vertices"],
        "pi1free.fold_share": _ratio(self_s["pi1free.fold"], wall_s),
        "pi1free.rewrite_s": self_s["pi1free.rewrite_two_sided"],
        "pi1free.theta_calls": calls["pi1free.theta"],
        "pi1free.theta_s": self_s["pi1free.theta"],
        "pi1free.word_mul_calls": counts["pi1free.word_mul_calls"],
        "pi1free.self_s": layers["pi1free"],
        "ledger.self_s": layers["ledger"],
        "cli.self_s": layers["cli"],
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.spans),
    }
    for check_id in VERIFY_IDS:
        out[f"ledger.check_s.{check_id}"] = tracer.total_s[f"ledger.check.{check_id}"]
    return out


def isolation_report(workload: str, metrics: dict[str, float]) -> list[tuple[str, float, str, bool]]:
    """(share metric, value, prediction, holds) for each isolation prediction."""
    rows = []
    for name, home, floor in ISOLATION:
        value = metrics[name]
        if workload == home:
            rows.append((name, value, f">= {floor:.2f}", value >= floor))
        else:
            rows.append((name, value, f"<= {CEILING:.2f}", value <= CEILING))
    return rows
