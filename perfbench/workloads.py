"""The benchmark's three workloads, how each runs, and the closed-form answers
every verdict is checked against.

Each workload is a closed loop: one caller issues each item after the
previous one has finished.  Expected answers are written here from closed
forms, never taken from a run of the program.  Importing this module does
not import crosscap, so the runner can use the item lists without paying the
package's import time.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

# verify-all: the registry at its defaults, through the CLI entry point
VERIFY_IDS = (
    "EX21-MATRICES",
    "GEN-FIX-ONES",
    "LEM42-3CHAIN",
    "LEM43-COMM",
    "PROP34-TC",
    "PROP52-STALLINGS",
    "PSI-O2",
    "RS-GAMMA24",
    "T2-EQ-YY",
    "THETA-BASIS",
    "THM23-ELEM",
    "THM23-KER",
    "THM23-OBSTRUCT",
    "THM31-CLOSURE",
    "THM31-MEMBER",
    "THM41-MEMBER",
    "THM41-MOD8",
    "THM51-COUNTS",
    "TOWER-2L",
)

# kernel-cert: (g, n, d) points with index d^(g-1) = 64, 81, 81; n differs
# between the last two, so the plus-basis ranks differ
KERNEL_POINTS = ((4, 2, 4), (5, 1, 3), (5, 2, 3))

# closure: two normal closures (which rerun the BFS every round) beside one
# plain BFS, each of a group of order 2^15
CLOSURE_CHECKS = (
    ("THM31-CLOSURE", (("g", 5), ("d", 2))),
    ("THM31-CLOSURE", (("g", 5), ("d", 4))),
    ("TOWER-2L", (("g", 5), ("l", 3))),
)

WORKLOADS = ("verify-all", "kernel-cert", "closure")


def _label(check_id: str, params) -> str:
    return check_id + ":" + ",".join(f"{k}={v}" for k, v in params)


def item_ids(workload: str) -> list[str]:
    if workload == "verify-all":
        return list(VERIFY_IDS)
    if workload == "kernel-cert":
        return [f"ker-theta:g={g},n={n},d={d}" for g, n, d in KERNEL_POINTS]
    if workload == "closure":
        return [_label(check_id, params) for check_id, params in CLOSURE_CHECKS]
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(workload: str, seed: int) -> list:
    """The workload's inputs for ``seed``.  Only verify-all uses the seed (it
    sets RS-GAMMA24's sample from the Schreier stream); the other two are
    deterministic enumerations."""
    if workload == "verify-all":
        return [["verify", "--suite", "all", "--format", "json", "--seed", str(seed)]]
    if workload == "kernel-cert":
        return list(KERNEL_POINTS)
    if workload == "closure":
        return [(check_id, dict(params)) for check_id, params in CLOSURE_CHECKS]
    raise ValueError(f"unknown workload {workload!r}")


class Outcome:
    """What one pass produced: per item, its verdict (JSON-ready, with the
    program's own timing fields removed), its seconds, or the error it raised."""

    def __init__(self) -> None:
        self.verdicts: dict[str, object] = {}
        self.seconds: dict[str, float] = {}
        self.windows: dict[str, tuple[float, float]] = {}  # perf_counter start, end
        self.errors: dict[str, str] = {}


def run(workload: str, inputs: list, tracer=None) -> Outcome:
    """Run every item through crosscap's public entry points."""
    from crosscap import cli, ledger, pi1free

    out = Outcome()
    if workload == "verify-all":
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(inputs[0])
            records = json.loads(buffer.getvalue())
        except Exception as exc:  # a raising suite fails every item, not the run
            for item in VERIFY_IDS:
                out.errors[item] = f"{type(exc).__name__}: {exc}"
            return out
        out.verdicts["exit_code"] = code
        for record in records:
            # the suite runs its checks one after another in this order
            seconds = record.pop("runtime_ms") / 1000.0
            out.seconds[record["id"]] = seconds
            out.windows[record["id"]] = (start, start + seconds)
            out.verdicts[record["id"]] = record
            start += seconds
        return out
    for item, value in zip(item_ids(workload), inputs):
        if tracer is not None:
            tracer.item = item
        start = time.perf_counter()
        try:
            if workload == "kernel-cert":
                verdict = pi1free.verify_ker_theta(*value)
            else:
                verdict = ledger.run_check(*value).to_json()
                verdict.pop("runtime_ms")
        except Exception as exc:  # an item that raises counts as failed
            out.errors[item] = f"{type(exc).__name__}: {exc}"
        else:
            out.verdicts[item] = verdict
        end = time.perf_counter()
        out.seconds[item] = end - start
        out.windows[item] = (start, end)
    if tracer is not None:
        tracer.item = None
    return out


# ---------------------------------------------------------------------------
# closed-form answers
# ---------------------------------------------------------------------------

# |A| + |B| + |C| + |D| at genus 4
MAIN3_FAMILY_SIZE_G4 = 25


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label} = {got!r}, expected {want!r}")


def _gate_verify(item: str, record: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "status", record.get("status"), "pass")
    details = record.get("details", {})
    if item == "THM41-MEMBER":
        # 2^((g-1)^2) transversal words times the 25 family elements, g = 4
        size = (1 << (4 - 1) ** 2) * MAIN3_FAMILY_SIZE_G4
        _expect(problems, "stream_size", details.get("stream_size"), size)
        _expect(problems, "checked", details.get("checked"), size)
        _expect(problems, "failures", details.get("failures"), 0)
    elif item == "RS-GAMMA24":
        # elementary abelian of rank (g-1)^2 = 9
        _expect(problems, "order", details.get("order"), 1 << 9)
        _expect(problems, "rs_outputs_sampled", details.get("rs_outputs_sampled"), 200)
    elif item == "THM41-MOD8":
        # the level-4 congruence image mod 8 has order 2^(n^2 - 1), n = 3
        _expect(problems, "closure_order", details.get("closure_order"), 1 << (3**2 - 1))
        _expect(problems, "reference_order", details.get("reference_order"), 1 << (3**2 - 1))
    elif item == "TOWER-2L":
        _expect(problems, "order", details.get("order"), 1 << (3**2 - 1))
    elif item == "PSI-O2":
        # O(4, F_2) for the dot pairing: 4! permutations times 2
        _expect(problems, "bfs_order", details.get("bfs_order"), 48)
        _expect(problems, "brute_order", details.get("brute_order"), 48)
    return problems


def _gate_kernel(report: dict, point) -> list[str]:
    g, n, d = point
    index = d ** (g - 1)
    # conjugates of (g-1) + g + 2(n-1) + C(g-1, 2) cores by d^(g-1) words
    claimed = index * ((g - 1) + g + 2 * (n - 1) + (g - 1) * (g - 2) // 2)
    problems: list[str] = []
    _expect(problems, "ok", report.get("ok"), True)
    _expect(problems, "claimed_all_in_kernel", report.get("claimed_all_in_kernel"), True)
    _expect(problems, "subgroups_equal", report.get("subgroups_equal"), True)
    _expect(problems, "claimed_count", report.get("claimed_count"), claimed)
    for key in ("claimed_index", "schreier_index", "coset_count"):
        _expect(problems, key, report.get(key), index)
    return problems


def _gate_closure(record: dict, check) -> list[str]:
    check_id, params = check
    params = dict(params)
    order = 1 << ((params["g"] - 1) ** 2 - 1)  # 2^15 at g = 5
    problems: list[str] = []
    _expect(problems, "status", record.get("status"), "pass")
    details = record.get("details", {})
    if check_id == "THM31-CLOSURE":
        _expect(problems, "closure_order", details.get("closure_order"), order)
        _expect(problems, "reference_order", details.get("reference_order"), order)
        _expect(problems, "modulus", details.get("modulus"), 2 * params["d"])
    else:
        _expect(problems, "order", details.get("order"), order)
        _expect(problems, "expected", details.get("expected"), order)
    return problems


def gate(workload: str, out: Outcome) -> dict[str, list[str]]:
    """Problems per item; an item passes when its list is empty."""
    problems: dict[str, list[str]] = {}
    if workload == "verify-all":
        cases = [(item, None) for item in VERIFY_IDS]
    elif workload == "kernel-cert":
        cases = list(zip(item_ids(workload), KERNEL_POINTS))
    else:
        cases = list(zip(item_ids(workload), CLOSURE_CHECKS))
    for item, case in cases:
        if item in out.errors:
            problems[item] = [f"raised {out.errors[item]}"]
        elif item not in out.verdicts:
            problems[item] = ["no verdict"]
        elif workload == "verify-all":
            problems[item] = _gate_verify(item, out.verdicts[item])
        elif workload == "kernel-cert":
            problems[item] = _gate_kernel(out.verdicts[item], case)
        else:
            problems[item] = _gate_closure(out.verdicts[item], case)
    code = out.verdicts.get("exit_code", 0)
    if code != 0 and not any(problems.values()):
        # an exit code that contradicts all-pass records fails the whole suite
        for item in problems:
            problems[item].append(f"exit code {code} with every record passing")
    return problems
