"""Run one crosscap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a crosscap checkout: the package is imported from
the checkout's ``src/``.  Workloads: ``verify-all``, ``kernel-cert``,
``closure`` (see perfbench/README.md).

Every pass of the workload runs in a fresh worker process, one after another,
until ``--seconds`` have gone by; timings are medians over the passes.
``setup_s`` is the median over several set-up-only processes, after one
discarded warm-up.  Seconds are rescaled to a reference host speed measured
by ``probe.py``; the unscaled medians and the probes' readings are printed on
the line before the metrics.  With ``--trace 1`` each untraced pass is
followed by two traced ones, and the per-layer metrics are reported instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every item's verdict
is checked against closed forms; a wrong verdict, an exception, an
inconclusive result or a pass that times out counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "probe.py")
SPANS_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# every run must end within 180 s; a pass still running at this point is
# killed and counted as timed out
DEADLINE_S = 170.0
# bytecode is written (into the checkout's __pycache__ directories) even where
# the caller's environment turns that off, so that set-up times the import of
# cached bytecode, as an installed crosscap does, not compiling the sources
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class PassFailed(Exception):
    """A worker or probe timed out, exited non-zero or printed no result."""


def spawn(cmd: list[str], timeout: float):
    """Run ``cmd`` with the runner's environment; the JSON on its last line."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise PassFailed(f"timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassFailed(f"{os.path.basename(cmd[1])} exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise PassFailed(f"unreadable output {lines[-1][:200]!r}") from None


def spawn_worker(args: argparse.Namespace, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    return spawn(cmd + extra, timeout)


def measure_setup(args, started: float) -> list[tuple[float, float]]:
    """(set-up seconds, reference import seconds) of each set-up-only process,
    each followed by the set-up probe (probe.py)."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        left = DEADLINE_S - (time.perf_counter() - started)
        setup_s = spawn_worker(args, ["--setup-only"], left)["setup_s"]
        reference_s = spawn([sys.executable, PROBE], left)
        if k:  # the first pair warms the file cache and bytecode
            samples.append((setup_s, reference_s))
    return samples


def run_passes(args, started: float) -> tuple[list[dict], list[dict], list[str]]:
    """Untraced and traced pass results, and one line per failed pass."""
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    measure_start = time.perf_counter()
    k = 0
    while True:
        done = time.perf_counter() - measure_start >= args.seconds
        # a traced run needs two traced passes to check that counts repeat
        if done and plain and (len(traced) >= 2 or not args.trace):
            break
        left = DEADLINE_S - (time.perf_counter() - started)
        if left <= 1.0:
            break
        trace = bool(args.trace) and k % 3 != 0
        extra = []
        if trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-pass{k}.tsv")
            extra = ["--trace", "--spans", spans]
        try:
            result = spawn_worker(args, extra, left)
        except PassFailed as exc:
            failures.append(f"pass {k}: {exc}")
        else:
            (traced if trace else plain).append(result)
        k += 1
    return plain, traced, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crosscap", "__init__.py")):
        print(f"no crosscap sources under {ROOT}/src; run inside a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        setups = [] if args.trace else measure_setup(args, started)
    except PassFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    plain, traced, pass_failures = run_passes(args, started)
    if not plain or (args.trace and len(traced) < 2):
        print("too few passes completed: " + "; ".join(pass_failures), file=sys.stderr)
        return 1

    items = workloads.item_ids(args.workload)
    passes = plain + traced
    attempted = len(items) * (len(passes) + len(pass_failures))
    failed = len(items) * len(pass_failures)
    notes = list(pass_failures)
    for result in passes:
        for item, problems in result["problems"].items():
            if problems:
                failed += 1
                notes.append(f"{item}: {'; '.join(problems)}")
    # self-checks: the same seed gives the same verdicts, traced or not, and
    # traced passes give the same counts
    mismatches = []
    if any(result["verdicts"] != passes[0]["verdicts"] for result in passes):
        mismatches.append("verdicts differ between passes of the same seed")
    for name in metrics.counts() if traced else ():
        if len({result["layers"][name] for result in traced}) > 1:
            mismatches.append(f"count {name} differs between traced passes")
    notes += mismatches
    correct = failed == 0 and not mismatches

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced, {len(pass_failures)} failed")
    if args.trace:
        units = metrics.catalogue("per_layer")
        # counts repeat exactly, so their median is the count
        values = {
            name: median(result["layers"][name] for result in traced)
            for name in units
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = values["trace.wall_s"] - median(r["wall_s"] for r in plain)
        wall = values["trace.wall_s"]
        # intmat and words products are hot counters without spans, so their
        # time is part of their callers' self time
        print("layer self time as a share of traced wall time:")
        for name in ("families.build_s", "homology.self_s", "finitegrp.self_s",
                     "pi1free.self_s", "ledger.self_s", "cli.self_s"):
            print(f"  {name.split('.')[0]:10s} {values[name] / wall:7.1%}")
        print("layer-isolation predictions:")
        for name, value, prediction, holds in metrics.isolation_report(args.workload, values):
            print(f"  {name:28s} {value:7.1%}  predicted {prediction}  "
                  f"{'holds' if holds else 'DOES NOT HOLD'}")
    else:
        units = metrics.catalogue("end_to_end")
        # seconds are rescaled to the probes' reference host speed (probe.py)
        values = {
            "wall_s": median(r["wall_s"] * r["speed"] for r in plain),
            "max_item_s": median(
                max(s * r["item_speed"][i] for i, s in r["item_s"].items()) for r in plain
            ),
            "setup_s": median(s * probe.REFERENCE_IMPORT_S / ref for s, ref in setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        # the same medians without rescaling, and the speeds they were rescaled by
        print(f"  unscaled: wall_s {median(r['wall_s'] for r in plain):.4f} s, max_item_s "
              f"{median(max(r['item_s'].values()) for r in plain):.4f} s, setup_s "
              f"{median(s for s, _ in setups):.4f} s; host speed "
              f"{median(r['speed'] for r in plain):.3f} over passes; reference imports "
              f"{median(ref for _, ref in setups):.4f} s")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'fail_share':34s} {failed / attempted:14.6f} ratio ({failed} of {attempted} items)")
    for note in notes:
        print(f"  FAILED {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
