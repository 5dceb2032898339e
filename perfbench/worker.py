"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload <name> --seed <n>
        [--setup-only] [--trace] [--spans <file>]

crosscap is imported from the ``src/`` of the checkout that holds perfbench/.

Set-up is timed from before ``import crosscap`` (numpy included) until the
workload's inputs are built.  Wall time runs from the first call into
crosscap until the last verdict.  ``--trace`` installs the tracer after
set-up and reports the per-layer metrics of the pass; an untraced pass runs
under the host-speed probe instead (see probe.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import crosscap  # noqa: F401  (numpy comes with it)
    import crosscap.cli  # noqa: F401
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if not crosscap.__file__.startswith(src + os.sep):
        print(f"crosscap imported from {crosscap.__file__}, not {src}", file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        import metrics
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
        start = time.perf_counter()
        outcome = workloads.run(args.workload, inputs, tracer)
        wall_s = time.perf_counter() - start
    else:
        with probe.SpeedProbe() as speed:
            start = time.perf_counter()
            outcome = workloads.run(args.workload, inputs)
            wall_s = time.perf_counter() - start
        result["speed"] = speed.speed()
        result["item_speed"] = {
            item: speed.speed(*window) for item, window in outcome.windows.items()
        }

    result.update(
        wall_s=wall_s,
        item_s=outcome.seconds,
        problems=workloads.gate(args.workload, outcome),
        verdicts=outcome.verdicts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        tracer.uninstall()
        result["layers"] = metrics.layer_metrics(tracer, wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
