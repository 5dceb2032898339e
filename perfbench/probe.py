"""Host-speed probes: one for the passes, one for set-up.

On a host whose cores are shared with other tenants, speed drifts by up to
2x over seconds to minutes while the CPU time of a pass tracks its wall
time.  Medians alone do not remove that.  ``SpeedProbe`` times a fixed
pure-Python loop -- small-tuple products and dict updates, the kind of work
crosscap's hot paths do -- every ``PERIOD_S`` of wall time from a ``SIGALRM``
handler, so its samples spread evenly over the pass.  The trimmed mean
sample (without the fastest and the slowest) against ``REFERENCE_S`` gives
the host's speed during the pass, and the runner rescales measured seconds
to the reference speed.

A set-up is too short to sample during, and an import (unmarshalling,
module execution, loading shared libraries) does not slow down with the
host as that loop does.  So each set-up sample is followed by a fresh process
running this file, which times the import of a fixed set of standard-library
modules and prints the seconds; the runner rescales the set-up by
``REFERENCE_IMPORT_S`` over that time.

Both probes are part of the benchmark and never change with the program.
"""

from __future__ import annotations

import signal
import time

perf = time.perf_counter

PERIOD_S = 0.2
# about the loop's mean time during a pass, and the reference imports' time,
# on the 2-vCPU x86-64 host of the baseline in README.md (CPython 3.11), so
# that rescaled seconds read close to that host's wall seconds; they must
# never change
REFERENCE_S = 0.004
REFERENCE_IMPORT_S = 0.09


def probe_loop() -> int:
    rows = ((1, 2, 0, -1), (0, 1, 3, 1), (2, 0, 1, 0), (1, 1, 0, 1))
    cols = tuple(zip(*rows))
    m = rows
    seen: dict = {}
    for k in range(240):
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 251 for col in cols) for row in m)
        seen[m] = seen.get(m, 0) + k
    return len(seen)


class SpeedProbe:
    """Context manager sampling the probe loop every ``PERIOD_S`` seconds,
    and once on entry and once on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf()
        probe_loop()
        self.samples.append((start, perf() - start))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Host speed relative to the reference (1.0 = as fast as the
        reference, 0.5 = twice as slow) from the samples taken between
        ``start`` and ``end``, or from all of them when none fall there.
        The fastest and the slowest sample are dropped, so that one delayed
        sample cannot dominate a short item's speed, while a pass's speed
        stays the mean over fast and slow stretches alike."""
        inside = [s for t, s in self.samples if start <= t <= end]
        chosen = sorted(inside or [s for _, s in self.samples])
        middle = chosen[1:-1] or chosen
        return REFERENCE_S * len(middle) / sum(middle)


def time_reference_imports() -> float:
    """Seconds to import the reference modules; none of them is loaded at
    interpreter start-up or by this file."""
    start = perf()
    import argparse, asyncio, decimal, email.mime.multipart, http.client  # noqa: E401, F401
    import logging, sqlite3, unittest, xml.etree.ElementTree  # noqa: E401, F401

    return perf() - start


if __name__ == "__main__":
    print(time_reference_imports())
