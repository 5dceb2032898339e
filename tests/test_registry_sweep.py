"""No check hangs or dies, however large a parameter it is given.

Every check of ``ledger.CHECKS`` runs with each integer parameter in turn
set to 10^6 and to 10^18, the others at their defaults, through ``crosscap
verify``.  Each point runs in a process of its own, one at a time, under a
5 s wall-clock limit and an address-space limit the process sets on itself,
and must end in exit 0 (pass), 2 (a usage error) or 3 (inconclusive, naming
its guard): never 1, which a ``MemoryError`` traceback gives, and never past
the clock.

The points are forked, one after another, from a single interpreter that has
imported crosscap once, so the sweep pays for one start-up and not for one
per point."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import crosscap
from crosscap.ledger import CHECKS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(crosscap.__file__)))
SECONDS = 5
ADDRESS_SPACE = 1 << 30

POINTS = [
    (check_id, key, value)
    for check_id, spec in CHECKS.items()
    for key, default in spec.defaults.items()
    if type(default) is int
    for value in (10**6, 10**18)
]

# reads one JSON argv per line; forks a process that limits its address
# space and runs ``cli.main`` on it; prints its exit code, or "timeout" once
# it is killed at the wall-clock limit, with what it wrote to stderr
RUNNER = textwrap.dedent(
    """
    import json, os, resource, select, signal, sys, tempfile, traceback
    from crosscap.cli import main

    limit, seconds = int(sys.argv[1]), float(sys.argv[2])
    for line in sys.stdin:
        err = tempfile.TemporaryFile("w+")
        pid = os.fork()
        if pid == 0:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(err.fileno(), 2)
            try:
                code = main(json.loads(line))
            except SystemExit as exc:
                code = exc.code
            except BaseException:
                traceback.print_exc()
                code = 1
            sys.stderr.flush()
            os._exit(code)
        handle = os.pidfd_open(pid)
        ready, _, _ = select.select([handle], [], [], seconds)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if ready else "timeout"
        os.close(handle)
        err.seek(0)
        print(json.dumps([code, err.read()[-2000:]]), flush=True)
        err.close()
    """
)


@pytest.fixture(scope="module")
def runner():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-S", "-c", RUNNER, str(ADDRESS_SPACE), str(SECONDS)],
        env={**os.environ, "PYTHONPATH": path},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    yield process
    process.stdin.close()
    process.wait(timeout=SECONDS)


@pytest.mark.parametrize("check_id, key, value", POINTS, ids=[f"{c}-{k}={v}" for c, k, v in POINTS])
def test_a_huge_parameter_ends_in_pass_usage_error_or_inconclusive(runner, check_id, key, value):
    argv = ["verify", "--suite", check_id, "--params", f"{key}={value}", "--format", "json"]
    runner.stdin.write(json.dumps(argv) + "\n")
    runner.stdin.flush()
    code, err = json.loads(runner.stdout.readline())
    assert code in (0, 2, 3), err


def test_every_check_has_a_point():
    assert {check_id for check_id, _, _ in POINTS} == set(CHECKS)
