"""crosscap runs without numpy: importing it loads no numpy, and with numpy
made unimportable the CLI's verify, enum and coset commands and the closure
checks still end as they always do.  A lazy ``import numpy`` anywhere on
these paths fails here instead of moving its cost into a run.

Importing crosscap also loads neither ``dataclasses`` nor the ``inspect``
module it pulls in: a ``from dataclasses import ...`` in ``src/`` fails
here instead of bringing back their import cost."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import crosscap

SRC = Path(crosscap.__file__).resolve().parents[1]


def run_python(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_and_its_cli_loads_no_numpy():
    out = run_python(
        """
        import sys
        import crosscap, crosscap.cli
        print("numpy" in sys.modules)
        """
    )
    assert out.split() == ["False"]


def test_importing_the_package_and_its_cli_loads_no_dataclasses_or_inspect():
    out = run_python(
        """
        import sys
        import crosscap, crosscap.cli
        print("dataclasses" in sys.modules, "inspect" in sys.modules)
        """
    )
    assert out.split() == ["False", "False"]


def test_the_cli_and_the_closure_checks_run_with_numpy_unimportable():
    out = run_python(
        """
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # any import of numpy now raises
        from crosscap import cli, ledger

        commands = {
            "verify": ["verify", "--suite", "all", "--format", "json"],
            "enum": ["enum", "--genus", "4", "--set", "thm-main3", "--limit", "30"],
            "coset": ["coset", "--rank", "2", "--relators", "x1^2; x2^2; x1 x2 x1 x2"],
            "coset-cap": ["coset", "--rank", "2", "--relators", "x1^2", "--cap", "64"],
        }
        codes = {}
        for name, argv in commands.items():
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name] = cli.main(argv)
        # the closure workload: two normal closures on the layer, one span
        checks = [("THM31-CLOSURE", {"g": 5, "d": 2}), ("THM31-CLOSURE", {"g": 5, "d": 4}),
                  ("TOWER-2L", {"g": 5, "l": 3}), ("THM31-CLOSURE", {"g": 5, "d": 3}),
                  ("PSI-O2", {"g": 4})]
        records = [ledger.run_check(c, p).to_json() for c, p in checks]
        print(json.dumps({"codes": codes, "records": records}))
        """
    )
    result = json.loads(out)
    assert result["codes"] == {"verify": 0, "enum": 0, "coset": 0, "coset-cap": 3}
    statuses = [r["status"] for r in result["records"]]
    assert statuses == ["pass"] * 5
    orders = [r["details"].get("closure_order", r["details"].get("order")) for r in result["records"]]
    assert orders[:3] == [1 << 15] * 3
    assert orders[3] == 720
    assert result["records"][4]["details"] == {"brute_order": 48, "bfs_order": 48}
