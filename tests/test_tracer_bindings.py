"""The benchmark's tracer (``perfbench/tracer.py``, loaded read-only from its
file) still finds every name it wraps in the package, and puts every
binding back when it is uninstalled.  The benchmark's own tests check this
too, but they run workload passes in worker processes and sit outside the
tier-1 suite; this catches a renamed or dropped binding (such as
``ledger.word_matrix`` or ``ledger.schreier_generators``) in it."""

import importlib.util
import sys
from pathlib import Path

import crosscap
# every module the tracer wraps is loaded before it installs
from crosscap import cli, families, finitegrp, homology, intmat, ledger, pi1free, words  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every attribute of every loaded crosscap module, and the methods of
    the classes the tracer wraps methods on, by owner and name."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "crosscap" and m]
    owners += [
        intmat.IntMatrix,
        intmat.ModMatrix,
        words.MCGWord,
        pi1free.FreeWord,
        pi1free.StallingsGraph,
    ]
    return {(id(o), attr): v for o in owners for attr, v in list(vars(o).items())}


def test_tracer_wraps_every_name_and_uninstall_restores_them():
    tracing = load_tracer()
    before = bindings()
    tracer = tracing.install(tracing.Tracer())
    try:
        wrapped = {(id(owner), attr): original for owner, attr, original in tracer._undo}
        during = bindings()
        assert wrapped
        for key, original in wrapped.items():
            assert before[key] is original
            assert during[key] is not original
        # the bindings the benchmark's tracer test asserts on
        for owner, name in [
            (ledger, "word_matrix"),
            (ledger, "schreier_generators"),
            (pi1free, "schreier_generators"),
            (finitegrp, "schreier_generators"),
            (homology, "word_matrix"),
            (crosscap, "word_matrix"),
        ]:
            assert (id(owner), name) in wrapped, (owner.__name__, name)
        assert ledger.schreier_generators is pi1free.schreier_generators
    finally:
        tracer.uninstall()
    assert bindings().keys() == before.keys()
    assert all(bindings()[key] is value for key, value in before.items())
