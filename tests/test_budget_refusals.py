"""Every budget refusal in ``src/`` goes through ``finitegrp.check_budget``.

A budget is a count computed before the work starts and compared with a
named limit; ``check_budget`` is the one place that compares and raises, so
every refusal reads "..., over NAME = limit".  Only three other
``raise ScaleGuardError`` sites are allowed, because none of them is a
budget checked before the work: the caller-set caps of ``_Closure`` and of
``_CosetRows.define``, met while the work runs, and THM31-CLOSURE's
shortfall below its bound, found after it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ALLOWED = {
    ("crosscap/finitegrp.py", "check_budget"),
    ("crosscap/finitegrp.py", "_Closure._cosets"),
    ("crosscap/finitegrp.py", "_CosetRows.define"),
    ("crosscap/ledger.py", "_check_thm31_closure"),
}


def _raises_scale_guard(node: ast.Raise) -> bool:
    """Whether ``node`` raises ``ScaleGuardError``, bare or called, by name
    or read off a module."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name == "ScaleGuardError"


def scale_guard_raises(source: str, filename: str = "<source>") -> list[str]:
    """The qualified name of the function around each ``raise
    ScaleGuardError``, in source order; ``<module>`` for one outside any."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Raise) and _raises_scale_guard(child):
                    found.append(".".join(scope) or "<module>")
                visit(child, scope)

    visit(ast.parse(source, filename), [])
    return found


def src_scale_guard_raises() -> set[tuple[str, str]]:
    files = sorted(SRC.rglob("*.py"))
    assert files
    return {
        (str(path.relative_to(SRC)), scope)
        for path in files
        for scope in scale_guard_raises(path.read_text(), str(path))
    }


def test_src_raises_scale_guard_only_at_the_allowed_sites():
    assert src_scale_guard_raises() - ALLOWED == set()


def test_each_allowed_site_is_one_found():
    # a site that stops raising leaves the list, so the list cannot go stale
    assert src_scale_guard_raises() == ALLOWED


@pytest.mark.parametrize(
    "source, scope",
    [
        ("def f(n):\n    if n > 4:\n        raise ScaleGuardError(f'{n} over')\n", "f"),
        ("def f():\n    raise finitegrp.ScaleGuardError('over')\n", "f"),
        ("class C:\n    def f(self):\n        raise ScaleGuardError\n", "C.f"),
        ("def f():\n    def g():\n        raise ScaleGuardError('x')\n    g()\n", "f.g"),
        ("raise ScaleGuardError('at import')\n", "<module>"),
    ],
)
def test_a_stray_raise_is_found(source, scope):
    assert scale_guard_raises(source) == [scope]


@pytest.mark.parametrize(
    "source",
    [
        "def f(n):\n    check_budget('LIMIT', 4, n, 'the work')\n",
        "def f():\n    raise ValueError('over')\n",
        "def f():\n    try:\n        g()\n    except ScaleGuardError:\n        raise\n",
    ],
)
def test_a_call_or_another_raise_is_not_found(source):
    assert scale_guard_raises(source) == []
