"""No module-global memo caches in ``src/``.

A ``functools.cache`` or ``lru_cache`` on a module-level function (or on a
method of a module-level class) keeps its results for the life of the
process, shared by every caller.  A cache local to one call, such as the
ones ``families.slide_commutator_rows`` builds inside its body, goes away
with the call and stays allowed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MEMO = {"cache", "lru_cache"}


def _memo_name(decorator: ast.expr) -> str | None:
    """``cache`` or ``lru_cache`` when the decorator is one of them, bare,
    called, or read off ``functools``; otherwise None."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        name = decorator.attr
    elif isinstance(decorator, ast.Name):
        name = decorator.id
    else:
        return None
    return name if name in MEMO else None


def global_caches(source: str, filename: str = "<source>") -> list[str]:
    """``name@line`` for each module-level function, and each method of a
    module-level class, decorated with a memo cache."""
    found = []
    tree = ast.parse(source, filename)
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in defs:
        for decorator in node.decorator_list:
            if _memo_name(decorator):
                found.append(f"{node.name}@{node.lineno}")
    return found


def test_src_has_no_module_global_cache():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {
        str(path.relative_to(SRC)): hits
        for path in files
        if (hits := global_caches(path.read_text(), str(path)))
    }
    assert found == {}


@pytest.mark.parametrize(
    "source",
    [
        "import functools\n@functools.cache\ndef f(x): return x\n",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x\n",
        "from functools import cache\nclass C:\n    @cache\n    def f(self): return 1\n",
    ],
)
def test_a_global_cache_is_found(source):
    assert global_caches(source) != []


def test_a_cache_local_to_one_call_is_allowed():
    source = (
        "import functools\n"
        "def rows(g):\n"
        "    @functools.cache\n"
        "    def element(i): return i * g\n"
        "    return [element(i) for i in range(g)]\n"
    )
    assert global_caches(source) == []
