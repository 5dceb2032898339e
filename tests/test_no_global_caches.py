"""No module-global memo caches in ``src/``.

A ``functools.cache`` or ``lru_cache`` on a module-level function (or on a
method of a module-level class) keeps its results for the life of the
process, shared by every caller.  So does a module-level dict, list or set
that a function fills: every module-level container that some function
under ``src/`` mutates, by item assignment or deletion, an augmented
assignment or a mutating method, is found.  A cache local to one call, such
as the ones ``families.slide_commutator_relations`` builds inside its body, goes
away with the call and stays allowed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MEMO = {"cache", "lru_cache"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert", "remove", "pop", "popleft",
    "popitem", "clear", "update", "setdefault", "add", "discard", "sort", "reverse",
    "difference_update", "intersection_update", "symmetric_difference_update",
    "__setitem__", "__delitem__",
}
# the one module-global container a function may fill: the per-genus D sign
# cache, which perfbench/tests/test_tracer.py clears by name and pins that
# building a D element evaluates its candidates with ``homology.word_matrix``
ALLOWED_MUTABLE = {"crosscap/families.py": {"_D_SIGN_CACHE"}}


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


def module_containers(tree: ast.Module) -> set[str]:
    """The names a module binds at top level to a dict, list or set display,
    comprehension or constructor call."""
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        call = getattr(value, "func", None)
        built = getattr(call, "id", getattr(call, "attr", None)) in CONTAINER_CALLS
        if isinstance(value, displays) or built:
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _container_name(node: ast.expr, own: set[str], anywhere: set[str]) -> str | None:
    """The container ``node`` reads: a name of this module, or an attribute
    naming a container of any module."""
    if isinstance(node, ast.Name) and node.id in own:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in anywhere:
        return node.attr
    return None


def mutated_containers(source: str, anywhere: set[str] | None = None, filename: str = "<source>") -> set[str]:
    """The module-level containers, of this module or (as attributes) named
    in ``anywhere``, that a function of this module mutates."""
    tree = ast.parse(source, filename)
    own = module_containers(tree)
    anywhere = own | (anywhere or set())
    found = set()
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    for function in functions:
        for node in ast.walk(function):
            target = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                target = node.func.value
            name = target is not None and _container_name(target, own, anywhere)
            if name:
                found.add(name)
    return found


def src_mutated_containers() -> dict[str, set[str]]:
    files = sorted(SRC.rglob("*.py"))
    anywhere = set().union(*(module_containers(ast.parse(path.read_text())) for path in files))
    found = {}
    for path in files:
        hits = mutated_containers(path.read_text(), anywhere, str(path))
        if hits:
            found[str(path.relative_to(SRC))] = hits
    return found


def test_src_fills_no_module_global_container():
    found = src_mutated_containers()
    extra = {
        path: names - ALLOWED_MUTABLE.get(path, set())
        for path, names in found.items()
        if names - ALLOWED_MUTABLE.get(path, set())
    }
    assert extra == {}


def test_the_allowed_container_is_the_one_found():
    # with the allowed list empty, the scan of src/ fails on exactly its entry
    assert src_mutated_containers() == ALLOWED_MUTABLE


@pytest.mark.parametrize(
    "source",
    [
        "_CACHE = {}\ndef f(k):\n    _CACHE[k] = 1\n",
        "_CACHE: dict[int, int] = {}\ndef f(k):\n    del _CACHE[k]\n",
        "_SEEN = []\ndef f(k):\n    _SEEN.append(k)\n",
        "_SEEN = set()\nclass C:\n    def f(self, k):\n        _SEEN.add(k)\n",
        "_COUNT = {'n': 0}\ndef f():\n    _COUNT['n'] += 1\n",
        "_CACHE = dict()\ndef f():\n    def g():\n        _CACHE.update(a=1)\n    g()\n",
        "_CACHE = {}\nf = lambda: _CACHE.clear()\n",
    ],
)
def test_a_filled_global_container_is_found(source):
    assert mutated_containers(source) != set()


@pytest.mark.parametrize(
    "source",
    [
        # read only
        "TABLE = {1: 2}\ndef f(k):\n    return TABLE[k]\n",
        # a local of the same kind
        "def f(k):\n    out = []\n    out.append(k)\n    return out\n",
        # filled at import, not by a function
        "TABLE = {}\nTABLE[1] = 2\n",
    ],
)
def test_a_read_only_or_local_container_is_allowed(source):
    assert mutated_containers(source) == set()


def test_a_container_of_another_module_filled_by_attribute_is_found():
    source = "from . import families\ndef f():\n    families._D_SIGN_CACHE.clear()\n"
    assert mutated_containers(source, {"_D_SIGN_CACHE"}) == {"_D_SIGN_CACHE"}
