"""The word-identity claims are ``(name, genus, factors)`` relations drawn
from the relation families of ``families``, and ``families.failing`` is the
one place in ``src/`` that decides one.  T2-EQ-YY, LEM42-3CHAIN and
LEM43-COMM must give the records of their earlier bodies, kept in
``oracle_ledger``, which decided each identity in their own loops.  Outside
``homology``, only ``failing`` and THM23-KER, whose claim is that a word
acts nontrivially, may reach ``acts_trivially``."""

import ast
import pathlib

import oracle_ledger
import pytest

from crosscap import families
from crosscap.ledger import run_check
from crosscap.words import Slide, Twist, word

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crosscap"

# where ``acts_trivially`` may be named outside homology: the decider, and
# THM23-KER, whose nontriviality on H_1 already holds in the mapping class group
ALLOWED_DECIDERS = {"families.py:failing", "ledger.py:_check_thm23_ker"}

ORACLES = {
    "T2-EQ-YY": oracle_ledger.t2_eq_yy,
    "LEM42-3CHAIN": oracle_ledger.lem42_3chain,
    "LEM43-COMM": oracle_ledger.lem43_comm,
}


@pytest.mark.parametrize("gmax", range(4, 9))
@pytest.mark.parametrize("check_id", sorted(ORACLES))
def test_identity_checks_match_their_earlier_bodies(check_id, gmax):
    record = run_check(check_id, {"gmax": gmax})
    ok, details = ORACLES[check_id]({"gmax": gmax})
    assert record.status == ("pass" if ok else "fail") == "pass"
    assert record.details == details


def test_failing_names_the_relations_that_fail_in_order():
    g = 4
    t, y = word(g, (Twist((1, 2)), 2)), word(g, Slide(1, 2))
    drawn = []

    def relations():
        for name, factors in [
            ("square", ((t, 1),)),
            ("trivial", ((t, 1), (t, -1))),
            ("slide", ((y, 1),)),
            ("empty", ()),
        ]:
            drawn.append(name)
            yield name, g, factors

    assert families.failing(relations()) == ["square", "slide"]
    assert drawn == ["square", "trivial", "slide", "empty"]
    assert families.failing([]) == []


@pytest.mark.parametrize(
    "family, count",
    [
        (families.twist_square_relations, 3 + 6 + 10 + 15),
        (families.three_chain_relations, 2 * (1 + 4 + 10)),
        (families.slide_commutator_relations, 36 + 120 + 300),
    ],
)
def test_each_relation_family_holds_on_homology(family, count):
    relations = list(family(6))
    names = [name for name, _, _ in relations]
    assert len(set(names)) == len(names) == count
    assert all(name[0] == g for name, g, _ in relations)
    assert families.failing(relations) == []


def deciders(source: str, filename: str = "<source>") -> set[str]:
    """``file:function`` for each module-level function whose body names
    ``acts_trivially``, with ``file:<module>`` for a name outside every
    function and ``file:import-as`` for an import that renames it."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and where == "<module>":
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                if any(a.name == "acts_trivially" and a.asname for a in child.names):
                    found.add(f"{filename}:import-as")
                continue
            if isinstance(child, ast.Name) and child.id == "acts_trivially":
                found.add(f"{filename}:{where}")
            if isinstance(child, ast.Attribute) and child.attr == "acts_trivially":
                found.add(f"{filename}:{where}")
            visit(child, where)

    visit(ast.parse(source, filename), "<module>")
    return found


def test_only_failing_and_thm23_ker_reach_acts_trivially():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "homology.py")
    assert len(files) > 5
    found = set().union(*(deciders(p.read_text(), p.name) for p in files))
    assert found == ALLOWED_DECIDERS


@pytest.mark.parametrize(
    "source, where",
    [
        (
            "from .homology import acts_trivially\n"
            "def check(g, f):\n    return acts_trivially(g, f)\n",
            "m.py:check",
        ),
        ("from . import homology\ndef check(g, f):\n    return homology.acts_trivially(g, f)\n", "m.py:check"),
        ("from .homology import acts_trivially as decide\n", "m.py:import-as"),
        ("from . import homology\ndecide = homology.acts_trivially\n", "m.py:<module>"),
        (
            "def check(g, f):\n    def inner():\n        return acts_trivially(g, f)\n    return inner()\n",
            "m.py:check",
        ),
    ],
)
def test_a_stray_decider_is_found(source, where):
    assert deciders(source, "m.py") == {where}
