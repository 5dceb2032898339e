"""crosscap's value types against the frozen dataclasses they were declared
as (``oracle_values``).

For every type the slotted class must take the same positional and keyword
arguments with the same defaults, normalise and refuse them alike, compare
equal only within its class and on the same pairs, hash and print as the
dataclass did, refuse assignment and deletion, and survive copy and pickle.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest

import oracle_values
from crosscap import families, finitegrp, homology, intmat, ledger, pi1free, words

W1 = words.word(4, words.Twist((1, 2)))
W2 = words.word(4, words.Slide(1, 2), (words.Twist((3, 4)), -2))
M = intmat.IntMatrix(((1, 0), (2, 1)))
RUN_A = ledger.CHECKS["PSI-O2"].runner
RUN_B = ledger.CHECKS["TOWER-2L"].runner

# each type's module and constructor arguments; an argument tuple shorter
# than the field list leaves the defaults
SAMPLES = {
    "Twist": (words, [((2, 1),), ((1, 2),), ([4, 3, 2, 1],), ((1, 3),)]),
    "Slide": (words, [(1, 2), (2, 1), (1, 3)]),
    "TorelliTag": (words, [("gamma",), ("gamma", ()), ("beta", (1, 2)), ("beta", (2, 1))]),
    "BoundaryTwist": (
        words,
        [("delta", (1,)), ("delta", (2,)), ("eta", (1, 2, 3)), ("epsilon", (1, 2))],
    ),
    "MCGWord": (words, [(4, ()), (5, ()), (4, W1.letters), (4, W2.letters)]),
    "IntMatrix": (intmat, [(((1, 0), (0, 1)),), (((1, 0), (2, 1)),), (((1,),),)]),
    "ModMatrix": (
        intmat,
        [(2, ((1, 0), (0, 1))), (3, ((1, 0), (0, 1))), (3, ((1, 1), (0, 1)))],
    ),
    "LiftSearch": (homology, [(True, None, 8), (False, M, 3), (False, M, 4)]),
    "FiniteMatrixGroup": (
        finitegrp,
        [(2, frozenset({9})), (2, frozenset({9, 6, 15})), (3, frozenset({273}))],
    ),
    "LevelLayer": (finitegrp, [(4, 3, ()), (4, 3, (256, 2)), (8, 3, (256, 2))]),
    "CosetTable": (
        finitegrp,
        [(1, 1, ((0, 0),)), (1, 2, ((1, 1), (0, 0))), (2, 1, ((0, 0, 0, 0),))],
    ),
    "NamedFamilyElement": (
        families,
        [
            ("A", (1, 2), W1),
            ("A", (2, 1), W1),
            ("B", (1, 2), W1),
            ("A", (1, 2), W2),
            ("D", (1, 2, 3), W2),
        ],
    ),
    "Main2Generator": (families, [("a", W1, True), ("a", W1, False), ("b", W2, True)]),
    "GenNSets": (families, [(4, 1, 2), (4, 0, 2), (5, 2, 3)]),
    "FreeWord": (
        pi1free,
        [((),), (((("x", 1), 2),),), (((("x", 1), 1), (("y", 1), -1)),)],
    ),
    "StallingsGraph": (
        pi1free,
        [((("u", 1),), ((0, 0),)), ((("u", 1),), ((1, 1), (0, 0))), ((("v", 1),), ((0, 0),))],
    ),
    "CheckRecord": (
        ledger,
        [
            ("X", {"g": 4}, "pass", {}, 3, "a"),
            ("X", {"g": 4}, "pass", {}, 4, "a"),
            ("Y", {}, "fail", {"k": 1}, 3, "b"),
        ],
    ),
    "CheckSpec": (
        ledger,
        [
            (RUN_A, "a"),
            (RUN_A, "a", {}, {}, {}, {}),
            (RUN_A, "a", {"g": 4}),
            (RUN_B, "b", {}, {"g": 1}, {"g": 9}, {"g": 0}),
        ],
    ),
}

INVALID = {
    "Twist": [((1,),), ((1, 1),), ((0, 1),), ((1, 2, 3),), ((2, "x"),)],
    "Slide": [(1, 1), (0, 2), (2, -1)],
    "TorelliTag": [("beta",), ("beta", (1, 2, 3)), ("gamma", (1,)), ("delta",)],
    "BoundaryTwist": [("nope", (1,)), ("delta", (1, 2)), ("epsilon", (0, 1))],
    "GenNSets": [(0, 1, 2), (4, -1, 2), (4, 1, 1)],
}


def classes(name):
    module, _ = SAMPLES[name]
    return getattr(oracle_values, name), getattr(module, name)


def fields(name):
    old, _ = classes(name)
    return [f.name for f in dataclasses.fields(old)]


def pairs(name):
    """(dataclass instance, slotted instance) for each sample, built once
    positionally and once by keyword."""
    old, new = classes(name)
    _, samples = SAMPLES[name]
    out = []
    for args in samples:
        kwargs = dict(zip(fields(name), args))
        out.append((old(*args), new(*args)))
        out.append((old(**kwargs), new(**kwargs)))
    return out


def test_every_value_type_is_compared_and_keeps_its_field_order():
    declared = {
        name
        for name, cls in vars(oracle_values).items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    }
    assert declared == set(SAMPLES) and len(SAMPLES) == 18
    for name in SAMPLES:
        _, new = classes(name)
        assert new.__slots__ == tuple(fields(name))
        assert not hasattr(new(*SAMPLES[name][1][0]), "__dict__")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_defaults_repr_and_hash_agree(name):
    for old, new in pairs(name):
        assert [getattr(new, f) for f in fields(name)] == [getattr(old, f) for f in fields(name)]
        assert repr(new) == repr(old)
        try:
            expected = hash(old)
        except TypeError as exc:
            with pytest.raises(TypeError, match=str(exc)):
                hash(new)
        else:
            assert hash(new) == expected == hash(tuple(getattr(old, f) for f in fields(name)))


def test_twist_sorts_its_indices_as_before():
    expected = oracle_values.Twist([4, 3, 2, 1]).indices
    assert words.Twist([4, 3, 2, 1]).indices == expected == (1, 2, 3, 4)
    assert words.Twist((2, 1)) == words.Twist((1, 2))


def test_each_check_spec_gets_fresh_dicts():
    for cls in (ledger.CheckSpec, oracle_values.CheckSpec):
        a, b = cls(RUN_A, "a"), cls(RUN_A, "a")
        for f in ("defaults", "floors", "ceilings", "parities"):
            assert getattr(a, f) == {} and getattr(a, f) is not getattr(b, f)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_and_unequal_pairs_agree(name):
    values = pairs(name)
    for (old_a, new_a), (old_b, new_b) in itertools.product(values, repeat=2):
        assert (new_a == new_b) is (old_a == old_b)
        assert (new_a != new_b) is (old_a != old_b)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_comparison_with_another_type_is_not_implemented(name):
    old, new = pairs(name)[0]
    assert new.__eq__(old) is NotImplemented and old.__eq__(new) is NotImplemented
    assert new != old and not new == old
    for other in (object(), None, tuple(getattr(new, f) for f in fields(name))):
        assert new.__eq__(other) is NotImplemented
        assert old.__eq__(other) is NotImplemented
        assert new != other and not new == other
    assert intmat.IntMatrix(((1,),)) != intmat.ModMatrix(2, ((1,),))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_assignment_and_deletion_raise_attribute_error(name):
    old, new = pairs(name)[0]
    for f in fields(name) + ["other"]:
        for value in (old, new):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{f}'$"):
                setattr(value, f, 1)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{f}'$"):
                delattr(value, f)
    assert new == pairs(name)[0][1]


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_arguments_are_refused_alike(name):
    old, new = classes(name)
    for args in INVALID[name]:
        errors = []
        for cls in (old, new):
            with pytest.raises(Exception) as info:
                cls(*args)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1], args


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copy_and_pickle_keep_the_value(name):
    for _, new in pairs(name):
        for twin in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
            assert type(twin) is type(new) and twin == new and repr(twin) == repr(new)
