"""The incremental closure engine against the restarting BFS it replaced,
and the level-layer closures against the engine.

``oracle_finitegrp`` holds the old code.  Every comparison is on key sets,
so it also checks that the keys keep their byte format.  A level layer is
spelled out as element keys by ``oracle_finitegrp.layer_keys`` and compared
with the engine's closure of the same generators, which is in turn compared
with the restarting BFS.
"""

import random

import pytest

import oracle_finitegrp
from crosscap import finitegrp, ledger
from crosscap.finitegrp import CapExceededError, bfs_closure, normal_closure
from crosscap.intmat import ModMatrix, NotUnimodularError, elementary

RANDOM_POINTS = [(2, 3), (2, 4), (2, 5), (2, 8), (3, 2), (3, 3), (3, 4)]
RANDOM_CAP = 1 << 17


ENGINE_OF = {"layer_closure": "bfs_closure", "layer_normal_closure": "normal_closure"}


def record_closures(monkeypatch):
    """Route the registry's closure calls, on the engine and on the level
    layer, through recorders; returns the list that collects
    ``(function name, args)`` per call."""
    calls = []
    for name in ("bfs_closure", "normal_closure", *ENGINE_OF):
        real = getattr(ledger, name)

        def recorder(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(ledger, name, recorder)
    return calls


def assert_matches_oracle(name, args, cap=1 << 22):
    try:
        expected = getattr(oracle_finitegrp, name)(*args, cap=cap)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            getattr(finitegrp, name)(*args, cap=cap)
        return
    got = getattr(finitegrp, name)(*args, cap=cap)
    assert got.keys == expected.keys
    assert (got.modulus, got.dim, got.generators) == (
        expected.modulus,
        expected.dim,
        expected.generators,
    )
    return got


def assert_layer_matches_engine(name, args):
    """A level-layer closure, spelled out, has the engine's key set for the
    same generators, and the engine's closure matches the restarting BFS."""
    *generators, d = args
    layer = getattr(finitegrp, name)(*args)
    group = assert_matches_oracle(ENGINE_OF[name], tuple(generators))
    assert oracle_finitegrp.layer_keys(layer) == group.keys
    assert (layer.modulus, layer.dim, layer.order) == (2 * d, group.dim, group.order)


def assert_every_call_matches(calls):
    for name, args in calls:
        if name in ENGINE_OF:
            assert_layer_matches_engine(name, args)
        else:
            assert_matches_oracle(name, args)


@pytest.mark.parametrize(
    "check_id, params",
    [
        ("THM31-CLOSURE", {"g": 5, "d": 2}),
        ("THM31-CLOSURE", {"g": 5, "d": 4}),
        ("TOWER-2L", {"g": 5, "l": 3}),
    ],
)
def test_closure_workload_points_match_the_oracle(monkeypatch, check_id, params):
    calls = record_closures(monkeypatch)
    assert ledger.run_check(check_id, params).status == "pass"
    # THM31-CLOSURE: the normal closure and its reference; TOWER-2L: one span
    expected = {
        "THM31-CLOSURE": ["layer_closure", "layer_normal_closure"],
        "TOWER-2L": ["layer_closure"],
    }[check_id]
    assert sorted(name for name, _ in calls) == expected
    assert_every_call_matches(calls)


def test_every_closure_of_the_default_suite_matches_the_oracle(monkeypatch):
    calls = record_closures(monkeypatch)
    assert all(r.status == "pass" for r in ledger.run_suite())
    # engine: PSI-O2 1; layer, plain: RS-GAMMA24 2, THM31-CLOSURE 1,
    # THM41-MOD8 2, TOWER-2L 1; layer, normal: THM31-CLOSURE 1
    assert sorted(name for name, _ in calls) == (
        ["bfs_closure"] + ["layer_closure"] * 6 + ["layer_normal_closure"]
    )
    assert_every_call_matches(calls)


# with the two tests above, every even-level registry point at g <= 5:
# THM31-CLOSURE at d = 2, 4, TOWER-2L at l = 2, 3 and THM41-MOD8 and
# RS-GAMMA24 at g = 4
@pytest.mark.parametrize(
    "check_id, params",
    [
        ("THM31-CLOSURE", {"g": 4, "d": 4}),
        ("TOWER-2L", {"g": 4, "l": 2}),
        ("TOWER-2L", {"g": 5, "l": 2}),
    ],
)
def test_even_level_closures_match_the_engine(monkeypatch, check_id, params):
    calls = record_closures(monkeypatch)
    assert ledger.run_check(check_id, params).status == "pass"
    assert {name for name, _ in calls} <= set(ENGINE_OF)
    assert calls
    assert_every_call_matches(calls)


def test_odd_level_closure_stays_on_the_engine(monkeypatch):
    calls = record_closures(monkeypatch)
    assert ledger.run_check("THM31-CLOSURE", {"g": 5, "d": 3}).status == "pass"
    assert [name for name, _ in calls] == ["normal_closure", "normal_closure"]
    assert_every_call_matches(calls)


def random_layer_element(rng, n, d):
    """I + dX (mod 2d) for a random 0/1 matrix X."""
    return ModMatrix.from_rows(
        2 * d, [[int(r == c) + d * rng.randrange(2) for c in range(n)] for r in range(n)]
    )


@pytest.mark.parametrize("n, d", [(2, 2), (2, 6), (3, 2), (3, 4), (3, 6)])
def test_random_layer_generators_match_the_engine(n, d):
    rng = random.Random(100 * n + d)
    for _ in range(4):
        gens = [random_layer_element(rng, n, d) for _ in range(rng.randint(1, 4))]
        assert_layer_matches_engine("layer_closure", (gens, d))
        ambient = [random_invertible(rng, n, 2 * d) for _ in range(rng.randint(0, 2))]
        seeds = gens[: rng.randint(1, 2)]
        assert_layer_matches_engine("layer_normal_closure", (ambient, seeds, d))


def random_invertible(rng, n, d):
    while True:
        m = ModMatrix.from_rows(d, [[rng.randrange(d) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
        except NotUnimodularError:
            continue
        return m


@pytest.mark.parametrize("n, d", RANDOM_POINTS)
def test_random_generator_sets_match_the_oracle(n, d):
    rng = random.Random(1000 * n + d)
    for _ in range(6):
        gens = [random_invertible(rng, n, d) for _ in range(rng.randint(1, 3))]
        assert_matches_oracle("bfs_closure", (gens,), cap=RANDOM_CAP)
        ambient = [random_invertible(rng, n, d) for _ in range(rng.randint(0, 2))]
        seeds = [random_invertible(rng, n, d) for _ in range(rng.randint(1, 2))]
        assert_matches_oracle("normal_closure", (ambient, seeds), cap=RANDOM_CAP)


@pytest.mark.parametrize("n, d", [(2, 5), (3, 3)])
def test_batch_boundaries_do_not_matter(monkeypatch, n, d):
    monkeypatch.setattr(finitegrp, "_BATCH", 5)
    rng = random.Random(d)
    for _ in range(4):
        gens = [random_invertible(rng, n, d) for _ in range(rng.randint(1, 3))]
        assert_matches_oracle("bfs_closure", (gens,), cap=RANDOM_CAP)
        ambient = [random_invertible(rng, n, d) for _ in range(2)]
        assert_matches_oracle("normal_closure", (ambient, gens[:1]), cap=RANDOM_CAP)


def test_empty_and_identity_normal_generators():
    ambient = [elementary(2, 1, 2, 1).reduce_mod(4), elementary(2, 2, 1, 1).reduce_mod(4)]
    identity = ModMatrix.identity(2, 4)
    for seeds in ([], [identity], [identity, identity]):
        assert_matches_oracle("normal_closure", (ambient, seeds))
        assert normal_closure(ambient, seeds).order == 1


def test_repeated_generators():
    t = elementary(3, 1, 2, 1).reduce_mod(3)
    u = elementary(3, 2, 3, 1).reduce_mod(3)
    gens = [t, t, u, t * u, u, ModMatrix.identity(3, 3), t]
    assert_matches_oracle("bfs_closure", (gens,))
    assert bfs_closure(gens).order == 27
    ambient = [t, u, elementary(3, 3, 1, 1).reduce_mod(3)]
    assert_matches_oracle("normal_closure", (ambient, [t, t, t.inverse(), t]))


def test_keys_hold_more_than_64_bits():
    # n^2 log2(d) = 25 * 7.97 > 64: a cyclic group of order 251 at n = 5
    gen = (elementary(5, 1, 5, 1) * elementary(5, 2, 4, 3)).reduce_mod(251)
    assert_matches_oracle("bfs_closure", ([gen],))
    group = bfs_closure([gen])
    assert group.order == 251
    assert all(len(key) == 2 * 5 * 5 for key in group.keys)
    # conjugating by diag(2, 1, 1, 1, 1) doubles the exponent of e_15
    scale = ModMatrix.from_rows(251, [[2 if r == c == 0 else int(r == c) for c in range(5)] for r in range(5)])
    seed = elementary(5, 1, 5, 1).reduce_mod(251)
    assert_matches_oracle("normal_closure", ([scale], [seed]))
    assert normal_closure([scale], [seed]).order == 251


def test_caps_raise():
    gen = elementary(2, 1, 2, 1).reduce_mod(251)
    with pytest.raises(CapExceededError, match="closure exceeded cap of 100 elements"):
        bfs_closure([gen], cap=100)
    assert bfs_closure([gen], cap=251).order == 251
    ambient = [elementary(2, 2, 1, 1).reduce_mod(251)]
    with pytest.raises(CapExceededError, match="closure exceeded cap of 100 elements"):
        normal_closure(ambient, [gen], cap=100)
    with pytest.raises(CapExceededError):
        oracle_finitegrp.normal_closure(ambient, [gen], cap=100)


SMALL_GROUPS = {
    "klein-four": [
        ModMatrix.from_rows(3, [[2, 0], [0, 1]]),
        ModMatrix.from_rows(3, [[1, 0], [0, 2]]),
    ],
    "sl2-mod4": [elementary(2, 1, 2, 1).reduce_mod(4), elementary(2, 2, 1, 1).reduce_mod(4)],
    "heisenberg-mod3": [elementary(3, 1, 2, 1).reduce_mod(3), elementary(3, 2, 3, 1).reduce_mod(3)],
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_elements_and_exponents_match_the_explicit_powers(name):
    group = bfs_closure(SMALL_GROUPS[name])
    elements = list(group.elements())
    assert elements == list(oracle_finitegrp.elements(group))
    assert len(elements) == group.order
    exponents = set()
    for e in range(-6, 7):
        expected = all((m**e).is_identity() for m in elements)
        assert oracle_finitegrp.has_exponent(group, e) == expected
        if expected:
            exponents.add(e)
    assert 0 in exponents and 1 not in exponents
