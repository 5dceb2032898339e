"""The Python-int closure engine, level layer, level test and exhaustion
against the numpy forms they replaced (``oracle_packed``): equal key sets,
equal ``LevelLayer``s, equal verdicts and equal matrices, at the registry's
points and on seeded random inputs."""

import random

import numpy as np
import pytest

import oracle_packed
from crosscap import finitegrp, ledger
from crosscap.homology import level_member, matrix_level_trivial, word_matrix
from crosscap.intmat import IntMatrix, ModMatrix, NotUnimodularError
from crosscap.words import Slide, Twist, word

CLOSURES = ("bfs_closure", "normal_closure", "layer_closure", "layer_normal_closure", "layer_span")


def recorded_calls(monkeypatch, check_id, params):
    """Run a check with its closure calls recorded as (name, args); the
    check must pass."""
    calls = []
    for name in CLOSURES:
        real = getattr(ledger, name)

        def recorder(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(ledger, name, recorder)
    assert ledger.run_check(check_id, params).status == "pass"
    monkeypatch.undo()
    assert calls
    return calls


def assert_same_as_packed(name, args, cap=None):
    """The int engine's closure of exact generators equals the numpy
    engine's closure of them reduced mod 2, or mod 2d on a layer: the same
    key set read as ints, or the same ``LevelLayer``; or both raise at the
    cap.  A span of layer vectors X equals the numpy engine's layer closure
    of the matrices I + dX mod 2d they stand for."""
    if name == "layer_span":
        vectors, d, n = args
        gens = [
            ModMatrix.from_rows(2 * d, [[(r == c) + d * (x >> r * n + c & 1) for c in range(n)] for r in range(n)])
            for x in vectors
        ]
        assert finitegrp.layer_span(vectors, d, n) == oracle_packed.layer_closure(gens, d)
        return
    kwargs = {} if cap is None else {"cap": cap}
    modulus = 2 * args[-1] if name.startswith("layer") else 2
    packed = [[m.reduce_mod(modulus) for m in a] if isinstance(a, list) else a for a in args]
    try:
        expected = getattr(oracle_packed, name)(*packed, **kwargs)
    except finitegrp.ScaleGuardError:
        with pytest.raises(finitegrp.ScaleGuardError):
            getattr(finitegrp, name)(*args, **kwargs)
        return
    got = getattr(finitegrp, name)(*args, **kwargs)
    if name.startswith("layer"):
        assert got == expected
    else:
        assert got.dim == expected.dim
        assert got.keys == oracle_packed.int_keys(expected)


@pytest.mark.parametrize("g", [4, 5, 6])
def test_odd_level_thm31_closures_match_the_numpy_engine(monkeypatch, g):
    calls = recorded_calls(monkeypatch, "THM31-CLOSURE", {"g": g, "d": 3})
    assert [name for name, _ in calls] == ["normal_closure", "normal_closure"]
    for name, args in calls:
        assert_same_as_packed(name, args)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_psi_o2_closures_match_the_numpy_engine(g):
    # the consecutive twists, and the 4-chain twist where there is one
    gens = [word_matrix(word(g, Twist((i, i + 1)))) for i in range(1, g)]
    if g >= 4:
        gens.append(word_matrix(word(g, Twist((1, 2, 3, 4)))))
    assert_same_as_packed("bfs_closure", (gens,))
    assert_same_as_packed("normal_closure", (gens, gens[:1]))


@pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("d", [2, 4])
def test_even_level_thm31_layers_match_the_numpy_engine(monkeypatch, g, d):
    calls = recorded_calls(monkeypatch, "THM31-CLOSURE", {"g": g, "d": d})
    assert sorted(name for name, _ in calls) == ["layer_normal_closure", "layer_span"]
    for name, args in calls:
        assert_same_as_packed(name, args)


@pytest.mark.parametrize("check_id, params", [("TOWER-2L", {"g": 6, "l": 4}), ("THM41-MOD8", {"g": 5})])
def test_other_even_level_layers_match_the_numpy_engine(monkeypatch, check_id, params):
    for name, args in recorded_calls(monkeypatch, check_id, params):
        assert_same_as_packed(name, args)


def random_invertible(rng, n, modulus):
    """A matrix of residues in [0, modulus) that is invertible mod modulus."""
    while True:
        rows = [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
        m = ModMatrix.from_rows(modulus, rows)
        try:
            m.inverse()
        except NotUnimodularError:
            continue
        return IntMatrix(m.rows)


def random_layer_element(rng, n, d):
    """I + dX for a random 0/1 matrix X."""
    return IntMatrix.from_rows([[int(r == c) + d * rng.randrange(2) for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("d", [2, 4, 6])
def test_random_layer_sets_match_the_numpy_engine(n, d):
    rng = random.Random(100 * n + d)
    for _ in range(5):
        gens = [random_layer_element(rng, n, d) for _ in range(rng.randint(1, 4))]
        assert_same_as_packed("layer_closure", (gens, d))
        ambient = [random_invertible(rng, n, 2 * d) for _ in range(rng.randint(0, 3))]
        assert_same_as_packed("layer_normal_closure", (ambient, gens[:2], d))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_f2_sets_match_the_numpy_engine(n):
    rng = random.Random(31 * n)
    for _ in range(6):
        gens = [random_invertible(rng, n, 2) for _ in range(rng.randint(1, 3))]
        assert_same_as_packed("bfs_closure", (gens,), cap=1 << 12)
        ambient = [random_invertible(rng, n, 2) for _ in range(rng.randint(0, 2))]
        assert_same_as_packed("normal_closure", (ambient, gens[:2]), cap=1 << 12)


def near_level(rng, g, d):
    """I plus a constant per column plus d times noise, and half the time
    one entry moved off the level."""
    shifts = [rng.randrange(d) for _ in range(g)]
    rows = [[int(r == c) + shifts[c] + d * rng.randint(-3, 3) for c in range(g)] for r in range(g)]
    if rng.random() < 0.5:
        rows[rng.randrange(g)][rng.randrange(g)] += rng.randrange(1, d)
    return IntMatrix.from_rows(rows)


def packed_level_trivial(m, d):
    return bool(oracle_packed.level_trivial_residues(np.array(m.rows, dtype=object), d))


@pytest.mark.parametrize("d", range(2, 9))
def test_the_level_test_matches_the_numpy_stack(d):
    rng = random.Random(d)
    mats = [near_level(rng, g, d) for g in (1, 2, 3, 4, 5) for _ in range(60)]
    mats += [
        IntMatrix.from_rows([[rng.randint(-2 * d, 2 * d) for _ in range(g)] for _ in range(g)])
        for g in (2, 3)
        for _ in range(40)
    ]
    expected = [packed_level_trivial(m, d) for m in mats]
    assert any(expected) and not all(expected)
    assert [matrix_level_trivial(m, d) for m in mats] == expected


@pytest.mark.parametrize("d", range(2, 9))
def test_level_member_of_random_words_matches_the_numpy_stack(d):
    rng = random.Random(10 + d)
    verdicts = []
    for _ in range(40):
        g = rng.randint(2, 5)
        letters = []
        for _ in range(rng.randint(1, 4)):
            i, j = sorted(rng.sample(range(1, g + 1), 2))
            symbol = Twist((i, j)) if rng.random() < 0.5 else Slide(i, j)
            letters.append((symbol, rng.choice([-2, -1, 1, 2]) * rng.choice([1, d, 2 * d])))
        w = word(g, *letters)
        verdicts.append(level_member(w, d))
        assert verdicts[-1] == packed_level_trivial(word_matrix(w), d), w
    assert any(verdicts)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_the_exhaustion_matches_the_numpy_exhaustion(g):
    packed = oracle_packed.brute_force_mod2_orthogonal(g)
    assert ledger.brute_force_mod2_orthogonal(g) == {int.from_bytes(k, "little") for k in packed}
