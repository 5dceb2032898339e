"""The incremental F_2 closure engine and the level-layer closures against
the restarting BFS of ``oracle_finitegrp``.

The engine takes exact integer generators; the oracle keeps its own uint16
encoding and works over any Z/d, so it is handed the same generators
reduced mod 2 (or mod 2d on a layer), and every engine-vs-oracle comparison
goes through decoded matrices (``oracle_finitegrp.elements``).  A level
layer at modulus 2d is spelled out as oracle keys by
``oracle_finitegrp.layer_keys`` and compared with the oracle's enumerating
closure of the generators mod 2d, the closure the layer replaced on the
engine.  At an odd level d the engine closes generators that are I mod d,
reading them mod 2; the oracle closes them over Z/2d, and the two must
agree element for element once the oracle's elements are reduced mod 2.
"""

import random

import pytest

import oracle_finitegrp
import oracle_packed
from crosscap import finitegrp, ledger
from crosscap.finitegrp import ScaleGuardError, bfs_closure, normal_closure
from crosscap.families import Main2Generator
from crosscap.intmat import IntMatrix, ModMatrix, NotUnimodularError, elementary
from crosscap.words import Twist, word

RANDOM_POINTS = [(2, 3), (2, 4), (2, 5), (2, 8), (3, 2), (3, 3), (3, 4)]
RANDOM_CAP = 1 << 17
# below |GL(4, 2)| = 20160, so that most sets at n >= 4 meet the cap
F2_CAP = 1 << 12


ORACLE_OF = {"layer_closure": "bfs_closure", "layer_normal_closure": "normal_closure"}


def record_closures(monkeypatch):
    """Route the registry's closure calls, on the engine and on the level
    layer, through recorders; returns the list that collects
    ``(function name, args)`` per call."""
    calls = []
    for name in ("bfs_closure", "normal_closure", "layer_span", *ORACLE_OF):
        real = getattr(ledger, name)

        def recorder(*args, _name=name, _real=real):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(ledger, name, recorder)
    return calls


def reduced(ms, modulus):
    return [m.reduce_mod(modulus) for m in ms]


def mod2(ms):
    return reduced(ms, 2)


def assert_matches_oracle(name, args, cap=1 << 22):
    """The engine's closure over F_2 of exact generators has the elements
    and dimension of the oracle's closure of them mod 2, or both raise at
    the cap."""
    try:
        expected = getattr(oracle_finitegrp, name)(*map(mod2, args), cap=cap)
    except ScaleGuardError:
        with pytest.raises(ScaleGuardError):
            getattr(finitegrp, name)(*args, cap=cap)
        return
    got = getattr(finitegrp, name)(*args, cap=cap)
    assert expected.modulus == 2
    assert oracle_finitegrp.elements(got) == oracle_finitegrp.elements(expected)
    assert (got.order, got.dim) == (expected.order, expected.dim)
    return got


def assert_reduction_matches_oracle(name, args, d, cap=RANDOM_CAP):
    """At an odd level d, the engine's closure of exact generators that are
    I mod d has as many elements as the oracle's closure of them mod 2d,
    and those reduce mod 2 to the engine's elements."""
    expected = getattr(oracle_finitegrp, name)(*(reduced(gens, 2 * d) for gens in args), cap=cap)
    assert expected.modulus == 2 * d and d % 2
    got = getattr(finitegrp, name)(*args, cap=cap)
    assert got.order == expected.order
    halves = {ModMatrix.from_rows(2, m.rows).rows for m in oracle_finitegrp.elements(expected)}
    assert halves == {m.rows for m in oracle_finitegrp.elements(got)}
    return got


def assert_layer_matches_oracle(name, args):
    """A level-layer closure, spelled out, has the key set of the oracle's
    enumerating closure of the same generators mod 2d."""
    *generators, d = args
    layer = getattr(finitegrp, name)(*args)
    group = getattr(oracle_finitegrp, ORACLE_OF[name])(*(reduced(gens, 2 * d) for gens in generators))
    assert oracle_finitegrp.layer_keys(layer) == group.keys
    assert (layer.modulus, layer.dim, layer.order) == (2 * d, group.dim, group.order)


def assert_span_matches_oracle(args):
    """A span of layer vectors X is the layer closure of the matrices
    I + dX they stand for, which must match the oracle."""
    vectors, d, n = args
    gens = [
        IntMatrix.from_rows([[(r == c) + d * (x >> r * n + c & 1) for c in range(n)] for r in range(n)])
        for x in vectors
    ]
    assert finitegrp.layer_span(vectors, d, n) == finitegrp.layer_closure(gens, d)
    assert_layer_matches_oracle("layer_closure", (gens, d))


def assert_every_call_matches(calls):
    for name, args in calls:
        if name == "layer_span":
            assert_span_matches_oracle(args)
        elif name in ORACLE_OF:
            assert_layer_matches_oracle(name, args)
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
    # THM31-CLOSURE: the normal closure and its reference's span; TOWER-2L:
    # one span, both of layer vectors written in closed form
    expected = {
        "THM31-CLOSURE": ["layer_normal_closure", "layer_span"],
        "TOWER-2L": ["layer_span"],
    }[check_id]
    assert sorted(name for name, _ in calls) == expected
    assert_every_call_matches(calls)


def test_every_closure_of_the_default_suite_matches_the_oracle(monkeypatch):
    calls = record_closures(monkeypatch)
    assert all(r.status == "pass" for r in ledger.run_suite())
    # engine: PSI-O2 1; layer, plain: THM41-MOD8's family images; layer,
    # normal: THM31-CLOSURE 1; span of vectors: RS-GAMMA24's phi mod 4
    # images, and the closed-form references of RS-GAMMA24, THM31-CLOSURE,
    # THM41-MOD8 and TOWER-2L
    assert sorted(name for name, _ in calls) == (
        ["bfs_closure", "layer_closure", "layer_normal_closure"] + ["layer_span"] * 5
    )
    assert_every_call_matches(calls)


# with the two tests above, every even-level registry point at g <= 5:
# THM31-CLOSURE at d = 2, 4, TOWER-2L at l = 2, 3 and THM41-MOD8 and
# RS-GAMMA24 at g = 4; "the engine" is the oracle's enumerating closure
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
    assert {name for name, _ in calls} <= {*ORACLE_OF, "layer_span"}
    assert calls
    assert_every_call_matches(calls)


def test_odd_level_closure_stays_on_the_engine(monkeypatch):
    calls = record_closures(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": 5, "d": 3})
    assert record.status == "pass"
    assert [name for name, _ in calls] == ["normal_closure", "normal_closure"]
    assert all(type(m) is IntMatrix for _, args in calls for gens in args for m in gens)
    assert_every_call_matches(calls)
    # the same closures over Z/6, on the exact images the registry closed
    ambient = [ledger.reduced_action(w) for w in ledger.conjugating_letters(5)]
    closed = [r for r in ledger.families.main2_normal_generators(5, 0, 3) if r.closed_surface]
    refs = ledger.conjugated_gamma_generators(4, 3)
    for (_, args), seeds in zip(calls, ([ledger.reduced_action(r.word) for r in closed], refs)):
        assert list(args) == [ambient, seeds]
        group = assert_reduction_matches_oracle("normal_closure", (ambient, seeds), 3)
        assert group.order == record.details["closure_order"] == 720


@pytest.mark.parametrize("d", [3, 5])
def test_an_odd_level_generator_not_congruent_to_i_fails_by_name(monkeypatch, d):
    real = ledger.families.main2_normal_generators

    def with_a_twist(g, n, d):
        # a single twist acts nontrivially mod 2, so it is I mod no level
        twist = Main2Generator("twist(a12)", word(g, Twist((1, 2))), True)
        return real(g, n, d) + [twist]

    monkeypatch.setattr(ledger.families, "main2_normal_generators", with_a_twist)
    record = ledger.run_check("THM31-CLOSURE", {"g": 4, "d": d})
    assert record.status == "fail"
    assert record.details == {"reason": f"seed twist(a12) is not congruent to I mod {d}"}
    monkeypatch.setattr(ledger.families, "main2_normal_generators", real)
    refs = ledger.conjugated_gamma_generators
    monkeypatch.setattr(
        ledger, "conjugated_gamma_generators", lambda n, d: refs(n, d) + [elementary(n, 1, 2, 1)]
    )
    record = ledger.run_check("THM31-CLOSURE", {"g": 4, "d": d})
    assert record.status == "fail"
    assert record.details == {"reason": f"reference generator 2 is not congruent to I mod {d}"}


def random_layer_element(rng, n, d):
    """I + dX for a random 0/1 matrix X."""
    return IntMatrix.from_rows([[int(r == c) + d * rng.randrange(2) for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("n, d", [(2, 2), (2, 6), (3, 2), (3, 4), (3, 6)])
def test_random_layer_generators_match_the_engine(n, d):
    rng = random.Random(100 * n + d)
    for _ in range(4):
        gens = [random_layer_element(rng, n, d) for _ in range(rng.randint(1, 4))]
        assert_layer_matches_oracle("layer_closure", (gens, d))
        ambient = [random_invertible(rng, n, 2 * d) for _ in range(rng.randint(0, 2))]
        seeds = gens[: rng.randint(1, 2)]
        assert_layer_matches_oracle("layer_normal_closure", (ambient, seeds, d))


def random_invertible(rng, n, d):
    """A matrix of residues in [0, d) that is invertible mod d."""
    while True:
        m = ModMatrix.from_rows(d, [[rng.randrange(d) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
        except NotUnimodularError:
            continue
        return IntMatrix(m.rows)


def random_odd_level_element(rng, n, d):
    """The matrix that is I mod the odd level d and a random invertible
    matrix B mod 2: I + d((B - I) mod 2)."""
    b = random_invertible(rng, n, 2)
    return IntMatrix.from_rows(
        [[int(r == c) + d * ((b.rows[r][c] - (r == c)) % 2) for c in range(n)] for r in range(n)]
    )


@pytest.mark.parametrize("n, d", RANDOM_POINTS)
def test_random_generator_sets_match_the_oracle(n, d):
    """At an odd level d, random generators that are I mod d, closed by the
    engine on their images mod 2 and by the oracle over Z/2d; at an even
    level, random layer generators and ambient matrices over Z/2d, closed on
    the layer and by the oracle."""
    rng = random.Random(1000 * n + d)
    for _ in range(6):
        ambient = [random_invertible(rng, n, 2 * d) for _ in range(rng.randint(0, 2))]
        if d % 2:
            gens = [random_odd_level_element(rng, n, d) for _ in range(rng.randint(1, 3))]
            seeds = [random_odd_level_element(rng, n, d) for _ in range(rng.randint(1, 2))]
            assert_reduction_matches_oracle("bfs_closure", (gens,), d)
            assert_reduction_matches_oracle("normal_closure", (ambient, seeds), d)
        else:
            gens = [random_layer_element(rng, n, d) for _ in range(rng.randint(1, 3))]
            assert_layer_matches_oracle("layer_closure", (gens, d))
            assert_layer_matches_oracle("layer_normal_closure", (ambient, gens[:2], d))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_f2_generator_sets_match_the_oracle(n):
    rng = random.Random(7 * n)
    for _ in range(6):
        gens = [random_invertible(rng, n, 2) for _ in range(rng.randint(1, 3))]
        assert_matches_oracle("bfs_closure", (gens,), cap=F2_CAP)
        ambient = [random_invertible(rng, n, 2) for _ in range(rng.randint(0, 2))]
        seeds = [random_invertible(rng, n, 2) for _ in range(rng.randint(1, 2))]
        assert_matches_oracle("normal_closure", (ambient, seeds), cap=F2_CAP)


@pytest.mark.parametrize("n, d", [(2, 5), (3, 3)])
def test_batch_boundaries_do_not_matter(monkeypatch, n, d):
    # the numpy engine the int engine replaced, in batches of 5 matrices
    monkeypatch.setattr(oracle_packed, "_BATCH", 5)
    rng = random.Random(d)
    for _ in range(4):
        gens = [random_odd_level_element(rng, n, d) for _ in range(rng.randint(1, 3))]
        group = assert_reduction_matches_oracle("bfs_closure", (gens,), d)
        assert group.keys == oracle_packed.int_keys(oracle_packed.bfs_closure(mod2(gens)))
        ambient = [random_invertible(rng, n, 2 * d) for _ in range(2)]
        group = assert_reduction_matches_oracle("normal_closure", (ambient, gens[:1]), d)
        packed = oracle_packed.normal_closure(mod2(ambient), mod2(gens[:1]))
        assert group.keys == oracle_packed.int_keys(packed)
        assert_matches_oracle("bfs_closure", (ambient + gens,), cap=RANDOM_CAP)


def test_empty_and_identity_normal_generators():
    ambient = [elementary(3, 1, 2, 1), elementary(3, 2, 1, 1)]
    identity = IntMatrix.identity(3)
    for seeds in ([], [identity], [identity, identity]):
        assert_matches_oracle("normal_closure", (ambient, seeds))
        assert normal_closure(ambient, seeds).order == 1


def test_repeated_generators():
    # the unitriangular 4 x 4 matrices over F_2: order 2^6
    t = elementary(4, 1, 2, 1)
    u = elementary(4, 2, 3, 1)
    v = elementary(4, 3, 4, 1)
    gens = [t, t, u, t * u, v, u, IntMatrix.identity(4), t, v * t]
    assert_matches_oracle("bfs_closure", (gens,))
    assert bfs_closure(gens).order == 64
    ambient = [t, u, elementary(4, 3, 1, 1)]
    assert_matches_oracle("normal_closure", (ambient, [t, t, t.inverse(), t]))


def block_matrix(n, blocks):
    """The n x n 0/1 matrix with the 3 x 3 block ``blocks[(i, j)]`` at
    block position (i, j) and zeros elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), block in blocks.items():
        for r in range(3):
            for c in range(3):
                rows[3 * i + r][3 * j + c] = block[r][c]
    return IntMatrix.from_rows(rows)


def test_keys_hold_more_than_64_bits():
    # n^2 = 81 > 64 key bits: P cycles three 3 x 3 blocks, and
    # the conjugates of diag(A, I, I), with A of order 7, commute
    n = 9
    eye = [[int(r == c) for c in range(3)] for r in range(3)]
    a = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # the companion matrix of x^3 + x + 1
    cycle = block_matrix(n, {(1, 0): eye, (2, 1): eye, (0, 2): eye})
    seed = block_matrix(n, {(0, 0): a, (1, 1): eye, (2, 2): eye})
    assert_matches_oracle("bfs_closure", ([cycle, seed],))
    group = bfs_closure([cycle, seed])
    assert group.order == 3 * 7**3
    assert all(0 <= key < 1 << 81 for key in group.keys)
    assert max(group.keys) >> 64
    assert_matches_oracle("normal_closure", ([cycle], [seed]))
    assert normal_closure([cycle], [seed]).order == 7**3


def test_caps_raise():
    # GL(3, 2), of order 168, from the elementary matrices e_12 and e_23, e_31
    gens = [elementary(3, 1, 2, 1), elementary(3, 2, 3, 1), elementary(3, 3, 1, 1)]
    with pytest.raises(ScaleGuardError, match="closure exceeded cap of 100 elements"):
        bfs_closure(gens, cap=100)
    assert bfs_closure(gens, cap=168).order == 168
    with pytest.raises(ScaleGuardError, match="closure exceeded cap of 100 elements"):
        normal_closure(gens[1:], gens[:1], cap=100)
    with pytest.raises(ScaleGuardError):
        oracle_finitegrp.normal_closure(mod2(gens[1:]), mod2(gens[:1]), cap=100)


def test_the_engine_refuses_a_modulus_other_than_2():
    # the engine reads exact matrices mod 2 itself: a residue copy, of any
    # modulus, is refused by its type rather than read as mod-2 entries
    for m in (elementary(2, 1, 2, 1).reduce_mod(3), ModMatrix.identity(2, 4)):
        with pytest.raises(TypeError, match="must be exact IntMatrix values, got ModMatrix"):
            bfs_closure([m])
        with pytest.raises(TypeError, match="must be exact IntMatrix values, got ModMatrix"):
            normal_closure([m], [m])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda gens: bfs_closure(gens), id="bfs_closure"),
        pytest.param(lambda gens: normal_closure(gens, gens), id="normal_closure"),
        pytest.param(lambda gens: finitegrp.layer_closure(gens, 2), id="layer_closure"),
        pytest.param(
            lambda gens: finitegrp.layer_normal_closure(gens, gens, 2), id="layer_normal_closure"
        ),
        pytest.param(lambda gens: finitegrp.identity_offsets(gens, 2), id="identity_offsets"),
    ],
)
def test_closures_and_layers_refuse_a_reduced_copy(call):
    # a residue copy would be read as if its residues were the entries,
    # right or wrong for its modulus: every copy is refused by its type,
    # beside an exact generator too
    exact = elementary(2, 1, 2, 2)
    for m in (exact.reduce_mod(4), exact.reduce_mod(8), ModMatrix.identity(2, 2)):
        for gens in ([m], [exact, m]):
            with pytest.raises(TypeError, match="must be exact IntMatrix values, got ModMatrix"):
                call(gens)


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
    # the oracle's general-modulus closures, decoding and exponent test
    group = oracle_finitegrp.bfs_closure(SMALL_GROUPS[name])
    elements = oracle_finitegrp.elements(group)
    assert len(elements) == len(set(elements)) == group.order
    for a in elements:
        for b in elements:
            assert a * b in elements
    exponents = set()
    for e in range(-6, 7):
        expected = all((m**e).is_identity() for m in elements)
        assert oracle_finitegrp.has_exponent(group, e) == expected
        if expected:
            exponents.add(e)
    assert 0 in exponents and 1 not in exponents
