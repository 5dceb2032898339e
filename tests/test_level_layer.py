"""The level layer Gamma_d / Gamma_2d (d even) as F_2 subspaces: canonical
bases, explicit preconditions, and the registry checks that run on it at
genera where listing the elements is out of reach.

The comparisons with the enumerating closure engine are in
``test_closure_engine.py``; the span, the conjugation step and the
reference vectors written in closed form are compared here with the forms
they replaced in ``oracle_finitegrp`` and ``oracle_ledger``.
"""

import random
import time

import pytest

import oracle_finitegrp
import oracle_ledger
from conftest import random_word
from crosscap import families, finitegrp, ledger
from crosscap.families import Main2Generator
from crosscap.finitegrp import (
    LayerError,
    identity_offsets,
    layer_closure,
    layer_normal_closure,
    vector_coordinates,
)
from crosscap.homology import reduced_action, word_matrix
from crosscap.intmat import IntMatrix, elementary
from crosscap.words import MCGWord, Twist, word


def refuse_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure was enumerated")

    monkeypatch.setattr(ledger, "bfs_closure", refuse)
    monkeypatch.setattr(ledger, "normal_closure", refuse)


@pytest.mark.parametrize("g", [6, 7, 8])
@pytest.mark.parametrize("d", [2, 4, 1 << 15])
def test_thm31_closure_passes_at_the_frontier(monkeypatch, g, d):
    refuse_enumeration(monkeypatch)
    record = ledger.run_check("THM31-CLOSURE", {"g": g, "d": d})
    order = 1 << ((g - 1) ** 2 - 1)
    assert record.status == "pass"
    assert record.details["closure_order"] == record.details["reference_order"] == order
    assert record.details["modulus"] == 2 * d


@pytest.mark.parametrize("g", [6, 7, 8])
# layer vectors are bit-packed, never keyed: moduli 2^16 .. 2^62 need no key
@pytest.mark.parametrize("l", [3, 4, 16, 40, 62])
def test_tower_passes_at_the_frontier(monkeypatch, g, l):
    refuse_enumeration(monkeypatch)
    record = ledger.run_check("TOWER-2L", {"g": g, "l": l})
    assert record.status == "pass"
    assert record.details["order"] == record.details["expected"] == 1 << ((g - 1) ** 2 - 1)


@pytest.mark.parametrize(
    "d, check_id",
    [
        (1 << 40, "THM31-CLOSURE"),
        (1 << 40, "THM31-MEMBER"),
        (1 << 61, "THM31-CLOSURE"),
        (1 << 62, "THM31-MEMBER"),
    ],
)
def test_thm31_at_a_huge_even_level_stops_before_the_seed_word(monkeypatch, check_id, d):
    # the even-d seed is a 4-letter commutator to the power d/2; building
    # it at these levels would need 2d letters
    def refuse(*args):
        raise AssertionError("the seed word was built")

    monkeypatch.setattr(families, "commutator", refuse)
    start = time.perf_counter()
    record = ledger.run_check(check_id, {"g": 4, "d": d})
    assert time.perf_counter() - start < 1.0
    assert record.status == "inconclusive"
    assert record.details == {
        "reason": f"the seed (twist(a12) twist(a12')^-1)^(d/2) would have {2 * d} letters,"
        f" over SEED_LETTER_LIMIT = {families.SEED_LETTER_LIMIT}"
    }


def test_a_seed_outside_the_layer_fails_and_is_named(monkeypatch):
    real = families.main2_normal_generators

    def with_a_twist(g, n, d):
        # a single twist acts nontrivially mod 2, so it lies in no even level
        twist = Main2Generator("twist(a12)", word(g, Twist((1, 2))), True)
        return real(g, n, d) + [twist]

    monkeypatch.setattr(families, "main2_normal_generators", with_a_twist)
    for d in (2, 4):
        record = ledger.run_check("THM31-CLOSURE", {"g": 4, "d": d})
        assert record.status == "fail"
        assert record.details == {"reason": f"seed twist(a12) is not congruent to I mod {d}"}


def layer_element(n, d, *entries):
    """I + d(sum of the unit matrices E_rc), 1-based (r, c)."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for r, c in entries:
        rows[r - 1][c - 1] += d
    return IntMatrix.from_rows(rows)


def test_generators_outside_the_layer_raise_with_their_index():
    good = layer_element(3, 2, (1, 2))
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 2") as err:
        layer_closure([good, elementary(3, 1, 2, 1)], 2)
    assert err.value.index == 1
    half_step = IntMatrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    ambient = [elementary(3, 2, 1, 1)]
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 4"):
        layer_normal_closure(ambient, [layer_element(3, 4, (2, 3)), half_step], 4)
    with pytest.raises(ValueError, match="even level, got d = 3"):
        layer_closure([elementary(3, 1, 2, 3)], 3)
    with pytest.raises(ValueError, match="need at least one generator"):
        layer_closure([], 2)


def test_equal_subgroups_have_equal_reduced_echelon_bases():
    rng = random.Random(5)
    n, d = 4, 4
    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    gens = [layer_element(n, d, *rng.sample(units, 3)) for _ in range(6)]
    layer = layer_closure(gens, d)
    for _ in range(5):
        shuffled = rng.sample(gens, len(gens))
        # products of generators add their vectors, so they change no span
        shuffled.append(gens[0] * gens[1])
        assert layer_closure(shuffled, d) == layer
    pivots = [v.bit_length() - 1 for v in layer.basis]
    assert pivots == sorted(pivots, reverse=True)
    for v, pivot in zip(layer.basis, pivots):
        assert sum(w >> pivot & 1 for w in layer.basis) == 1
    assert layer.order == 1 << len(layer.basis)


def test_normal_closure_of_one_elementary_vector_is_the_trace_zero_layer():
    # conjugating E_12 by the elementary matrices reaches every off-diagonal
    # unit and every E_ii - E_jj: the n^2 - 1 dimensional trace-zero layer
    n, d = 3, 2
    ambient = [
        elementary(n, i, j, 1) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    layer = layer_normal_closure(ambient, [layer_element(n, d, (1, 2))], d)
    assert layer.order == 1 << (n * n - 1)
    assert layer_normal_closure([], [layer_element(n, d, (1, 2))], d).order == 2
    assert layer_normal_closure(ambient, [IntMatrix.identity(n)], d).order == 1


@pytest.mark.parametrize("seed", range(8))
def test_reduction_at_the_pivot_bits_matches_the_all_rows_reduction(seed):
    # the semi-echelon span against the reduced echelon span it replaced,
    # whose pivot-bit reduction is held to the all-rows reduction
    rng = random.Random(seed)
    bits = rng.choice((3, 16, 64, 400))
    # vectors drawn from a few random ones, so that many are dependent
    pool = [rng.getrandbits(bits) for _ in range(rng.randint(1, 30))]
    span, oracle = finitegrp._Span(), oracle_finitegrp.ReducedSpan()
    for _ in range(40):
        v = 0
        for u in rng.sample(pool, rng.randint(1, len(pool))):
            v ^= u
        span.add([v])
        oracle.add([v])
        assert span.layer(2, bits).basis == oracle.layer(2, bits).basis
        for w in [rng.getrandbits(bits) for _ in range(5)] + [v, v ^ pool[0]]:
            want = oracle_finitegrp.reduce_all_rows(oracle, w)
            assert oracle.reduce(w) == want
            got = span.reduce(w)
            assert (got == 0) == (want == 0)
            assert oracle.reduce(w ^ got) == 0
        assert span.reduce(v) == 0


@pytest.mark.parametrize("seed", range(30))
def test_semi_echelon_bases_are_the_reduced_echelon_bases(seed):
    rng = random.Random(1000 + seed)
    bits = rng.choice((1, 5, 24, 81, 225, 961))
    pool = [rng.getrandbits(bits) for _ in range(rng.randint(1, 40))]
    vectors = []
    for _ in range(rng.randint(1, 60)):
        # sparse and dense, dependent and not
        v = 1 << rng.randrange(bits) if rng.random() < 0.3 else 0
        for u in rng.sample(pool, rng.randint(0, len(pool))):
            v ^= u
        vectors.append(v)
    span, oracle = finitegrp._Span(), oracle_finitegrp.ReducedSpan()
    assert len(span.add(vectors)) == len(oracle.add(vectors))
    assert span.layer(4, bits) == oracle.layer(4, bits)
    assert finitegrp.layer_span(vectors, 4, bits) == oracle.layer(4, bits)


def random_invertible(rng, n):
    """An exact n x n matrix, invertible mod 2, with entries of both signs."""
    if n == 1:
        return IntMatrix(((rng.choice((1, -1, 3, -5)),),))
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(1, n + 1), 2)
        m = m * elementary(n, i, j, rng.choice((1, -1, 2, 3)))
    return m


@pytest.mark.parametrize("n", range(1, 13))
def test_chunked_conjugation_matches_the_half_split_tables(n):
    rng = random.Random(100 + n)
    ambient = [random_invertible(rng, n) for _ in range(4)]
    ambient.append(ambient[0])  # a repeated generator is conjugated by once
    if n > 1:
        ambient.insert(2, elementary(n, 1, n, 2))  # I mod 2, so dropped
    # an ambient generator that is I mod 2 fixes every X: the sparse form
    # drops it, and the forms it replaced conjugate by it
    identity = finitegrp._key(IntMatrix.identity(n))
    moving = [a for a in ambient if finitegrp._key(a) != identity]
    xs = [0, (1 << n * n) - 1] + [rng.getrandbits(n * n) for _ in range(40)]
    want = oracle_finitegrp.half_split_conjugation(moving, n)(xs)
    assert oracle_finitegrp.chunked_conjugation(moving, n)(xs) == want
    assert finitegrp._conjugation(ambient, n)(xs) == want
    assert len(want) == len({finitegrp._key(a) for a in moving}) * len(xs)


def test_sparse_conjugation_by_the_letters_matches_the_tables():
    # the letters THM31-CLOSURE conjugates by, at every genus up to 64; the
    # half-split tables hold 2^(n/2) entries, so they stop at n = 16
    for g in range(5, 65):
        n = g - 1
        rng = random.Random(g)
        letters = [reduced_action(w) for w in ledger.conjugating_letters(g)]
        xs = [rng.getrandbits(n * n) for _ in range(3)] + [1 << rng.randrange(n * n)]
        # the slide, last, is I mod 2: the tables conjugate by it, each X to
        # itself, and the sparse form leaves it out
        want = finitegrp._conjugation(letters, n)(xs)
        assert oracle_finitegrp.chunked_conjugation(letters, n)(xs) == want + xs
        if n <= 16:
            assert oracle_finitegrp.half_split_conjugation(letters[:-1], n)(xs) == want


def test_term_conjugation_by_the_letters_matches_the_per_nonzero_form():
    # the letters THM31-CLOSURE conjugates by, at every genus up to 64, where
    # the table oracles stop at n = 16
    for g in range(5, 65):
        n = g - 1
        rng = random.Random(1000 + g)
        letters = [reduced_action(w) for w in ledger.conjugating_letters(g)]
        xs = [0, (1 << n * n) - 1] + [rng.getrandbits(n * n) for _ in range(3)]
        xs += [1 << rng.randrange(n * n)]
        want = oracle_finitegrp.sparse_conjugation(letters, n)(xs)
        assert finitegrp._conjugation(letters, n)(xs) == want


def sample_matrices(rng, n):
    """I, a permutation, the all-ones matrix and random exact matrices."""
    perm = rng.sample(range(n), n)
    yield IntMatrix.identity(n)
    yield IntMatrix.from_rows([[int(perm[r] == c) for c in range(n)] for r in range(n)])
    yield IntMatrix.from_rows([[1] * n for _ in range(n)])
    for _ in range(4):
        yield IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_terms_multiply_as_the_integer_product_mod_2(n):
    rng = random.Random(500 + n)
    col0, row0 = sum(1 << r * n for r in range(n)), (1 << n) - 1
    matrices = list(sample_matrices(rng, n))
    key = finitegrp._key
    xs = [key(x) for x in matrices]
    for m in matrices:
        rows, columns = finitegrp._terms(key(m), n)
        assert finitegrp._product(xs, rows, col0) == [key(x * m) for x in matrices]
        assert finitegrp._product(xs, columns, row0) == [key(m * x) for x in matrices]


@pytest.mark.parametrize("n", [16, 31, 63])
def test_sparse_conjugation_matches_the_tables_on_random_ambients(n):
    # dense: L U for random unitriangular L and U, invertible mod 2
    rng = random.Random(7 * n)
    ambient = []
    for _ in range(2):
        lower = [[int(r == c) or rng.randrange(2) * (r > c) for c in range(n)] for r in range(n)]
        upper = [[int(r == c) or rng.randrange(2) * (r < c) for c in range(n)] for r in range(n)]
        ambient.append(IntMatrix.from_rows(lower) * IntMatrix.from_rows(upper))
    xs = [rng.getrandbits(n * n) for _ in range(6)]
    want = oracle_finitegrp.chunked_conjugation(ambient, n)(xs)
    assert finitegrp._conjugation(ambient, n)(xs) == want
    if n <= 16:
        assert oracle_finitegrp.half_split_conjugation(ambient, n)(xs) == want


def test_thm31_closure_at_16_2_matches_the_oracle_span_and_tables(monkeypatch):
    record = ledger.run_check("THM31-CLOSURE", {"g": 16, "d": 2}).to_json()
    monkeypatch.setattr(finitegrp, "_conjugation", oracle_finitegrp.half_split_conjugation)
    monkeypatch.setattr(finitegrp, "_Span", oracle_finitegrp.ReducedSpan)
    monkeypatch.setattr(oracle_finitegrp.ReducedSpan, "reduce", oracle_finitegrp.reduce_all_rows)
    oracle = ledger.run_check("THM31-CLOSURE", {"g": 16, "d": 2}).to_json()
    assert record["status"] == "pass"
    assert record["details"]["closure_order"] == 1 << 224
    del record["runtime_ms"], oracle["runtime_ms"]
    assert record == oracle


def conjugated_twist_action(rng, g, multiple):
    """The action of u v u^-1, for a random word u and a product v of
    twists, each to a random multiple of ``multiple``: I mod ``multiple``,
    since the level subgroup is normal, with entries of both signs."""
    u = random_word(rng, g, rng.randint(1, 4))
    twists = [
        (Twist(tuple(rng.sample(range(1, g + 1), rng.choice(range(2, g + 1, 2))))), multiple * k)
        for k in rng.choices((-2, -1, 1, 2), k=rng.randint(1, 3))
    ]
    return word_matrix(u * MCGWord.from_letters(g, twists) * u.inverse())


@pytest.mark.parametrize("d", [2, 4, 6, 1 << 40, 3, 5])
def test_the_exact_reader_matches_the_residue_reader(d):
    # the layer vectors at even d, the I-mod-d test at odd d; the residue
    # reader is handed each action reduced mod 2d, as the registry once did
    rng = random.Random(d % 1000)
    for g in (3, 4, 5, 6):
        actions = [conjugated_twist_action(rng, g, d) for _ in range(6)]
        assert any(e < 0 for m in actions for row in m.rows for e in row)
        residues = [m.reduce_mod(2 * d) for m in actions]
        vectors = identity_offsets(actions, d)
        assert vectors == oracle_finitegrp.identity_offsets(residues, d)
        assert any(vectors)
        # a single twist is I mod no level, and so is any conjugate of it
        u = random_word(rng, g, rng.randint(1, 4))
        planted = word_matrix(u * word(g, Twist((1, 2))) * u.inverse())
        at = rng.randrange(len(actions) + 1)
        actions.insert(at, planted)
        residues.insert(at, planted.reduce_mod(2 * d))
        with pytest.raises(LayerError) as exact:
            identity_offsets(actions, d)
        with pytest.raises(LayerError) as residue:
            oracle_finitegrp.identity_offsets(residues, d)
        expected = (at, f"generator {at} is not congruent to I mod {d}")
        assert (exact.value.index, str(exact.value)) == expected
        assert (residue.value.index, str(residue.value)) == expected


def layer_coordinates(basis, gens, d):
    """The masks of ``gens`` in the layer vectors of ``basis``."""
    return vector_coordinates(identity_offsets(basis + gens, d), len(basis))


def test_coordinates_rebuild_every_element_from_the_basis():
    rng = random.Random(11)
    n, d = 3, 4
    units = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    # the unit vectors in a shuffled order, each mixed with the ones before
    order = rng.sample(units, len(units))
    basis = [layer_element(n, d, *order[: t + 1]) for t in range(len(order))]
    gens = [layer_element(n, d, *rng.sample(units, rng.randrange(len(units)))) for _ in range(40)]
    gens.append(IntMatrix.identity(n))
    coords = layer_coordinates(basis, gens, d)
    for m, mask in zip(gens, coords):
        product = IntMatrix.identity(n)
        for t, b in enumerate(basis):
            if mask >> t & 1:
                product = product * b
        # equal in the layer: equal mod 2d
        assert product.reduce_mod(2 * d) == m.reduce_mod(2 * d)
    assert coords[-1] == 0


def test_coordinates_refuse_a_dependent_basis_and_name_what_lies_outside():
    n, d = 3, 2
    e12, e13 = layer_element(n, d, (1, 2)), layer_element(n, d, (1, 3))
    assert layer_coordinates([e12, e13, e12 * e13], [e12], d) is None
    with pytest.raises(LayerError, match="generator 3 is outside the span of the basis") as err:
        layer_coordinates([e12, e13], [e12 * e13, layer_element(n, d, (2, 1))], d)
    assert err.value.index == 3
    with pytest.raises(LayerError, match="generator 1 is not congruent to I mod 2"):
        layer_coordinates([e12], [elementary(n, 1, 2, 1)], d)


@pytest.mark.parametrize("n", range(2, 17))
def test_closed_form_reference_vectors_are_the_generators_vectors(n):
    for d in (2, 4, 6, 8, 16):
        assert ledger.congruence_vectors(n) == identity_offsets(oracle_ledger.gamma_generators(n, d), d)
    # RS-GAMMA24's determinant flip diag(-1, 1, ..., 1) is I + 2X, X = -E_11
    flip = IntMatrix.from_rows([[(-1 if r == 0 else 1) * (r == c) for c in range(n)] for r in range(n)])
    assert identity_offsets([flip], 2) == [1]
