import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_intmat
from crosscap.intmat import (
    DimensionError,
    IntMatrix,
    ModMatrix,
    ModulusMismatchError,
    NotUnimodularError,
    congruence_member,
    elementary,
    format_matrix,
    matrix_json,
)

I2 = IntMatrix.identity(2)
I3 = IntMatrix.identity(3)


def square(n, rng):
    return IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])


def test_multiply_identity():
    assert (I3 * I3).rows == I3.rows


def test_multiply_elementary_product():
    # hand multiplication: unit off-diagonal entries combine into a 2 at (1,1)
    got = elementary(3, 1, 2, 1) * elementary(3, 2, 1, 1)
    assert got.rows == ((2, 1, 0), (1, 1, 0), (0, 0, 1))


def test_multiply_slide_actions():
    # product of the two genus-3 slide matrices about the same curve
    y21 = IntMatrix.from_rows([[1, 0], [2, -1]])
    y12 = IntMatrix.from_rows([[-1, 2], [0, 1]])
    assert (y21.inverse() * y12).rows == ((-1, 2), (-2, 3))


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        I2 * I3


def test_inverse_examples():
    assert I3.inverse().rows == I3.rows
    for k in (-3, 2, 5):
        assert elementary(3, 1, 2, k).inverse().rows == elementary(3, 1, 2, -k).rows
    y12 = IntMatrix.from_rows([[-1, 2], [0, 1]])
    assert y12.inverse().rows == y12.rows  # involution


def test_inverse_requires_unimodular():
    with pytest.raises(NotUnimodularError):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse()


def test_elementary_examples():
    assert elementary(2, 1, 2, 1).rows == ((1, 1), (0, 1))
    assert elementary(3, 1, 2, 0).rows == I3.rows
    m = elementary(3, 2, 1, 4)
    assert m.rows == ((1, 0, 0), (4, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        elementary(3, 2, 2, 1)


def test_elementary_is_the_matrix_of_its_rows():
    rng = random.Random(3)
    for n in (1, 2, 3, 5, 9, 40):
        for _ in range(10):
            i, j = rng.randint(1, n), rng.randint(1, n)
            k = rng.choice((0, 1, -1, 7, -(1 << 70), True))
            if i == j:
                with pytest.raises(ValueError, match="requires i != j"):
                    elementary(n, i, j, k)
                continue
            rows = [[int(r == c) for c in range(n)] for r in range(n)]
            rows[i - 1][j - 1] = k
            m = elementary(n, i, j, k)
            assert m == IntMatrix.from_rows(rows)
            assert all(type(e) is int for row in m.rows for e in row)
        for i, j in ((0, 1), (1, n + 1), (n + 1, 1), (-1, 1)):
            with pytest.raises(DimensionError, match=f"indices \\({i},{j}\\) out of range"):
                elementary(n, i, j, 2)


def test_reduce_mod_examples():
    assert I3.reduce_mod(5).is_identity()
    assert elementary(2, 1, 2, 4).reduce_mod(4).is_identity()
    assert IntMatrix.from_rows([[-1, 2], [0, 1]]).reduce_mod(2).is_identity()


def test_congruence_member_examples():
    for d in (2, 3, 5):
        assert congruence_member(I3, d, "gamma")
    for d in (2, 3, 4):
        assert congruence_member(elementary(3, 1, 2, d), d, "gamma")
    diag = IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert congruence_member(diag, 2, "gamma_hat")
    assert not congruence_member(diag, 2, "gamma")
    with pytest.raises(ValueError):
        congruence_member(I3, 1)


def test_mod_matrix_modulus_mixing_is_error():
    with pytest.raises(ModulusMismatchError):
        ModMatrix.identity(2, 3) * ModMatrix.identity(2, 5)


def test_mod_matrix_inverse():
    m = elementary(3, 1, 2, 3).reduce_mod(7)
    assert (m * m.inverse()).is_identity()
    with pytest.raises(NotUnimodularError):
        ModMatrix.from_rows(4, [[2, 0], [0, 1]]).inverse()


def test_format_matrix_and_json():
    m = IntMatrix.from_rows([[1, 0], [4, 1]])
    assert format_matrix(m) == "1,0;4,1"
    assert matrix_json(m) == [["1", "0"], ["4", "1"]]


def test_det_matches_cofactor_expansion(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        m = square(n, rng)
        assert m.det() == oracle_intmat.cofactor_det(m.rows)
        assert m.reduce_mod(7).det() == oracle_intmat.cofactor_det(m.rows) % 7


def test_multiply_associative(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        a, b, c = (square(n, rng) for _ in range(3))
        assert ((a * b) * c).rows == (a * (b * c)).rows


def test_inverse_roundtrip(rng):
    for _ in range(200):
        n = rng.randint(2, 5)
        m = IntMatrix.identity(n)
        for _ in range(6):
            i, j = rng.sample(range(1, n + 1), 2)
            m = m * elementary(n, i, j, rng.randint(-3, 3))
        assert (m.inverse() * m).is_identity()
        assert m.det() in (1, -1)


def random_unimodular(n, rng):
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        if n > 1:
            i, j = rng.sample(range(1, n + 1), 2)
            m = m * elementary(n, i, j, rng.randint(-3, 3))
    if rng.random() < 0.5:
        flip = [[-1 if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)]
        m = m * IntMatrix.from_rows(flip)
    return m


def raised(fn, m):
    with pytest.raises(NotUnimodularError) as info:
        fn(m)
    return str(info.value)


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_matches_the_cofactor_oracle_over_z(n):
    rng = random.Random(n)
    for _ in range(60):
        m = random_unimodular(n, rng)
        # a row swap before the first pivot exercises the sign of the permutation
        if n > 1 and rng.random() < 0.5:
            m = IntMatrix(m.rows[1:] + m.rows[:1])
        assert m.inverse() == oracle_intmat.int_inverse(m)
        assert (m * m.inverse()).is_identity()
        singular = square(n, rng)
        if singular.det() not in (1, -1):
            assert raised(IntMatrix.inverse, singular) == raised(oracle_intmat.int_inverse, singular)
    zero_column = IntMatrix.from_rows([[0] * n] + [[1] * n for _ in range(n - 1)]).transpose()
    assert raised(IntMatrix.inverse, zero_column) == "determinant is 0, not +-1"


@pytest.mark.parametrize("d", [2, 3, 4, 8, 251])
@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_matches_the_cofactor_oracle_mod_d(n, d):
    rng = random.Random(1000 * n + d)
    inverted = refused = 0
    for _ in range(60):
        m = ModMatrix.from_rows(d, [[rng.randrange(d) for _ in range(n)] for _ in range(n)])
        try:
            expected = oracle_intmat.mod_inverse(m)
        except NotUnimodularError:
            assert raised(ModMatrix.inverse, m) == raised(oracle_intmat.mod_inverse, m)
            refused += 1
            continue
        assert m.inverse() == expected
        assert (m * m.inverse()).is_identity()
        inverted += 1
    for _ in range(20):
        m = random_unimodular(n, rng).reduce_mod(d)
        assert m.inverse() == oracle_intmat.mod_inverse(m)
    assert inverted + refused == 60


def test_congruence_subgroup_closure(rng):
    d = 3
    n = 3
    def random_member():
        m = IntMatrix.identity(n)
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(1, n + 1), 2)
            m = m * elementary(n, i, j, d * rng.randint(-2, 2))
        return m

    for _ in range(100):
        a, b = random_member(), random_member()
        assert congruence_member(a, d)
        assert congruence_member(a * b, d)
        assert congruence_member(a.inverse(), d)
        # variants coincide at levels >= 3
        assert congruence_member(a, d, "gamma") == congruence_member(a, d, "gamma_hat")


@settings(max_examples=80)
@given(
    st.integers(2, 4),
    st.integers(2, 7),
    st.data(),
)
def test_reduce_mod_is_multiplicative(n, d, data):
    entries = st.integers(-30, 30)
    rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    a = IntMatrix.from_rows(data.draw(rows))
    b = IntMatrix.from_rows(data.draw(rows))
    assert (a * b).reduce_mod(d).rows == (a.reduce_mod(d) * b.reduce_mod(d)).rows


@pytest.mark.parametrize("cls", [IntMatrix, ModMatrix])
def test_power_is_the_explicit_product(cls, monkeypatch):
    a = elementary(3, 1, 2, 2) * elementary(3, 3, 1, -1) * elementary(3, 2, 3, 1)
    if cls is ModMatrix:
        a = a.reduce_mod(7)
    one = a * a.inverse()
    mul = cls.__mul__
    products = []
    monkeypatch.setattr(cls, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    for e in range(-6, 7):
        factor = a if e >= 0 else a.inverse()
        explicit = one
        for _ in range(abs(e)):
            explicit = mul(explicit, factor)
        products.clear()
        assert (a**e).rows == explicit.rows, e
        # square-and-multiply: one squaring per bit, one product per set bit
        assert len(products) == abs(e).bit_length() + bin(abs(e)).count("1"), e
