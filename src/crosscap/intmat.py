"""Exact integer matrix arithmetic and principal congruence subgroups.

Everything here is plain Python integers, so products, inverses and
determinants are exact at any size.  Matrices are small (dimension <= 8 in
practice) and immutable; reductions mod d live in a separate value type that
carries its modulus, and mixing moduli is an error rather than a coercion.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._frozen import Frozen, set_field


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class NotUnimodularError(ValueError):
    """Exact inverse requested for a matrix whose determinant is not a unit."""


class ModulusMismatchError(ValueError):
    """Arithmetic attempted between matrices over different moduli."""


def _freeze(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    frozen = tuple(tuple(map(int, row)) for row in rows)
    # no row at all gives the empty set, never {0}
    if set(map(len, frozen)) != {len(frozen)}:
        raise DimensionError("matrix must be square and non-empty")
    return frozen


def _det_adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """``(det A, adj A)`` from one fraction-free (Bareiss) Gauss-Jordan
    elimination of [A | I] over Z; the adjugate is None when det A = 0.

    Every row is updated at every pivot, so the left half ends as det(PA) I
    and the right half as det(PA) A^-1 = sign(P) adj A, where P is the row
    permutation that the pivot search applied; all divisions are exact.
    """
    n = len(rows)
    a = [list(r) + [1 if c == i else 0 for c in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = a[i]
            factor = row[k]
            for j in range(k + 1, 2 * n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * prev, [[sign * e for e in row[n:]] for row in a]


class _Square:
    """What both matrix types share: a ``rows`` field holding a square
    matrix, whose identity has the same rows over Z and over Z/d, and
    ``_with``, which builds a matrix of the same kind (and modulus) from
    other rows."""

    __slots__ = ()
    rows: tuple[tuple[int, ...], ...]

    def _with(self, rows: tuple[tuple[int, ...], ...]):
        raise NotImplementedError

    @property
    def n(self) -> int:
        return len(self.rows)

    def transpose(self):
        return self._with(tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return all(e == (i == j) for i, row in enumerate(self.rows) for j, e in enumerate(row))

    def __pow__(self, e: int):
        """``self ** e`` by square-and-multiply, through the inverse when e < 0."""
        m = self
        if e < 0:
            m, e = m.inverse(), -e
        result = self._with(IntMatrix.identity(self.n).rows)
        while e:
            if e & 1:
                result = result * m
            m = m * m
            e >>= 1
        return result

    def __str__(self) -> str:
        return format_matrix(self)


class IntMatrix(_Square, Frozen):
    """Immutable square matrix over Z."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "rows", rows)

    def _with(self, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        return IntMatrix(rows)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(_freeze(rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 1:
            raise DimensionError("dimension must be >= 1")
        zeros = (0,) * n
        return IntMatrix(tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"cannot multiply {self.n}x{self.n} by {other.n}x{other.n}")
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.rows
            )
        )

    def det(self) -> int:
        return _det_adjugate(self.rows)[0]

    def inverse(self) -> "IntMatrix":
        d, adj = _det_adjugate(self.rows)
        if d not in (1, -1):
            raise NotUnimodularError(f"determinant is {d}, not +-1")
        # division by det is multiplication since det = +-1
        return IntMatrix(tuple(tuple(e * d for e in row) for row in adj))

    def reduce_mod(self, d: int) -> "ModMatrix":
        if d < 2:
            raise ValueError("modulus must be >= 2")
        return ModMatrix(d, tuple(tuple(e % d for e in row) for row in self.rows))


class ModMatrix(_Square, Frozen):
    """Square matrix over Z/d; the modulus travels with the value."""

    __slots__ = ("modulus", "rows")

    def __init__(self, modulus: int, rows: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "modulus", modulus)
        set_field(self, "rows", rows)

    def _with(self, rows: tuple[tuple[int, ...], ...]) -> "ModMatrix":
        return ModMatrix(self.modulus, rows)

    @staticmethod
    def from_rows(d: int, rows: Iterable[Iterable[int]]) -> "ModMatrix":
        if d < 2:
            raise ValueError("modulus must be >= 2")
        return ModMatrix(d, tuple(tuple(int(e) % d for e in row) for row in _freeze(rows)))

    @staticmethod
    def identity(n: int, d: int) -> "ModMatrix":
        rows = IntMatrix.identity(n).rows
        if d < 2:
            raise ValueError("modulus must be >= 2")
        # 0 and 1 are already residues mod any d >= 2
        return ModMatrix(d, rows)

    def _check(self, other: "ModMatrix") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatchError(f"moduli differ: {self.modulus} vs {other.modulus}")
        if self.n != other.n:
            raise DimensionError(f"cannot combine {self.n}x{self.n} with {other.n}x{other.n}")

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if not isinstance(other, ModMatrix):
            return NotImplemented
        self._check(other)
        d = self.modulus
        bt = tuple(zip(*other.rows))
        return ModMatrix(
            d,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % d for col in bt)
                for row in self.rows
            ),
        )

    def det(self) -> int:
        return _det_adjugate(self.rows)[0] % self.modulus

    def inverse(self) -> "ModMatrix":
        d = self.modulus
        det, adj = _det_adjugate(self.rows)
        det %= d
        try:
            det_inv = pow(det, -1, d)
        except ValueError:
            raise NotUnimodularError(f"determinant {det} is not invertible mod {d}")
        return ModMatrix(d, tuple(tuple(e * det_inv % d for e in row) for row in adj))


def elementary(n: int, i: int, j: int, k: int = 1) -> IntMatrix:
    """Elementary matrix with (i, j) entry k and unit diagonal (1-based indices)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionError(f"indices ({i},{j}) out of range for dimension {n}")
    if i == j:
        raise ValueError("elementary matrix requires i != j")
    # the identity's rows are tuples already, so no entry is re-validated
    rows = list(IntMatrix.identity(n).rows)
    rows[i - 1] = rows[i - 1][: j - 1] + (int(k),) + rows[i - 1][j:]
    return IntMatrix(tuple(rows))


def congruence_member(a: IntMatrix, d: int, variant: str = "gamma") -> bool:
    """Membership in the level-d principal congruence subgroup.

    ``gamma`` asks for the SL kernel (det = 1), ``gamma_hat`` for the GL kernel
    (det = +-1); both require every entry congruent to the identity mod d.
    For d >= 3 the two variants agree on unimodular input, since a matrix
    congruent to the identity has determinant = 1 mod d.
    """
    if d < 2:
        raise ValueError("level must be >= 2")
    if variant not in ("gamma", "gamma_hat"):
        raise ValueError(f"unknown variant {variant!r}")
    n = a.n
    for i in range(n):
        for j in range(n):
            if (a.rows[i][j] - (1 if i == j else 0)) % d != 0:
                return False
    det = a.det()
    if variant == "gamma":
        return det == 1
    return det in (1, -1)


def format_matrix(m: IntMatrix | ModMatrix) -> str:
    """Rows separated by ';', entries by ',' (e.g. ``1,0;4,1``)."""
    return ";".join(",".join(str(e) for e in row) for row in m.rows)


def matrix_json(m: IntMatrix | ModMatrix) -> list[list[str]]:
    """JSON form: array of arrays of decimal strings (arbitrary precision safe)."""
    return [[str(e) for e in row] for row in m.rows]
