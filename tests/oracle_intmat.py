"""Cofactor expansion: determinants by Laplace expansion along the first
row, and inverses as the adjugate of n^2 such minors.

The slow, obviously correct definition that ``IntMatrix.inverse`` and
``ModMatrix.inverse`` must reproduce, errors and messages included.
"""

from crosscap.intmat import IntMatrix, ModMatrix, NotUnimodularError


def cofactor_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def _minor(rows, i: int, j: int) -> int:
    n = len(rows)
    return cofactor_det([[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i])


def int_inverse(m: IntMatrix) -> IntMatrix:
    d = cofactor_det(m.rows)
    if d not in (1, -1):
        raise NotUnimodularError(f"determinant is {d}, not +-1")
    n = m.n
    if n == 1:
        return IntMatrix(((d,),))
    # adjugate transposed entry (i,j) = cofactor (j,i); division by det is
    # multiplication since det = +-1
    adj = [[((-1) ** (i + j)) * _minor(m.rows, j, i) * d for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(adj)


def mod_inverse(m: ModMatrix) -> ModMatrix:
    d = m.modulus
    det = cofactor_det(m.rows) % d
    try:
        det_inv = pow(det, -1, d)
    except ValueError:
        raise NotUnimodularError(f"determinant {det} is not invertible mod {d}")
    n = m.n
    if n == 1:
        return ModMatrix(d, ((det_inv,),))
    adj = [
        [(((-1) ** (i + j)) * _minor(m.rows, j, i) * det_inv) % d for j in range(n)]
        for i in range(n)
    ]
    return ModMatrix.from_rows(d, adj)
