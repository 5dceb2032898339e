"""Cofactor-expansion inverses: the adjugate from n^2 Bareiss minors.

The slow, obviously correct definition that ``IntMatrix.inverse`` and
``ModMatrix.inverse`` must reproduce, errors and messages included.
"""

from crosscap.intmat import IntMatrix, ModMatrix, NotUnimodularError, _bareiss_det


def _minor(rows, i: int, j: int) -> int:
    n = len(rows)
    return _bareiss_det([[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i])


def int_inverse(m: IntMatrix) -> IntMatrix:
    d = m.det()
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
    det = m.det()
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
