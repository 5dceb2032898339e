"""Reference evaluation of words on H_1 by dense matrix products.

Each letter becomes its own g x g generator matrix and the word's action is
their product, rightmost letter applied first.  This is the slow, obviously
correct definition that ``crosscap.homology.word_matrix`` must reproduce.
``oracle_act`` is the image of a class as ``word_matrix`` times its
coefficient vector, which the matrix-free ``crosscap.homology.act`` must
reproduce, errors included.
"""

from crosscap.homology import H1Class, NoHomologyActionError, word_matrix
from crosscap.intmat import IntMatrix
from crosscap.words import (
    BoundaryTwist,
    MCGWord,
    Slide,
    Symbol,
    TorelliTag,
    Twist,
    validate_symbol,
)


def twist_matrix(indices: tuple[int, ...], genus: int, exp: int = 1) -> IntMatrix:
    """Action of the d-th power of a twist about the curve through ``indices``.

    With u the indicator vector of the index set and w the alternating sign
    vector (-1 at the 1st, 3rd, ... smallest indices, +1 at the rest), the
    action is I + d u w^T.  Since w . u = 0 this is exactly the d-th power of
    the single twist.
    """
    sym = Twist(indices)
    validate_symbol(sym, genus)
    idx = sym.indices
    rows = [[1 if r == c else 0 for c in range(genus)] for r in range(genus)]
    in_set = set(idx)
    for pos, j in enumerate(idx):
        sign = -1 if pos % 2 == 0 else 1
        for r in range(genus):
            if r + 1 in in_set:
                rows[r][j - 1] += exp * sign
    return IntMatrix.from_rows(rows)


def slide_matrix(moving: int, along: int, genus: int) -> IntMatrix:
    """a_moving -> -a_moving, a_along -> 2 a_moving + a_along, rest fixed."""
    sym = Slide(moving, along)
    validate_symbol(sym, genus)
    rows = [[1 if r == c else 0 for c in range(genus)] for r in range(genus)]
    a, b = moving - 1, along - 1
    rows[a][a] = -1
    rows[a][b] = 2
    return IntMatrix.from_rows(rows)


def generator_matrix(sym: Symbol, genus: int, exp: int = 1) -> IntMatrix:
    validate_symbol(sym, genus)
    if isinstance(sym, Twist):
        return twist_matrix(sym.indices, genus, exp)
    if isinstance(sym, Slide):
        # the slide action is an involution on H_1, so only exp mod 2 matters
        if exp % 2 == 0:
            return IntMatrix.identity(genus)
        return slide_matrix(sym.moving, sym.along, genus)
    if isinstance(sym, TorelliTag):
        return IntMatrix.identity(genus)
    if isinstance(sym, BoundaryTwist):
        raise NoHomologyActionError(
            f"{sym.kind} twists live on bounded surfaces and have no action here"
        )
    raise TypeError(f"not a generator symbol: {sym!r}")


def oracle_word_matrix(w: MCGWord) -> IntMatrix:
    """Exact g x g action of a word as the dense product of its letters."""
    m = IntMatrix.identity(w.genus)
    for sym, exp in w.letters:
        m = m * generator_matrix(sym, w.genus, exp)
    return m


def matrix_level_trivial(m: IntMatrix, d: int) -> bool:
    """Does a g x g action fix every class of H_1 with Z/d coefficients?

    Column j must differ from e_j by a constant vector 2l mod d; for odd d
    every constant qualifies (2 is invertible), for even d it must be even.
    """
    if d < 2:
        raise ValueError("level must be >= 2")
    g = m.n
    for j in range(g):
        residues = {(m.rows[i][j] - (1 if i == j else 0)) % d for i in range(g)}
        if len(residues) != 1:
            return False
        c = residues.pop()
        if d % 2 == 0 and c % 2 != 0:
            return False
    return True


def oracle_act(w: MCGWord, x: H1Class) -> H1Class:
    """The image of ``x`` under ``w``: the word's whole matrix times the
    coefficient vector."""
    if w.genus != x.genus:
        raise ValueError(f"genus mismatch: word {w.genus}, class {x.genus}")
    m = word_matrix(w)
    coeffs = tuple(
        sum(m.rows[r][c] * x.coeffs[c] for c in range(w.genus)) for r in range(w.genus)
    )
    return H1Class(w.genus, coeffs)
