"""Reference evaluation of words on H_1 by dense matrix products.

Each letter becomes its own g x g generator matrix and the word's action is
their product, rightmost letter applied first.  This is the slow, obviously
correct definition that ``crosscap.homology.word_matrix`` must reproduce.
``oracle_act`` is the image of a class as ``word_matrix`` times its
coefficient vector, which the matrix-free ``crosscap.homology.act`` must
reproduce, errors included.

``column_product_matrix`` is ``product_matrix`` as it was before it moved
to row operations: the letter matrices multiplied on the right, first
factor first, as column updates on one mutable matrix, each letter checked
as it is read.  The row form must give the same matrix and raise the same
first error.

``lift_search`` tries the 2^g lifts of a reduced-action target one by one,
which ``crosscap.homology.lift_obstruction`` must match, counts and
witness included.
"""

import itertools
from typing import Iterable

from crosscap.homology import (
    H1Class,
    LiftSearch,
    NoHomologyActionError,
    _check_letter,
    word_matrix,
)
from crosscap.intmat import DimensionError, IntMatrix
from crosscap.words import (
    BoundaryTwist,
    GenusMismatchError,
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


def column_product_matrix(genus: int, factors: Iterable[tuple[MCGWord, int]]) -> IntMatrix:
    """Exact g x g action of w_1^s_1 ... w_k^s_k, accumulated left to right
    by column updates: ``Y(a, b)^odd`` adds 2 col_a to col_b and negates
    col_a, and ``T(I)^e`` adds e w_j mu to each col_j, mu the sum of the
    columns indexed by I."""
    g = genus
    if g < 1:
        raise DimensionError("dimension must be >= 1")
    cols = [[0] * j + [1] + [0] * (g - 1 - j) for j in range(g)]
    for w, sign in factors:
        if w.genus != g:
            raise GenusMismatchError(f"factor of genus {w.genus} in a product of genus {g}")
        if sign == 1:
            letters = w.letters
        elif sign == -1:
            letters = reversed(w.letters)
        else:
            raise ValueError(f"factor sign must be 1 or -1, got {sign!r}")
        for sym, exp in letters:
            if isinstance(sym, Slide):
                a, b = sym.moving, sym.along
                if a > g or b > g:
                    _check_letter(sym, g)
                if exp % 2:
                    ca = cols[a - 1]
                    cols[b - 1] = [cb + 2 * c for cb, c in zip(cols[b - 1], ca)]
                    cols[a - 1] = [-c for c in ca]
            elif isinstance(sym, Twist):
                idx = sym.indices
                if idx[-1] > g:
                    _check_letter(sym, g)
                e = sign * exp
                if len(idx) == 2:
                    i, j = idx[0] - 1, idx[1] - 1
                    ci, cj = cols[i], cols[j]
                    mu = [e * (x + y) for x, y in zip(ci, cj)]
                    cols[i] = [x - m for x, m in zip(ci, mu)]
                    cols[j] = [y + m for y, m in zip(cj, mu)]
                else:
                    idx = [j - 1 for j in idx]
                    mu = [e * sum(entries) for entries in zip(*(cols[j] for j in idx))]
                    for pos, j in enumerate(idx):
                        if pos % 2:
                            cols[j] = [c + m for c, m in zip(cols[j], mu)]
                        else:
                            cols[j] = [c - m for c, m in zip(cols[j], mu)]
            else:
                _check_letter(sym, g)
    return IntMatrix(tuple(zip(*cols)))


def lift_search(target: IntMatrix, genus: int) -> LiftSearch:
    """Search the 2^g lifts of a (g-1) x (g-1) target for one preserving
    the mod-2 pairing on basis classes.

    Each lift sends a_j to the target column optionally plus the total class
    a_1 + ... + a_g.  Returns the first preserving lift, columns in normal
    form, or reports the obstruction.  This is ``lift_obstruction`` as it
    was before it solved for the lift over F_2.
    """
    if genus < 3:
        raise ValueError("lift search needs genus >= 3")
    if target.n != genus - 1:
        raise ValueError(f"target must be {genus - 1} x {genus - 1}")
    g = genus
    base_cols = []
    for j in range(g - 1):
        base_cols.append([target.rows[i][j] for i in range(g - 1)] + [0])
    last = [-sum(col[i] for col in base_cols) for i in range(g)]
    base_cols.append(last)

    checked = 0
    for eps in itertools.product((0, 1), repeat=g):
        checked += 1
        cols = [[base_cols[j][i] + eps[j] for i in range(g)] for j in range(g)]
        ok = True
        for a in range(g):
            for b in range(a, g):
                pair = sum(cols[a][i] * cols[b][i] for i in range(g)) % 2
                if pair != (1 if a == b else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            normalized = []
            for col in cols:
                shift = col[-1] - (col[-1] % 2)
                normalized.append([c - shift for c in col])
            witness = IntMatrix.from_rows(
                [[normalized[j][i] for j in range(g)] for i in range(g)]
            )
            return LiftSearch(False, witness, checked)
    return LiftSearch(True, None, checked)
