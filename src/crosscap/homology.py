"""First homology of the closed non-orientable surface and generator actions.

The genus-g closed non-orientable surface has
``H_1 = <a_1, ..., a_g | 2(a_1 + ... + a_g) = 0>``; classes are integer
coefficient vectors modulo a simultaneous even shift of all coordinates, and
the normal form fixes the last coordinate to 0 or 1.

Word actions are exact g x g integer matrices in the basis a_1..a_g
(columns are images, so the matrix of the written word ``u v`` is
``M(u) * M(v)`` with the rightmost letter applied first).  A product of
words, each taken once or inverted, is evaluated by row operations on
one mutable matrix, last letter first, without forming the product or the
inverses as words (``product_matrix``; a single word is its one-factor
case, ``word_matrix``): a slide costs O(g) and a twist about I costs
O(g |I|) integer operations whatever the exponent, so powers are exact at
any size.  Every evaluator here first checks its factors by the same one
reading pass (``_entry_bits``), left to right, which raises the first
failure it meets.  The image of one class (``act``) needs no matrix: the
letters are applied right to left to its coefficient vector, a slide in
O(1) and a twist about I in O(|I|).  Whether a product acts as the
identity (``acts_trivially``) is decided by that same vector pass on one
packed class x = (1, B, ..., B^(g-1)): the reading pass also bounds the
product's entries, B is a power of two above twice the bound, and M = I
exactly when M x = x, since balanced base-B digits are unique.  It is meant for short products, such as the
relations of the paper: the bound grows with every letter, and so does
the cost of each step of the packed pass.

Collapsing the total class a_1 + ... + a_g to zero gives the
(g-1) x (g-1) reduced action; reducing entries mod 2 gives the action on
mod-2 homology, which preserves the mod-2 intersection pairing.
Level-d membership is read from the exact entries of one action at a
time, in plain Python ints: each column of M - I must be a constant
vector mod d, and an even one for even d.

The basis pairing a_i * a_j = delta_ij is reconstructed, not axiomatic: it
is the unique choice under which even shifts pair to zero and the twist and
slide actions below preserve the form, and the property tests exercise
exactly that.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Optional

from ._frozen import Frozen, set_field
from .intmat import DimensionError, IntMatrix, ModMatrix
from .words import (
    BoundaryTwist,
    GenusMismatchError,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
    validate_symbol,
)


class NoHomologyActionError(ValueError):
    """Raised when a word contains boundary-only letters."""


# ---------------------------------------------------------------------------
# homology classes
# ---------------------------------------------------------------------------


class H1Class(Frozen):
    """Element of H_1, stored as raw coefficients; equality uses normal forms."""

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus: int, coeffs) -> None:
        if genus < 1:
            raise ValueError("genus must be >= 1")
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != genus:
            raise ValueError(f"need {genus} coefficients, got {len(coeffs)}")
        set_field(self, "genus", genus)
        set_field(self, "coeffs", coeffs)

    def normalize(self) -> "H1Class":
        """Representative with last coordinate 0 or 1 (shift by an even integer)."""
        last = self.coeffs[-1]
        shift = last - (last % 2)
        if shift == 0:
            return self
        return H1Class(self.genus, tuple(c - shift for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, H1Class):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.normalize().coeffs == other.normalize().coeffs
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.normalize().coeffs))

    def __add__(self, other: "H1Class") -> "H1Class":
        self._check(other)
        return H1Class(self.genus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "H1Class":
        return H1Class(self.genus, tuple(-c for c in self.coeffs))

    def _check(self, other: "H1Class") -> None:
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} vs {other.genus}")

    def __repr__(self) -> str:
        return f"H1Class(g={self.genus}, {format_h1(self)!r})"

    def __str__(self) -> str:
        return format_h1(self)


def mod2_pairing(x: H1Class, y: H1Class) -> int:
    """Mod-2 intersection number; well defined on the quotient by even shifts."""
    x._check(y)
    return sum(a * b for a, b in zip(x.coeffs, y.coeffs)) % 2


_H1_TERM = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+)?\s*a(?P<idx>\d+)")


def parse_h1(text: str, genus: int) -> H1Class:
    """Parse ``2a1 - a3 + a4`` style combinations."""
    stripped = text.strip()
    if stripped == "0":
        return H1Class(genus, (0,) * genus)
    coeffs = [0] * genus
    pos = 0
    first = True
    while pos < len(stripped):
        m = _H1_TERM.match(stripped, pos)
        if not m:
            raise ValueError(f"bad homology class {text!r} near position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing '+'/'-' between terms in {text!r}")
        coef = int(m.group("coef") or 1) * (-1 if sign == "-" else 1)
        idx = int(m.group("idx"))
        if not 1 <= idx <= genus:
            raise ValueError(f"index a{idx} out of range for genus {genus}")
        coeffs[idx - 1] += coef
        pos = m.end()
        first = False
    return H1Class(genus, coeffs)


def format_h1(x: H1Class) -> str:
    parts = []
    for i, c in enumerate(x.coeffs, start=1):
        if c == 0:
            continue
        mag = abs(c)
        term = f"a{i}" if mag == 1 else f"{mag}a{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# word evaluation
# ---------------------------------------------------------------------------


def _check_letter(sym, genus: int) -> None:
    """Raise for a letter that has no action at ``genus``: an index past
    the genus (:func:`validate_symbol`), a boundary twist or a non-symbol.
    A Torelli tag at its genus passes; it acts trivially."""
    validate_symbol(sym, genus)
    if isinstance(sym, BoundaryTwist):
        raise NoHomologyActionError(
            f"{sym.kind} twists live on bounded surfaces and have no action here"
        )
    if not isinstance(sym, (Slide, Twist, TorelliTag)):
        raise TypeError(f"not a generator symbol: {sym!r}")


def product_matrix(genus: int, factors: Iterable[tuple[MCGWord, int]]) -> IntMatrix:
    """Exact g x g action of the product w_1^s_1 ... w_k^s_k of the
    ``(word, sign)`` pairs in ``factors``, each sign 1 or -1, without
    forming the product (rightmost letter applied first).

    The product of the letter matrices is accumulated from the rightmost
    letter of the last factor to the leftmost of the first, as one mutable
    list of rows; a -1 factor is read as its letters reversed with negated
    exponents.  Multiplying on the left by a letter's matrix only combines
    rows:

    * ``Y(a, b)^e`` with e odd sends a_a -> -a_a and a_b -> a_b + 2 a_a, so
      ``row_a = 2 row_b - row_a``; the slide action is an involution on
      H_1, so an even power does nothing.
    * ``T(I)^e`` acts as I + e u w^T, with u the indicator vector of I and w
      the alternating sign vector (-1 at the 1st, 3rd, ... smallest indices,
      +1 at the rest).  Since w . u = 0 this is exactly the e-th power of
      the single twist, and it adds the one row ``e sum_j w_j row_j`` to
      each row indexed by I.
    * Torelli tags act trivially; boundary twists have no action here.

    The factors are first read left to right by the checking pass of
    :func:`acts_trivially`, which raises the first failure it meets, so
    the row pass needs no checks of its own.
    """
    g = genus
    if g < 1:
        raise DimensionError("dimension must be >= 1")
    factors = tuple(factors)
    _entry_bits(g, factors)
    rows = list(IntMatrix.identity(g).rows)
    for w, sign in reversed(factors):
        for sym, exp in reversed(w.letters) if sign == 1 else w.letters:
            kind = type(sym)
            if kind is Slide:
                if exp % 2:
                    a, b = sym.moving - 1, sym.along - 1
                    rows[a] = [2 * y - x for x, y in zip(rows[a], rows[b])]
            elif kind is Twist:
                idx = sym.indices
                e = sign * exp
                if len(idx) == 2:
                    i, j = idx[0] - 1, idx[1] - 1
                    ri, rj = rows[i], rows[j]
                    r = [e * (y - x) for x, y in zip(ri, rj)]
                    rows[i] = [x + t for x, t in zip(ri, r)]
                    rows[j] = [y + t for y, t in zip(rj, r)]
                else:
                    idx = [j - 1 for j in idx]
                    r = [
                        e * (sum(entries[1::2]) - sum(entries[::2]))
                        for entries in zip(*(rows[j] for j in idx))
                    ]
                    for j in idx:
                        rows[j] = [x + t for x, t in zip(rows[j], r)]
    return IntMatrix(tuple(map(tuple, rows)))


def word_matrix(w: MCGWord) -> IntMatrix:
    """Exact g x g action of a word: :func:`product_matrix` of the one
    factor ``w``."""
    return product_matrix(w.genus, ((w, 1),))


def act(w: MCGWord, x: H1Class) -> H1Class:
    """The image of ``x`` under ``w``, applied letter by letter to its one
    coefficient vector, rightmost letter first, with no matrix.

    ``Y(a, b)^e`` with e odd sets x_a to 2 x_b - x_a; ``T(I)^e`` adds
    e (w . x) to x_j for each j in I, with w the alternating sign vector of
    :func:`product_matrix`; Torelli tags change nothing.  The letters are
    first read by the checking pass of :func:`product_matrix` and
    :func:`acts_trivially`, so the leftmost letter without an action
    raises, as it does there.
    """
    g = w.genus
    if g != x.genus:
        raise ValueError(f"genus mismatch: word {g}, class {x.genus}")
    _entry_bits(g, ((w, 1),))
    return H1Class(g, _apply(((w, 1),), list(x.coeffs)))


def acts_trivially(genus: int, factors: Iterable[tuple[MCGWord, int]]) -> bool:
    """Does the product w_1^s_1 ... w_k^s_k of the ``(word, sign)`` pairs
    in ``factors`` act as the identity on H_1?  Decided without a matrix,
    and exactly.

    The factors are read once in reading order by the checking pass that
    :func:`product_matrix` also runs, which raises the first failure it
    meets, and the product M's entries are bounded on the way: a slide at
    most triples them and ``T(I)^e`` multiplies them by at most
    1 + |e| |I|, so every entry of M - I is at most 2^b + 1 in absolute
    value.  The letters are then applied, rightmost first, to the one
    class x = (1, B, ..., B^(g-1)) with B = 2^(b+2), at least twice that
    bound.  Row r of (M - I) x is sum_c (M - I)_rc B^c, and balanced
    base-B digits are unique, so M = I exactly when M x = x (Kronecker
    substitution).  The class has g (b + 2) bits and b grows
    with every letter, so this is for short products; a long one is
    cheaper as ``product_matrix(...).is_identity()``.
    """
    g = genus
    if g < 1:
        raise DimensionError("dimension must be >= 1")
    factors = tuple(factors)
    width = _entry_bits(g, factors) + 2
    x = [1 << (width * c) for c in range(g)]
    return _apply(factors, x[:]) == x


def _entry_bits(genus: int, factors: tuple) -> int:
    """Read ``factors`` left to right, raise the first failure met, and
    return b with every entry of the product at most 2^b in absolute
    value.  A factor of another genus raises :class:`GenusMismatchError`,
    a sign other than 1 or -1 ``ValueError``, a letter without an action
    what :func:`_check_letter` raises, and a factor that is not a
    ``(word, sign)`` pair the Python error its reading meets."""
    g = genus
    bits = 0
    for w, sign in factors:
        if w.genus != g:
            raise GenusMismatchError(f"factor of genus {w.genus} in a product of genus {g}")
        if sign != 1 and sign != -1:
            raise ValueError(f"factor sign must be 1 or -1, got {sign!r}")
        for sym, exp in w.letters if sign == 1 else reversed(w.letters):
            kind = type(sym)
            if kind is Slide and sym.moving <= g and sym.along <= g:
                if exp % 2:
                    bits += 2
            elif kind is Twist and sym.indices[-1] <= g:
                # 1 + |e| |I| <= 2^bit_length(|e| |I|)
                bits += (exp * len(sym.indices)).bit_length()
            else:
                _check_letter(sym, g)
    return bits


def _apply(factors: tuple, v: list) -> list:
    """The checked ``factors``' product applied to the coefficient vector
    ``v`` in place, rightmost letter first: a slide in O(1), a twist about
    I in O(|I|) additions."""
    for w, sign in reversed(factors):
        for sym, exp in reversed(w.letters) if sign == 1 else w.letters:
            kind = type(sym)
            if kind is Slide:
                if exp % 2:
                    a = sym.moving - 1
                    v[a] = 2 * v[sym.along - 1] - v[a]
            elif kind is Twist:
                idx = sym.indices
                if len(idx) == 2:
                    i, j = idx[0] - 1, idx[1] - 1
                    step = sign * exp * (v[j] - v[i])
                    v[i] += step
                    v[j] += step
                else:
                    step = sum(v[j - 1] if pos % 2 else -v[j - 1] for pos, j in enumerate(idx))
                    step *= sign * exp
                    for j in idx:
                        v[j - 1] += step
    return v


def collapse_total_class(m: IntMatrix) -> IntMatrix:
    """Quotient action on H_1 / <a_1 + ... + a_g>, a (g-1) x (g-1) matrix."""
    g = m.n
    if g < 2:
        raise ValueError("need genus >= 2 to collapse")
    # map stops at the end of ``last``, so the last column is dropped
    last = m.rows[-1][:-1]
    return IntMatrix(tuple(tuple(map(operator.sub, row, last)) for row in m.rows[:-1]))


def reduced_action(w: MCGWord) -> IntMatrix:
    """The GL(g-1, Z)-valued action (multiplicative in the word)."""
    if w.genus < 2:
        raise ValueError("reduced action needs genus >= 2")
    return collapse_total_class(word_matrix(w))


def mod2_action(w: MCGWord) -> ModMatrix:
    """Action on mod-2 homology; always orthogonal for the mod-2 pairing."""
    return word_matrix(w).reduce_mod(2)


def matrix_level_trivial(m: IntMatrix, d: int) -> bool:
    """Does a g x g action fix every class of H_1 with Z/d coefficients?

    Column j must differ from e_j by a constant vector 2l mod d; for odd d
    every constant qualifies (2 is invertible), for even d it must be even.
    Entries are exact integers of any size or residues, reduced mod d here;
    an entry equal to the identity's needs no reduction, only a zero
    constant in its column.
    """
    if d < 2:
        raise ValueError("level must be >= 2")
    first = [(e - (c == 0)) % d for c, e in enumerate(m.rows[0])]
    if d % 2 == 0 and any(e % 2 for e in first):
        return False
    # row 0 matches ``first`` by construction
    for r, row in enumerate(m.rows[1:], 1):
        for c, e in enumerate(row):
            if e == (r == c):
                if first[c]:
                    return False
            elif (e - (r == c)) % d != first[c]:
                return False
    return True


def level_member(w: MCGWord, d: int) -> bool:
    """Membership in the level-d subgroup (trivial action on H_1(.; Z/d))."""
    return matrix_level_trivial(word_matrix(w), d)


# ---------------------------------------------------------------------------
# lifting obstruction
# ---------------------------------------------------------------------------


class LiftSearch(Frozen):
    """Outcome of the lift search for a reduced-action target."""

    __slots__ = ("obstructed", "witness", "candidates_checked")

    def __init__(
        self, obstructed: bool, witness: Optional[IntMatrix], candidates_checked: int
    ) -> None:
        set_field(self, "obstructed", obstructed)
        set_field(self, "witness", witness)
        set_field(self, "candidates_checked", candidates_checked)


def lift_obstruction(target: IntMatrix, genus: int) -> LiftSearch:
    """Find a lift of a (g-1) x (g-1) target that preserves the mod-2
    pairing on basis classes, or report the obstruction.

    A lift sends a_j to the target's column c_j (last coordinate 0, and
    c_g = -(c_1 + ... + c_{g-1})) plus e_j times the total class t, for
    some e in F_2^g.  Mod 2, with s_j = c_j . c_j = c_j . t, the pairing
    conditions on e are linear.  For odd g (t . t = 1) the diagonal forces
    e_j = 1 + s_j.  For even g (t . t = 0) every s_j must be 1, and then
    e_a + e_b = c_a . c_b, so e_1 = 0 gives e_b = c_1 . c_b; the other
    solution is its complement, and fails when it does.  The candidate is
    checked on every pair of columns.  ``candidates_checked`` counts as
    the search of all 2^g lifts in order would, e_1 most significant:
    1 + e read in binary when a lift exists, 2^g when none does.  The
    witness's columns are in normal form.
    """
    if genus < 3:
        raise ValueError("lift search needs genus >= 3")
    if target.n != genus - 1:
        raise ValueError(f"target must be {genus - 1} x {genus - 1}")
    g = genus
    cols = [[row[j] for row in target.rows] + [0] for j in range(g - 1)]
    cols.append([-sum(entries) for entries in zip(*cols)])
    # each column mod 2 as a bit mask; t is the all-ones mask
    masks = [int("".join(["1" if c & 1 else "0" for c in col]), 2) for col in cols]
    parity = [m.bit_count() & 1 for m in masks]
    if g % 2:
        eps = [1 - s for s in parity]
    elif all(parity):
        eps = [0] + [(masks[0] & m).bit_count() & 1 for m in masks[1:]]
    else:
        return LiftSearch(True, None, 2**g)
    t = (1 << g) - 1
    lifted = [m ^ (t if e else 0) for m, e in zip(masks, eps)]
    for a in range(g):
        for b in range(a, g):
            if (lifted[a] & lifted[b]).bit_count() & 1 != (a == b):
                return LiftSearch(True, None, 2**g)
    normalized = []
    for col, e in zip(cols, eps):
        col = [c + e for c in col]
        shift = col[-1] - (col[-1] % 2)
        normalized.append([c - shift for c in col])
    witness = IntMatrix.from_rows([[normalized[j][i] for j in range(g)] for i in range(g)])
    return LiftSearch(False, witness, 1 + int("".join(map(str, eps)), 2))
