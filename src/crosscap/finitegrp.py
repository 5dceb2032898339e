"""Finite-quotient machinery: matrix-group closures, level-layer subspaces,
Schreier generators, and Todd-Coxeter coset enumeration.

Every closure and layer function takes exact ``IntMatrix`` generators,
and takes the residues it needs itself: no caller reduces a matrix first,
so no caller can pair a reduction with the wrong level.  One encoding serves
every matrix group here: a matrix over F_2 is keyed by the Python int whose
bit r*n + c is entry (r, c) mod 2, so row r is the n-bit field at r*n.
One product serves every matrix group too: ``_product`` multiplies keys
by G on the right through the row terms of G - I, or on the left through
its column terms (``_terms``), one shift, mask and multiply per term.
``bfs_closure`` and ``normal_closure`` hold the group that the generators
mod 2 generate as the set of its element keys.  They drive one
closure engine, ``_Closure``, which grows a group in place as generators
arrive instead of restarting, coset by coset (Dimino's algorithm; Holt-Eick-
O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).  Caps are
explicit and hitting one raises ``ScaleGuardError``, the one exception that
marks a computation stopped by a guard or cap, so callers report
"inconclusive" instead of silently truncating.

For even d the layer Gamma_d / Gamma_2d of matrices congruent to I mod d,
taken mod 2d, is elementary abelian, so ``layer_closure`` and
``layer_normal_closure`` decide the subgroups that exact generators
I + dX generate there as F_2 subspaces of n x n matrices (a
``LevelLayer``) without listing any element: the order is 2^dim, and equal
subgroups have equal reduced echelon bases.  The vector X
of I + dX is keyed as a matrix is, and both normal closures run one
round loop, ``_close_normally``, on either store: it adds the seeds, then
the conjugates of what the last round added, until a round adds nothing.
Its one conjugation step applies the row terms of A^-1 and then the
column terms of A to the whole key.  A span grows in semi-echelon form,
each row keyed by its top bit, and is brought to reduced echelon form
once, when its layer is read.  ``layer_span`` is the subgroup that given
vectors span, and ``vector_coordinates`` writes vectors in a basis of
given vectors, so a transversal of products of that basis is walked by
XOR on coordinate masks instead of by a table of matrix products.  Every
generator is checked to lie in the layer; one that does not raises
``LayerError``, and nothing falls back to enumeration.

``schreier_generators`` is generic over words: it keys every product
y x^+-1 through a quotient callback and builds every output word.

``_CosetRows`` is a partial coset table of integer rows with a union-find
of coincident cosets; ``todd_coxeter`` enumerates on it, and
``crosscap.pi1free`` folds Stallings graphs on it.
``eliminate_generators`` shrinks a presentation by Tietze moves before an
enumeration.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from ._frozen import Frozen, set_field
from .intmat import IntMatrix, NotUnimodularError


class ScaleGuardError(ValueError):
    """A scale guard or size cap was hit; the computation is inconclusive."""


def check_budget(name: str, limit: int, count: int, work: str) -> None:
    """Raise ``ScaleGuardError`` "WORK, over NAME = LIMIT" when ``count`` is past ``limit``; a
    count too large to form is passed capped at the limit's bit length."""
    if count > limit:
        raise ScaleGuardError(f"{work}, over {name} = {limit}")


# the most elements a matrix-group closure lists before it stops
CLOSURE_CAP = 1 << 22
# the most cosets a Todd-Coxeter enumeration defines before it stops
COSET_CAP = 100_000


class SectionError(ValueError):
    """A transversal failed to be a section of its quotient map."""


def _check_gens(gens: Sequence[IntMatrix]) -> int:
    """The dimension of the generators, which must be exact: a reduced copy
    would be read as if its residues were the entries."""
    if not gens:
        raise ValueError("need at least one generator")
    for m in gens:
        if not isinstance(m, IntMatrix):
            raise TypeError(f"generators must be exact IntMatrix values, got {type(m).__name__}")
        if m.n != gens[0].n:
            raise ValueError("generators have different dimensions")
    return gens[0].n


def _key(m: IntMatrix) -> int:
    """The key of a matrix mod 2: bit r*n + c is entry (r, c) mod 2."""
    n = m.n
    return sum(1 << r * n + c for r, row in enumerate(m.rows) for c, x in enumerate(row) if x & 1)


def _ones(v: int) -> list[int]:
    """The positions of the set bits of ``v``, lowest first."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def _spaced(n: int, step: int) -> int:
    """n ones, ``step`` bits apart: column 0 of ones, the bits r*n, for
    step n, and the key of I for step n + 1."""
    return ((1 << n * step) - 1) // ((1 << step) - 1)


def _terms(key: int, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The row and the column terms of D = G - I over F_2, G the matrix of
    ``key``: (k, row k of D) for each nonzero row, and (k*n, column k of D
    held as the bits r*n of its ones) for each nonzero column."""
    d, row0, col0 = key ^ _spaced(n, n + 1), (1 << n) - 1, _spaced(n, n)
    rows = [(k, row) for k in range(n) if (row := d >> k * n & row0)]
    columns = [(k * n, column) for k in range(n) if (column := d >> k & col0)]
    return rows, columns


def _product(xs: Sequence[int], terms: Sequence[tuple[int, int]], mask: int) -> list[int]:
    """The keys x G of the keys x, for the row terms of G and ``mask`` =
    col0, or G x, for its column terms and ``mask`` = row0 (n ones):

        x G = x + sum over the row terms of (x >> k & col0) * row k,
        G x = x + sum over the column terms of (x >> k*n & row0) * column k.

    ``x >> k & col0`` has bit r*n where row r of x has a one in column k,
    and the multiply lays row k in each such n-bit field; ``x >> k*n & row0``
    is row k of x, laid in field r wherever column k has a one in row r.
    The fields are disjoint, so no multiply carries."""
    out = []
    for x in xs:
        y = x
        for shift, spread in terms:
            y ^= (x >> shift & mask) * spread
        out.append(y)
    return out


def _inverse(key: int, n: int) -> int:
    """The key of the inverse over F_2 of the matrix that ``key`` encodes,
    by Gauss-Jordan elimination on its rows beside those of I."""
    rows = [key >> r * n & (1 << n) - 1 | 1 << (n + r) for r in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r] >> c & 1), None)
        if pivot is None:
            raise NotUnimodularError("the matrix is not invertible mod 2")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r] >> c & 1:
                rows[r] ^= rows[c]
    return sum(row >> n << r * n for r, row in enumerate(rows))


class FiniteMatrixGroup(Frozen):
    """An explicitly enumerated subgroup of the n x n matrices over F_2,
    held as the keys of its elements; equal exactly when the groups are."""

    __slots__ = ("dim", "keys")

    def __init__(self, dim: int, keys: frozenset[int]) -> None:
        set_field(self, "dim", dim)
        set_field(self, "keys", keys)

    @property
    def order(self) -> int:
        return len(self.keys)

    def __contains__(self, m: IntMatrix) -> bool:
        return _key(m) in self.keys


class _Closure:
    """The subgroup of the n x n matrices over F_2 generated by the
    generators added so far, held as element keys and grown in place as
    generators are added.

    The keys of the group H before a generator s joins are listed first;
    Dimino's algorithm then lists <H, s> as right cosets of H, each a block
    of |H| keys whose first key is its representative.  Block by block, and
    for every kept generator t, a representative x with x t outside the keys
    so far gives the new coset H x t, which is the block of x times t.  When
    no block gives one, the keys are closed under right multiplication by
    every generator, so they are the group.  A block times t is a
    ``_product`` over the row terms of t.
    """

    def __init__(self, n: int, cap: int) -> None:
        self.n, self.cap = n, cap
        self.terms: list[list[tuple[int, int]]] = []
        self.keys = [_spaced(n, n + 1)]
        self.members = set(self.keys)

    def add(self, gens: Iterable[int]) -> list[int]:
        """Add the generator keys in turn, skipping each one the group
        already contains; returns those kept."""
        kept = []
        for key in gens:
            if key in self.members:
                continue
            kept.append(key)
            self.terms.append(_terms(key, self.n)[0])
            self._cosets()
        return kept

    def freeze(self) -> FiniteMatrixGroup:
        """The group as a ``FiniteMatrixGroup``, ending the closure: the
        member set goes before the frozen set is built, so that two sets of
        every key are never held at once."""
        self.members.clear()
        return FiniteMatrixGroup(self.n, frozenset(self.keys))

    def _cosets(self) -> None:
        keys, members = self.keys, self.members
        col0 = _spaced(self.n, self.n)
        size, start = len(keys), 0
        while start < len(keys):
            block = keys[start : start + size]
            start += size
            for terms in self.terms:
                # the block's first key is its representative
                if _product(block[:1], terms, col0)[0] in members:
                    continue
                coset = _product(block, terms, col0)
                members.update(coset)
                keys.extend(coset)
                if len(keys) > self.cap:
                    raise ScaleGuardError(f"closure exceeded cap of {self.cap} elements")


def _conjugation(ambient_gens: Sequence[IntMatrix], n: int) -> Callable[[Sequence[int]], list[int]]:
    """The map sending a list of keys of matrices X over F_2 to the keys of
    every A X A^-1, for A running over the distinct ambient generators mod 2
    (A-major) but I: an A that is I mod 2, such as a slide, fixes every X.

    A X A^-1 = A (X A^-1): ``_product`` applies the row terms of A^-1 and
    then the column terms of A.  Most conjugating letters have two terms of
    each kind; T(g-1,g) has n - 1 row terms and one column term.

    Only A, never A^-1, is needed by the normal closures: an invertible map
    that sends a finite set into itself sends it onto itself, so a finite
    group or span stable under X -> A X A^-1 is stable under its inverse.
    """
    identity, col0, row0 = _spaced(n, n + 1), _spaced(n, n), (1 << n) - 1
    actions = [
        (_terms(_inverse(key, n), n)[0], _terms(key, n)[1])
        for key in dict.fromkeys(map(_key, ambient_gens))
        if key != identity
    ]

    def conjugate(xs: Sequence[int]) -> list[int]:
        out: list[int] = []
        for inverse_rows, columns in actions:
            out += _product(_product(xs, inverse_rows, col0), columns, row0)
        return out

    return conjugate


def _close_normally(store, ambient_gens: Sequence[IntMatrix], seeds: Iterable[int], n: int):
    """The one normal-closure loop, on a ``_Closure`` or a ``_Span``: add
    the seed keys to ``store``, then in each round the conjugates by every
    ambient generator of the keys the last round added (``store.add``
    returns those), until a round adds none.  Then the conjugates of every
    key added lie in the store, so it is normal; it is returned."""
    conjugate = _conjugation(ambient_gens, n)
    added = store.add(seeds)
    while added:
        added = store.add(conjugate(added))
    return store


def bfs_closure(gens: Sequence[IntMatrix], cap: int = CLOSURE_CAP) -> FiniteMatrixGroup:
    """The subgroup of the matrices over F_2 that ``gens`` mod 2 generate,
    as an explicit element set."""
    n = _check_gens(gens)
    group = _Closure(n, cap)
    group.add(map(_key, gens))
    return group.freeze()


def normal_closure(
    ambient_gens: Sequence[IntMatrix],
    normal_gens: Sequence[IntMatrix],
    cap: int = CLOSURE_CAP,
) -> FiniteMatrixGroup:
    """Smallest subgroup of the matrices over F_2 containing ``normal_gens``
    mod 2 and closed under conjugation by the group the ambient generators
    produce mod 2, grown by ``_close_normally`` on a ``_Closure``, which
    skips a conjugate already inside."""
    n = _check_gens(list(ambient_gens) + list(normal_gens))
    return _close_normally(_Closure(n, cap), ambient_gens, map(_key, normal_gens), n).freeze()


# ---------------------------------------------------------------------------
# The level layer Gamma_d / Gamma_2d for even d, as F_2 subspaces
# ---------------------------------------------------------------------------


class LayerError(ValueError):
    """A generator given for the level-d layer is not congruent to I mod d;
    ``index`` is its position in the list it was given in."""

    def __init__(self, index: int, problem: str, name: str | None = None) -> None:
        super().__init__(f"{name or f'generator {index}'} {problem}")
        self.index, self.problem = index, problem


class LevelLayer(Frozen):
    """A subgroup of the matrices M = I + dX (mod 2d), d even, held as the
    F_2 span of the X = (M - I)/d mod 2.

    Bit r*n + c of a vector is entry (r, c) of X.  The basis is in reduced
    echelon form, each vector's highest bit being its pivot and set in no
    other vector, sorted by pivot from the top, so equal subgroups have equal
    bases.
    """

    __slots__ = ("modulus", "dim", "basis")

    def __init__(self, modulus: int, dim: int, basis: tuple[int, ...]) -> None:
        set_field(self, "modulus", modulus)
        set_field(self, "dim", dim)
        set_field(self, "basis", basis)

    @property
    def order(self) -> int:
        return 1 << len(self.basis)


def identity_offsets(gens: Sequence[IntMatrix], d: int) -> list[int]:
    """The vector of X = (M - I)/d mod 2 for each exact generator M, once
    each is congruent to I mod d, bit r*n + c being entry (r, c) of X.
    Raises :class:`LayerError` for the first that is not."""
    n = _check_gens(gens)
    vectors = []
    for index, m in enumerate(gens):
        x = 0
        for r, row in enumerate(m.rows):
            for c, e in enumerate(row):
                if e != (r == c):
                    q, rest = divmod(e - (r == c), d)
                    if rest:
                        raise LayerError(index, f"is not congruent to I mod {d}")
                    x |= (q & 1) << (r * n + c)
        vectors.append(x)
    return vectors


def _layer_vectors(gens: Sequence[IntMatrix], d: int) -> list[int]:
    """The vector X of each exact generator M = I + dX, read mod 2.  Raises
    :class:`LayerError` for the first generator that is not congruent to
    I mod d; never falls back to enumeration."""
    if d < 2 or d % 2:
        raise ValueError(f"the level layer needs an even level, got d = {d}")
    return identity_offsets(gens, d) if gens else []


class _Span:
    """An F_2 subspace of bit vectors in semi-echelon form, grown in place:
    ``rows`` maps each pivot to the one basis vector whose top bit it is.
    A row may still have lower pivot bits set; ``layer`` clears them."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        """``v`` plus the row at its top bit, in turn, until that bit is not
        a pivot; zero exactly when ``v`` lies in the span, since the top bit
        of a sum of rows is the highest of their pivots."""
        rows = self.rows
        while v:
            row = rows.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row
        return v

    def add(self, vectors: Iterable[int]) -> list[int]:
        """Add the vectors in turn; returns, reduced, those that were not
        already in the span."""
        added = []
        for v in vectors:
            v = self.reduce(v)
            if v:
                self.rows[v.bit_length() - 1] = v
                added.append(v)
        return added

    def layer(self, d: int, n: int) -> LevelLayer:
        """The span with its basis in reduced echelon form, by one
        back-substitution, lowest pivot first: each row below is reduced by
        then, so adding it clears its pivot and sets no other."""
        reduced: dict[int, int] = {}
        below = 0
        for pivot in sorted(self.rows):
            row = self.rows[pivot]
            for p in _ones(row & below):
                row ^= reduced[p]
            reduced[pivot] = row
            below |= 1 << pivot
        return LevelLayer(2 * d, n, tuple(reduced[p] for p in sorted(reduced, reverse=True)))


def layer_closure(gens: Sequence[IntMatrix], d: int) -> LevelLayer:
    """The subgroup of Gamma_d / Gamma_2d (d even) that ``gens`` generate.

    Since d^2 = 0 mod 2d, (I + dX)(I + dY) = I + d(X + Y) mod 2d, so the
    layer is elementary abelian (Lee-Szczarba 1976) and a generated subgroup
    is the F_2 span of the generators' vectors.
    """
    return layer_span(_layer_vectors(gens, d), d, _check_gens(gens))


def layer_span(vectors: Iterable[int], d: int, n: int) -> LevelLayer:
    """The subgroup of Gamma_d / Gamma_2d (d even) of n x n matrices that
    the layer vectors ``vectors`` span."""
    span = _Span()
    span.add(vectors)
    return span.layer(d, n)


def layer_normal_closure(
    ambient_gens: Sequence[IntMatrix], normal_gens: Sequence[IntMatrix], d: int
) -> LevelLayer:
    """Smallest subgroup of Gamma_d / Gamma_2d (d even) that contains
    ``normal_gens`` and is closed under conjugation by the ambient group.

    A(I + dX)A^-1 = I + d A X A^-1, so conjugation by A acts on the vectors
    as the invertible linear map X -> A X A^-1 over F_2, and
    ``_close_normally`` grows the span on a ``_Span``.  The even-level
    refusal comes before any closure work.
    """
    vectors = _layer_vectors(normal_gens, d)
    n = _check_gens(list(ambient_gens) + list(normal_gens))
    return _close_normally(_Span(), ambient_gens, vectors, n).layer(d, n)


def vector_coordinates(vectors: Sequence[int], k: int) -> list[int] | None:
    """The coordinates of each of the layer vectors ``vectors[k:]`` in the
    first ``k``, as masks: bit t is set when vector t is in the sum.  Since
    the layer is elementary abelian, a product has the XOR of its factors'
    masks.

    Returns None when the first ``k`` are dependent.  One outside their
    span raises :class:`LayerError` at its index in ``vectors``."""
    # basis vector t carries bit t below its matrix bits, so a reduced vector
    # keeps in its low k bits the mask of the basis elements added to it
    span = _Span()
    span.add(v << k | 1 << t for t, v in enumerate(vectors[:k]))
    if min(span.rows, default=k) < k:
        return None  # a dependent basis vector reduced to its mask alone
    coords = []
    for index, v in enumerate(vectors[k:], k):
        v = span.reduce(v << k)
        if v >> k:
            raise LayerError(index, "is outside the span of the basis")
        coords.append(v)
    return coords


# ---------------------------------------------------------------------------
# Schreier generators over a finite quotient
# ---------------------------------------------------------------------------

W = TypeVar("W")


def schreier_generators(
    quotient: Callable[[W], Hashable],
    transversal: Callable[[Hashable], W],
    gens: Sequence[W],
    identity: W,
) -> Iterator[W]:
    """Schreier generators ``y x^{+-1} (bar(y x^{+-1}))^{-1}`` of the kernel
    of ``quotient``, for ``y`` running over the transversal image.

    The coset keys are discovered breadth-first from the identity, so the
    stream is deterministic; outputs that already equal their own coset
    representative (as reduced words) are skipped, matching the usual
    convention.  Works for any word type with ``*``, ``inverse`` and ``==``.

    Raises :class:`SectionError` when ``transversal`` is not a section
    (``quotient(transversal(key)) != key``).
    """
    start = quotient(identity)
    rep0 = transversal(start)
    if quotient(rep0) != start:
        raise SectionError(f"transversal of {start!r} maps to {quotient(rep0)!r}")
    seen = {start}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        y = transversal(key)
        if quotient(y) != key:
            raise SectionError(f"transversal of {key!r} maps to {quotient(y)!r}")
        for x in gens:
            for signed in (x, x.inverse()):
                w = y * signed
                k2 = quotient(w)
                if k2 not in seen:
                    seen.add(k2)
                    queue.append(k2)
                rep = transversal(k2)
                if rep == w:
                    continue
                yield w * rep.inverse()


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------


class CosetTable(Frozen):
    """Completed coset table for the trivial subgroup of a finite presentation."""

    __slots__ = ("rank", "coset_count", "table")

    def __init__(self, rank: int, coset_count: int, table: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "rank", rank)
        set_field(self, "coset_count", coset_count)
        # rows indexed by coset; 2*rank columns
        set_field(self, "table", table)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "cosets": self.coset_count,
            "table": [list(row) for row in self.table],
        }


def _column(letter: int, rank: int) -> int:
    if letter == 0 or abs(letter) > rank:
        raise ValueError(f"letter {letter} outside alphabet of rank {rank}")
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


class _CosetRows:
    """A partial coset table, the one table behind :func:`todd_coxeter`,
    Stallings folding and the kernel graph of ``crosscap.pi1free``.

    ``rows[c][col]`` is the coset that column ``col`` leads to from coset c,
    or None; column 2t is letter t forwards and 2t + 1 backwards, as in
    :func:`_column`.  Entries come in inverse pairs: ``rows[c][col] == e``
    exactly when ``rows[e][col ^ 1] == c``.  Coincident cosets are joined in
    a union-find ``parent`` that keeps the smaller id, so coset 0 stays
    live.  Once a coincidence has been processed, live rows point only at
    live rows, so scans read entries without resolving them.
    """

    def __init__(self, ncols: int, cap: float = math.inf) -> None:
        self.ncols, self.cap = ncols, cap
        self.rows: list[list[int | None]] = [[None] * ncols]
        self.parent = [0]
        self.changes = 0  # bumped by every definition and every merge

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(self, alpha: int, col: int) -> int:
        """A new coset beta with alpha --col--> beta."""
        rows = self.rows
        if len(rows) >= self.cap:
            raise ScaleGuardError(f"coset table exceeded cap of {self.cap}")
        beta = len(rows)
        rows.append([None] * self.ncols)
        self.parent.append(beta)
        rows[alpha][col] = beta
        rows[beta][col ^ 1] = alpha
        self.changes += 1
        return beta

    def coincidence(self, a: int, b: int) -> None:
        """Identify cosets a and b and every pair of cosets this forces.

        A FIFO queue holds the pairs still owed.  Merging b into the smaller
        a reads each filled entry of b's row once and moves it to a; where a
        already has that entry, or its target already has the inverse
        entry, the pair this forces is queued instead.  A coset is resolved
        through the union-find only when it is dead."""
        rows, parent, rep = self.rows, self.parent, self.rep
        queue = deque([(a, b)])
        while queue:
            a, b = queue.popleft()
            if parent[a] != a:
                a = rep(a)
            if parent[b] != b:
                b = rep(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            self.changes += 1
            row_a, row_b = rows[a], rows[b]
            for col, delta in enumerate(row_b):
                if delta is None:
                    continue
                row_b[col] = None
                if parent[delta] != delta:
                    delta = rep(delta)
                row_delta, inverse = rows[delta], col ^ 1
                if row_delta[inverse] == b:
                    row_delta[inverse] = None
                existing = row_a[col]
                if existing is not None:
                    queue.append((existing, delta))
                else:
                    back = row_delta[inverse]
                    if back is not None:
                        queue.append((back, a))
                    else:
                        row_a[col] = delta
                        row_delta[inverse] = a

    def scan_and_fill(self, alpha: int, rel: Sequence[int]) -> None:
        """Close the columns ``rel`` into a loop at the live coset alpha (HLT):
        read forwards from its start and backwards from its end, define a
        coset while two or more letters are unread, deduce the entry of a
        single unread letter, and identify the two ends when the readings
        meet at different cosets."""
        rows = self.rows
        f = b = alpha
        i, j = 0, len(rel) - 1
        while True:
            while i <= j and (nxt := rows[f][rel[i]]) is not None:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (nxt := rows[b][rel[j] ^ 1]) is not None:
                b = nxt
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                rows[f][rel[i]] = b
                rows[b][rel[i] ^ 1] = f
                return
            f = self.define(f, rel[i])
            i += 1

    def path(self, alpha: int, cols: Sequence[int]) -> int:
        """The coset the columns ``cols`` lead to from the live coset alpha,
        defining a coset at each missing entry on the way."""
        rows = self.rows
        for col in cols:
            nxt = rows[alpha][col]
            alpha = self.define(alpha, col) if nxt is None else nxt
        return alpha


def _cyclically_reduced(rel: Iterable[int]) -> list[int]:
    """A signed-letter relator freely and then cyclically reduced."""
    out: list[int] = []
    for letter in rel:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    start, stop = 0, len(out)
    while stop - start > 1 and out[start] == -out[stop - 1]:
        start, stop = start + 1, stop - 1
    return out[start:stop]


def _elimination(rel: Sequence[int]) -> tuple[int, list[int]] | None:
    """The generator y that a cyclically reduced relator eliminates, with
    the word that replaces the letter ``+y``, or None.  ``y^+-1`` gives
    y = 1; ``x^a y^b`` on two distinct generators, read cyclically, with
    b = +-1 gives y = x^(-a*b), and when a = +-1 too the later generator
    goes."""
    if len(rel) == 1:
        return abs(rel[0]), []
    if len({abs(letter) for letter in rel}) != 2:
        return None
    # rotate the relator to start where its generator changes
    turn = next(i for i in range(len(rel)) if abs(rel[i]) != abs(rel[i - 1]))
    rel = [*rel[turn:], *rel[:turn]]
    split = next(i for i, letter in enumerate(rel) if abs(letter) != abs(rel[0]))
    head, tail = rel[:split], rel[split:]
    if any(abs(letter) != abs(tail[0]) for letter in tail):
        return None  # more than two syllables
    if len(tail) > 1 or len(head) == 1 and abs(head[0]) > abs(tail[0]):
        head, tail = tail, head
    if len(tail) > 1:
        return None
    # a reduced syllable repeats one signed letter: head = x^a, tail = y^b
    b = 1 if tail[0] > 0 else -1
    return abs(tail[0]), [-b * head[0]] * len(head)


def eliminate_generators(
    rank: int, relators: Iterable[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """A Tietze-reduced presentation of ``<x_1..x_rank | relators>``, of the
    same group; returns (rank, relators) in the signed letters of
    :func:`todd_coxeter`.

    Relators are freely and cyclically reduced and empty ones dropped.  Then,
    while more than one generator is left, the shortest relator that reads
    ``y^+-1``, or ``x^a y^+-1`` on two distinct generators, eliminates y:
    y = 1 or y = x^(-a*b) is substituted everywhere, the relators are
    reduced again, and the later generators are renumbered down by one
    (Sims, *Computation with Finitely Presented Groups*, 1994, ch. 1).  The
    last generator is never eliminated, and a generator in no relator is
    kept: dropping a free letter would change the group.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rels = [list(rel) for rel in relators]
    for rel in rels:
        for letter in rel:
            _column(letter, rank)
    rels = [rel for rel in map(_cyclically_reduced, rels) if rel]
    while rank > 1:
        # sorted() is stable: the first of the shortest eliminating relators
        found = next(filter(None, map(_elimination, sorted(rels, key=len))), None)
        if found is None:
            break
        y, word = found
        # spell[a] is the image of the signed letter a, renumbered; a list
        # read at a negative index counts from its end
        spell: list[list[int]] = [[]] * (2 * rank + 1)
        for x in range(1, rank + 1):
            image = [a - (a > y) if a > 0 else a + (-a > y) for a in (word if x == y else [x])]
            spell[x], spell[-x] = image, [-a for a in reversed(image)]
        spelled = ([letter for a in rel for letter in spell[a]] for rel in rels)
        rels = [rel for rel in map(_cyclically_reduced, spelled) if rel]
        rank -= 1
    return rank, rels


def todd_coxeter(
    rank: int, relators: Iterable[Sequence[int]], cap: int = COSET_CAP
) -> CosetTable:
    """HLT-style enumeration of the cosets of the trivial subgroup in
    ``<x_1..x_rank | relators>``; the coset count is the group order.

    Relators are sequences of nonzero signed letters.  Deterministic: cosets
    are processed in creation order and definitions fill relator scans left
    to right.  Raises :class:`ScaleGuardError` when more than ``cap`` cosets
    would be defined (the enumeration may not terminate for infinite
    quotients), and ValueError for a cap below 1.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    ncols = 2 * rank
    rels = [tuple(_column(letter, rank) for letter in rel) for rel in relators]
    for rel in rels:
        if not rel:
            raise ValueError("empty relator")

    table = _CosetRows(ncols, cap)
    rows, parent = table.rows, table.parent
    # A pass closes every relator at every coset still live at its end, and
    # coincidences keep closed loops closed, so a pass that leaves no empty
    # entry has finished the table.
    while True:
        before = table.changes
        alpha = 0
        while alpha < len(rows):
            if parent[alpha] == alpha:
                for rel in rels:
                    if parent[alpha] != alpha:
                        break
                    table.scan_and_fill(alpha, rel)
            alpha += 1
        if all(parent[c] != c or None not in row for c, row in enumerate(rows)):
            break
        if table.changes == before:
            # After a pass that changed nothing, reading a relator up to any
            # letter is a total injective map on the finite set of cosets, so
            # every letter of a relator has full columns: the gaps belong to
            # letters in no relator, and the group is infinite.  Fill the gaps
            # breadth-first, those of new rows too, until ``define`` raises at
            # the cap: every new row has a gap, so the rows never run out.
            c = 0
            while True:
                if parent[c] == c:
                    for col in range(ncols):
                        if rows[c][col] is None:
                            table.define(c, col)
                c += 1

    live_cosets = [c for c in range(len(rows)) if parent[c] == c]
    relabel = {c: i for i, c in enumerate(live_cosets)}
    compact = tuple(tuple(relabel[e] for e in rows[c]) for c in live_cosets)
    return CosetTable(rank, len(live_cosets), compact)
