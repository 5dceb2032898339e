"""Finite-quotient machinery: matrix-group closures, level-layer subspaces,
Schreier generators, and Todd-Coxeter coset enumeration.

One encoding serves every matrix group here: a 0/1 matrix is keyed by its
entries as little-endian packed bits, bit r*n + c being entry (r, c).
``bfs_closure`` and ``normal_closure`` hold a group over F_2, and refuse
any other modulus, as the set of its element keys.  They drive one closure
engine, ``_Closure``, which grows a group in place as generators arrive
instead of restarting (Dimino's algorithm; Holt-Eick-
O'Brien, *Handbook of Computational Group Theory*, ch. 4) and forms and keys
its products through numpy a batch at a time.  Caps are explicit and
hitting one raises ``ScaleGuardError``, the one exception that marks a
computation stopped by a guard or cap, so callers report "inconclusive"
instead of silently truncating.

For even d the layer Gamma_d / Gamma_2d of matrices congruent to I mod d,
taken mod 2d, is elementary abelian, so ``layer_closure`` and
``layer_normal_closure`` decide its subgroups as F_2 subspaces of n x n
matrices (a ``LevelLayer``) without listing any element: the order is
2^dim, and equal subgroups have equal reduced echelon bases.  The vector X
of I + dX is the integer its key reads as, and both normal closures share
one conjugation step.  ``layer_coordinates`` writes layer elements in a
basis of given layer elements, so a transversal of products of that basis
is walked by XOR on coordinate masks instead of by a table of matrix
products.  Every generator is checked to lie in the layer; one that does
not raises ``LayerError``, and nothing falls back to enumeration.  The
layer engine takes any modulus whose entries fit int64 (up to 2^62).

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
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .intmat import ModMatrix, ModulusMismatchError


class ScaleGuardError(ValueError):
    """A scale guard or size cap was hit; the computation is inconclusive."""


class SectionError(ValueError):
    """A transversal failed to be a section of its quotient map."""


MAX_STACK_MODULUS = 1 << 62
_BATCH = 1 << 15  # matrices per numpy batch


def _pack(xs: np.ndarray) -> list[bytes]:
    """The key of each matrix of an (N, n, n) stack of 0/1 entries: its
    entries as little-endian packed bits, bit r*n + c being entry (r, c)."""
    count, n = len(xs), xs.shape[-1]
    packed = np.packbits(xs.reshape(count, n * n).astype(np.uint8), 1, "little")
    return packed.view(np.dtype((np.void, packed.shape[1]))).reshape(count).tolist()


def _unpack(keys: Sequence[bytes], n: int) -> np.ndarray:
    """The (N, n, n) uint8 stack of 0/1 matrices that ``keys`` encode."""
    raw = np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), (n * n + 7) // 8)
    return np.unpackbits(raw, 1, n * n, "little").reshape(len(keys), n, n)


def _stack(ms: Sequence[ModMatrix], d: int, n: int) -> np.ndarray:
    return np.array([m.rows for m in ms], dtype=np.int64).reshape(-1, n, n) % d


def _check_gens(gens: Sequence[ModMatrix]) -> tuple[int, int]:
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].modulus
    n = gens[0].n
    for m in gens:
        if m.modulus != d:
            raise ModulusMismatchError("generators carry different moduli")
        if m.n != n:
            raise ValueError("generators have different dimensions")
    if d > MAX_STACK_MODULUS:
        raise ValueError(f"modulus {d} is above 2^62, too large for int64 entries")
    return d, n


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """An explicitly enumerated subgroup of the n x n matrices over F_2,
    held as the keys of its elements; equal exactly when the groups are."""

    dim: int
    keys: frozenset[bytes]

    @property
    def order(self) -> int:
        return len(self.keys)


def _mod2_gens(gens: Sequence[ModMatrix]) -> int:
    """The dimension of generators over F_2; any other modulus is refused."""
    d, n = _check_gens(gens)
    if d != 2:
        raise ValueError(f"the closure engine works over F_2, got modulus {d}")
    return n


class _Closure:
    """The subgroup of the n x n matrices over F_2 generated by the
    generators added so far, held as element keys in discovery order and
    grown in place as generators are added.

    Invariant: the keys are closed under right multiplication by every kept
    generator.  Adding a generator outside the group multiplies the old
    elements by it alone (the old generators keep them inside), then the new
    elements by every kept generator.
    """

    def __init__(self, n: int, cap: int) -> None:
        self.n, self.cap = n, cap
        self.gens = np.empty((0, n, n), dtype=np.uint8)
        self.keys = _pack(np.eye(n, dtype=np.uint8)[None])
        self.members = set(self.keys)

    def add(self, gens: np.ndarray) -> np.ndarray:
        """Add the generators of the (N, n, n) 0/1 stack in turn, skipping
        each one the group already contains; returns the stack of those
        kept."""
        gens = gens.astype(np.uint8)
        kept = []
        for index, key in enumerate(_pack(gens)):
            if key in self.members:
                continue
            kept.append(index)
            new = gens[index : index + 1]
            old = len(self.keys)
            self._multiply(0, old, new)
            self.gens = np.concatenate((self.gens, new))
            self._multiply(old, None, self.gens)
        return gens[kept]

    def _multiply(self, start: int, stop: int | None, gens: np.ndarray) -> None:
        """Append the unseen right products by ``gens`` of the elements from
        index ``start`` to ``stop``, or through every element appended on
        the way when ``stop`` is None."""
        n = self.n
        keys, members = self.keys, self.members
        step = max(1, _BATCH // len(gens))
        while True:
            end = min(start + step, len(keys) if stop is None else stop)
            if start >= end:
                return
            batch = _unpack(keys[start:end], n)
            start = end
            # uint8 sums wrap modulo 256, which keeps their parity
            products = _pack((batch[:, None] @ gens & 1).reshape(-1, n, n))
            fresh = [key for key in dict.fromkeys(products) if key not in members]
            members.update(fresh)
            keys.extend(fresh)
            if len(keys) > self.cap:
                raise ScaleGuardError(f"closure exceeded cap of {self.cap} elements")


def _conjugation(ambient_gens: Sequence[ModMatrix], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map sending an (N, n, n) 0/1 stack of matrices X to the stack of
    every A X A^-1 mod 2, for A running over the distinct ambient
    generators mod 2.

    Only A, never A^-1, is needed by the normal closures: an invertible map
    that sends a finite set into itself sends it onto itself, so a finite
    group or span stable under X -> A X A^-1 is stable under its inverse.
    """
    distinct = _unpack(list(dict.fromkeys(_pack(_stack(ambient_gens, 2, n)))), n)
    inverses = [ModMatrix.from_rows(2, a.tolist()).inverse() for a in distinct]
    left = distinct[:, None]
    right = _stack(inverses, 2, n).astype(np.uint8)[:, None]
    # uint8 sums wrap modulo 256, which keeps their parity
    return lambda xs: ((left @ xs & 1) @ right & 1).reshape(-1, n, n)


def bfs_closure(gens: Sequence[ModMatrix], cap: int = 1 << 22) -> FiniteMatrixGroup:
    """The subgroup of the matrices over F_2 that ``gens`` generate, as an
    explicit element set."""
    n = _mod2_gens(gens)
    group = _Closure(n, cap)
    group.add(_stack(gens, 2, n))
    return FiniteMatrixGroup(n, frozenset(group.keys))


def normal_closure(
    ambient_gens: Sequence[ModMatrix],
    normal_gens: Sequence[ModMatrix],
    cap: int = 1 << 22,
) -> FiniteMatrixGroup:
    """Smallest subgroup of the matrices over F_2 containing ``normal_gens``
    and closed under conjugation by the group the ambient generators
    produce.

    Each round conjugates the generators the previous round kept by the
    ambient generators and adds those conjugates to the group; a conjugate
    already inside is skipped.  When a round keeps none, the conjugates of
    every kept generator lie in the group, so it is normal.
    """
    n = _mod2_gens(list(ambient_gens) + list(normal_gens))
    conjugate = _conjugation(ambient_gens, n)
    group = _Closure(n, cap)
    added = group.add(_stack(normal_gens, 2, n))
    while len(added):
        added = group.add(conjugate(added))
    return FiniteMatrixGroup(n, frozenset(group.keys))


# ---------------------------------------------------------------------------
# The level layer Gamma_d / Gamma_2d for even d, as F_2 subspaces
# ---------------------------------------------------------------------------


class LayerError(ValueError):
    """A generator given for the level-d layer at modulus 2d is not in it;
    ``index`` is its position in the list it was given in."""

    def __init__(self, index: int, problem: str, name: str | None = None) -> None:
        super().__init__(f"{name or f'generator {index}'} {problem}")
        self.index, self.problem = index, problem


@dataclass(frozen=True)
class LevelLayer:
    """A subgroup of the matrices M = I + dX (mod 2d), d even, held as the
    F_2 span of the X = (M - I)/d mod 2.

    Bit r*n + c of a vector is entry (r, c) of X.  The basis is in reduced
    echelon form, each vector's highest bit being its pivot and set in no
    other vector, sorted by pivot from the top, so equal subgroups have equal
    bases.
    """

    modulus: int
    dim: int
    basis: tuple[int, ...]

    @property
    def order(self) -> int:
        return 1 << len(self.basis)


def identity_offsets(gens: Sequence[ModMatrix], d: int) -> np.ndarray:
    """The (N, n, n) int64 stack of the M - I of the generators M, once each
    is congruent to I mod d.  Raises :class:`LayerError` for the first that
    is not."""
    modulus, n = _check_gens(gens)
    offsets = _stack(gens, modulus, n) - np.eye(n, dtype=np.int64)
    outside = np.flatnonzero((offsets % d).any(axis=(1, 2)))
    if len(outside):
        raise LayerError(int(outside[0]), f"is not congruent to I mod {d}")
    return offsets


def _layer_vectors(gens: Sequence[ModMatrix], d: int) -> list[int]:
    """The vector X of each generator M = I + dX (mod 2d), read from the
    key of X.  Raises :class:`LayerError` for the first generator whose
    modulus is not 2d or that is not congruent to I mod d; never falls back
    to enumeration."""
    if d < 2 or d % 2:
        raise ValueError(f"the level layer needs an even level, got d = {d}")
    for index, m in enumerate(gens):
        if m.modulus != 2 * d:
            raise LayerError(index, f"has modulus {m.modulus}, not 2d = {2 * d}")
    if not gens:
        return []
    return [int.from_bytes(key, "little") for key in _pack(identity_offsets(gens, d) // d)]


class _Span:
    """An F_2 subspace of bit vectors in reduced echelon form, grown in
    place: ``rows`` maps each pivot to the one basis vector that has it."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        """``v`` with every pivot bit cleared by adding the row that has it;
        zero exactly when ``v`` lies in the span."""
        for pivot, row in self.rows.items():
            if v >> pivot & 1:
                v ^= row
        return v

    def add(self, vectors: Iterable[int]) -> list[int]:
        """Add the vectors in turn; returns, reduced, those that were not
        already in the span."""
        added = []
        for v in vectors:
            v = self.reduce(v)
            if v:
                # v has no pivot bit, so its top bit is new and lies below the
                # pivot of every row it is cleared from
                top = v.bit_length() - 1
                for pivot, row in self.rows.items():
                    if row >> top & 1:
                        self.rows[pivot] = row ^ v
                self.rows[top] = v
                added.append(v)
        return added

    def layer(self, d: int, n: int) -> LevelLayer:
        return LevelLayer(2 * d, n, tuple(self.rows[p] for p in sorted(self.rows, reverse=True)))


def layer_closure(gens: Sequence[ModMatrix], d: int) -> LevelLayer:
    """The subgroup of Gamma_d / Gamma_2d (d even) that ``gens`` generate.

    Since d^2 = 0 mod 2d, (I + dX)(I + dY) = I + d(X + Y) mod 2d, so the
    layer is elementary abelian (Lee-Szczarba 1976) and a generated subgroup
    is the F_2 span of the generators' vectors.
    """
    vectors = _layer_vectors(gens, d)
    _, n = _check_gens(gens)
    span = _Span()
    span.add(vectors)
    return span.layer(d, n)


def layer_normal_closure(
    ambient_gens: Sequence[ModMatrix], normal_gens: Sequence[ModMatrix], d: int
) -> LevelLayer:
    """Smallest subgroup of Gamma_d / Gamma_2d (d even) that contains
    ``normal_gens`` and is closed under conjugation by the ambient group.

    A(I + dX)A^-1 = I + d A X A^-1, so conjugation by A acts on the vectors
    as the invertible linear map X -> A X A^-1 over F_2.  Each round
    conjugates the vectors the previous round added by every distinct
    ambient generator mod 2, until the span stops growing.
    """
    vectors = _layer_vectors(normal_gens, d)
    _, n = _check_gens(list(ambient_gens) + list(normal_gens))
    conjugate = _conjugation(ambient_gens, n)
    width = (n * n + 7) // 8
    span = _Span()
    added = span.add(vectors)
    while added:
        xs = _unpack([v.to_bytes(width, "little") for v in added], n)
        added = span.add(int.from_bytes(key, "little") for key in _pack(conjugate(xs)))
    return span.layer(d, n)


def layer_coordinates(
    basis: Sequence[ModMatrix], gens: Sequence[ModMatrix], d: int
) -> list[int] | None:
    """The coordinates of each of ``gens`` in the layer vectors of
    ``basis`` (d even, modulus 2d), as masks: bit t is set when basis
    element t is in the sum.  Since the layer is elementary abelian, a
    product of generators has the XOR of their masks.

    Returns None when the basis vectors are dependent.  Raises
    :class:`LayerError` for an element outside the layer, or for a
    generator outside the span, indexed in ``basis`` followed by ``gens``.
    """
    vectors = _layer_vectors(list(basis) + list(gens), d)
    k = len(basis)
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


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table for the trivial subgroup of a finite presentation."""

    rank: int
    coset_count: int
    table: tuple[tuple[int, ...], ...]  # rows indexed by coset; 2*rank columns

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
        """Identify cosets a and b and every pair of cosets this forces."""
        rows, parent, rep = self.rows, self.parent, self.rep
        queue = deque([(a, b)])
        while queue:
            a, b = queue.popleft()
            a, b = rep(a), rep(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            self.changes += 1
            for col in range(self.ncols):
                delta = rows[b][col]
                if delta is None:
                    continue
                rows[b][col] = None
                delta_r = rep(delta)
                if rows[delta_r][col ^ 1] == b:
                    rows[delta_r][col ^ 1] = None
                mu, nu = rep(a), delta_r
                existing = rows[mu][col]
                if existing is not None:
                    queue.append((existing, nu))
                else:
                    back = rows[nu][col ^ 1]
                    if back is not None:
                        queue.append((back, mu))
                    else:
                        rows[mu][col] = nu
                        rows[nu][col ^ 1] = mu

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
    rank: int, relators: Iterable[Sequence[int]], cap: int = 100_000
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
