"""Finite-quotient machinery: matrix-group closures, level-layer subspaces,
Schreier generators, and Todd-Coxeter coset enumeration.

A matrix group over Z/d is held as the set of its element keys: the
little-endian uint16 row-major entry bytes, which are canonical because
entries live in [0, d) with d < 2^16.  ``bfs_closure`` and ``normal_closure``
drive one closure engine, ``_Closure``, which grows a group in place as
generators arrive instead of restarting (Dimino's algorithm; Holt-Eick-
O'Brien, *Handbook of Computational Group Theory*, ch. 4) and forms and keys
its products through numpy a batch at a time.  Caps are explicit and hitting
one raises, so callers can report "inconclusive" instead of silently
truncating.

For even d the layer Gamma_d / Gamma_2d of matrices congruent to I mod d,
taken mod 2d, is elementary abelian, so ``layer_closure`` and
``layer_normal_closure`` decide its subgroups as F_2 subspaces of n x n
matrices (a ``LevelLayer``) without listing any element: the order is
2^dim, and equal subgroups have equal reduced echelon bases.  Every
generator is checked to lie in the layer; one that does not raises
``LayerError``, and nothing falls back to enumeration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .intmat import ModMatrix, ModulusMismatchError


class CapExceededError(RuntimeError):
    """An explicit size cap was hit; the computation is inconclusive."""


class SectionError(ValueError):
    """A transversal failed to be a section of its quotient map."""


MAX_KEY_MODULUS = 1 << 16
_BATCH = 1 << 15  # matrices per numpy batch


def _keys(arrays: np.ndarray) -> list[bytes]:
    """The key of each matrix in an (N, n, n) stack, whose entries lie in
    [0, 2^16): its little-endian uint16 row-major entry bytes."""
    count, n = len(arrays), arrays.shape[-1]
    flat = arrays.astype("<u2", order="C").reshape(count, n * n)
    return flat.view(np.dtype((np.void, 2 * n * n))).reshape(count).tolist()


def _decode(keys: Sequence[bytes], n: int) -> np.ndarray:
    """The (N, n, n) uint16 stack that ``keys`` encode."""
    return np.frombuffer(b"".join(keys), dtype="<u2").reshape(len(keys), n, n)


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
    if d >= MAX_KEY_MODULUS:
        raise ValueError(f"modulus {d} too large for canonical keys")
    return d, n


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """An explicitly enumerated subgroup of matrices over Z/d."""

    modulus: int
    dim: int
    keys: frozenset[bytes]
    generators: tuple[ModMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.keys)

    def contains(self, m: ModMatrix) -> bool:
        if m.modulus != self.modulus or m.n != self.dim:
            return False
        return _keys(np.array([m.rows], dtype=np.int64))[0] in self.keys

    def elements(self) -> Iterator[ModMatrix]:
        """Every element, in the order of the sorted keys."""
        for rows in _decode(sorted(self.keys), self.dim).tolist():
            yield ModMatrix(self.modulus, tuple(map(tuple, rows)))

    def same_group(self, other: "FiniteMatrixGroup") -> bool:
        return (
            self.modulus == other.modulus
            and self.dim == other.dim
            and self.keys == other.keys
        )

    def has_exponent(self, e: int) -> bool:
        return all((m**e).is_identity() for m in self.elements())

    def to_json(self, element_limit: int = 512) -> dict:
        data = {
            "modulus": self.modulus,
            "dim": self.dim,
            "order": self.order,
            "generators": [[list(row) for row in m.rows] for m in self.generators],
        }
        if self.order <= element_limit:
            data["elements"] = [[list(row) for row in m.rows] for m in self.elements()]
        return data


class _Closure:
    """The subgroup of the n x n matrices over Z/d generated by the
    generators added so far, held as element keys in discovery order and
    grown in place as generators are added.

    Invariant: the keys are closed under right multiplication by every kept
    generator.  Adding a generator outside the group multiplies the old
    elements by it alone (the old generators keep them inside), then the new
    elements by every kept generator.
    """

    def __init__(self, d: int, n: int, cap: int) -> None:
        self.d, self.n, self.cap = d, n, cap
        self.gens = np.empty((0, n, n), dtype=np.int64)
        self.keys = _keys(np.eye(n, dtype=np.int64)[None])
        self.members = set(self.keys)

    def add(self, gens: np.ndarray) -> np.ndarray:
        """Add the generators of the (N, n, n) stack in turn, skipping each
        one the group already contains; returns the stack of those kept."""
        kept = []
        for index, key in enumerate(_keys(gens)):
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
        d, n = self.d, self.n
        keys, members = self.keys, self.members
        step = max(1, _BATCH // len(gens))
        while True:
            end = min(start + step, len(keys) if stop is None else stop)
            if start >= end:
                return
            batch = _decode(keys[start:end], n)
            start = end
            products = _keys((batch[:, None] @ gens % d).reshape(-1, n, n))
            fresh = [key for key in dict.fromkeys(products) if key not in members]
            members.update(fresh)
            keys.extend(fresh)
            if len(keys) > self.cap:
                raise CapExceededError(f"closure exceeded cap of {self.cap} elements")


def bfs_closure(gens: Sequence[ModMatrix], cap: int = 1 << 22) -> FiniteMatrixGroup:
    """The subgroup generated by ``gens`` as an explicit element set."""
    d, n = _check_gens(gens)
    group = _Closure(d, n, cap)
    group.add(_stack(gens, d, n))
    return FiniteMatrixGroup(d, n, frozenset(group.keys), tuple(gens))


def normal_closure(
    ambient_gens: Sequence[ModMatrix],
    normal_gens: Sequence[ModMatrix],
    cap: int = 1 << 22,
) -> FiniteMatrixGroup:
    """Smallest subgroup containing ``normal_gens`` and closed under
    conjugation by the group the ambient generators produce.

    Each round conjugates the generators the previous round kept by the
    ambient generators and their inverses, and adds those conjugates to the
    group; a conjugate already inside is skipped.  When a round keeps none,
    the conjugates of every kept generator lie in the group, so it is normal.
    """
    d, n = _check_gens(list(ambient_gens) + list(normal_gens))
    ambient = _stack(ambient_gens, d, n)[:, None]
    inverses = _stack([a.inverse() for a in ambient_gens], d, n)[:, None]
    group = _Closure(d, n, cap)
    added = group.add(_stack(normal_gens, d, n))
    while len(added):
        conjugates = np.stack(
            (
                (ambient @ added % d) @ inverses % d,
                (inverses @ added % d) @ ambient % d,
            ),
            axis=1,
        )
        added = group.add(conjugates.reshape(-1, n, n))
    return FiniteMatrixGroup(d, n, frozenset(group.keys), tuple(normal_gens))


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

    def same_group(self, other: "LevelLayer") -> bool:
        return self == other


def _bits(xs: np.ndarray) -> list[int]:
    """The bit vector of each matrix of an (N, n, n) stack of 0/1 entries."""
    count, n = len(xs), xs.shape[-1]
    flat = xs.reshape(count, n * n).astype(np.uint8)
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(flat, 1, "little")]


def _unbits(vectors: Sequence[int], n: int) -> np.ndarray:
    """The (N, n, n) uint8 stack of 0/1 matrices that ``vectors`` encode."""
    width = (n * n + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in vectors), np.uint8)
    bits = np.unpackbits(raw.reshape(len(vectors), width), 1, bitorder="little")
    return bits[:, : n * n].reshape(len(vectors), n, n)


def _layer_vectors(gens: Sequence[ModMatrix], d: int) -> list[int]:
    """The vector X of each generator M = I + dX (mod 2d).  Raises
    :class:`LayerError` for the first generator whose modulus is not 2d or
    that is not congruent to I mod d; never falls back to enumeration."""
    if d < 2 or d % 2:
        raise ValueError(f"the level layer needs an even level, got d = {d}")
    for index, m in enumerate(gens):
        if m.modulus != 2 * d:
            raise LayerError(index, f"has modulus {m.modulus}, not 2d = {2 * d}")
    if not gens:
        return []
    _, n = _check_gens(gens)
    offsets = (_stack(gens, 2 * d, n) - np.eye(n, dtype=np.int64)) % (2 * d)
    outside = np.flatnonzero((offsets % d).any(axis=(1, 2)))
    if len(outside):
        raise LayerError(int(outside[0]), f"is not congruent to I mod {d}")
    return _bits(offsets // d)


class _Span:
    """An F_2 subspace of bit vectors in reduced echelon form, grown in
    place: ``rows`` maps each pivot to the one basis vector that has it."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def add(self, vectors: Iterable[int]) -> list[int]:
        """Add the vectors in turn; returns, reduced, those that were not
        already in the span."""
        added = []
        for v in vectors:
            for pivot, row in self.rows.items():
                if v >> pivot & 1:
                    v ^= row
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
    ambient generator mod 2.  An invertible linear map that sends a finite
    subspace into itself sends it onto itself, so the span is then stable
    under the inverses too.
    """
    vectors = _layer_vectors(normal_gens, d)
    _, n = _check_gens(list(ambient_gens) + list(normal_gens))
    distinct = np.unique(_stack(ambient_gens, 2, n), axis=0)
    inverses = [ModMatrix.from_rows(2, a.tolist()).inverse() for a in distinct]
    # uint8 sums wrap modulo 256, which keeps their parity
    left = distinct.astype(np.uint8)[:, None]
    right = _stack(inverses, 2, n).astype(np.uint8)[:, None]
    span = _Span()
    added = span.add(vectors)
    while added:
        xs = _unbits(added, n)
        added = span.add(_bits((left @ xs % 2 @ right % 2).reshape(-1, n, n)))
    return span.layer(d, n)


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


def todd_coxeter(
    rank: int, relators: Iterable[Sequence[int]], cap: int = 100_000
) -> CosetTable:
    """HLT-style enumeration of the cosets of the trivial subgroup in
    ``<x_1..x_rank | relators>``; the coset count is the group order.

    Relators are sequences of nonzero signed letters.  Deterministic: cosets
    are processed in creation order and definitions fill relator scans left
    to right.  Raises :class:`CapExceededError` when more than ``cap`` cosets
    would be defined (the enumeration may not terminate for infinite
    quotients).
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    ncols = 2 * rank
    rels = [tuple(_column(letter, rank) for letter in rel) for rel in relators]
    for rel in rels:
        if not rel:
            raise ValueError("empty relator")

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    version = [0]  # bumped by every define and every actual merge

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha: int, col: int) -> int:
        if len(table) >= cap:
            raise CapExceededError(f"coset table exceeded cap of {cap}")
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha
        version[0] += 1
        return beta

    def coincidence(a: int, b: int) -> None:
        queue = deque([(a, b)])
        while queue:
            a, b = queue.popleft()
            a, b = rep(a), rep(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            version[0] += 1
            for col in range(ncols):
                delta = table[b][col]
                if delta is None:
                    continue
                table[b][col] = None
                delta_r = rep(delta)
                if table[delta_r][col ^ 1] == b:
                    table[delta_r][col ^ 1] = None
                mu, nu = rep(a), delta_r
                existing = table[mu][col]
                if existing is not None:
                    queue.append((existing, nu))
                else:
                    back = table[nu][col ^ 1]
                    if back is not None:
                        queue.append((back, mu))
                    else:
                        table[mu][col] = nu
                        table[nu][col ^ 1] = mu

    def scan_and_fill(alpha: int, rel: tuple[int, ...]) -> None:
        f, b = alpha, alpha
        i, j = 0, len(rel) - 1
        while True:
            while i <= j and table[f][rel[i]] is not None:
                f = rep(table[f][rel[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][rel[j] ^ 1] is not None:
                b = rep(table[b][rel[j] ^ 1])
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][rel[i]] = b
                table[b][rel[i] ^ 1] = f
                return
            f = define(f, rel[i])
            i += 1

    def live(c: int) -> bool:
        return rep(c) == c

    # repeat full passes until the table is stable: coincidences discovered
    # late can reopen earlier rows, and rescanning is cheap at this scale
    while True:
        before = version[0]
        alpha = 0
        while alpha < len(table):
            if live(alpha):
                for rel in rels:
                    if not live(alpha):
                        break
                    scan_and_fill(alpha, rel)
            alpha += 1
        complete = all(
            table[c][col] is not None
            for c in range(len(table))
            if live(c)
            for col in range(ncols)
        )
        if version[0] == before:
            if complete:
                break
            # a letter missing from every relator: fill one entry so the scan
            # makes progress; infinite directions eventually hit the cap
            gap = next(
                (c, col)
                for c in range(len(table))
                if live(c)
                for col in range(ncols)
                if table[c][col] is None
            )
            define(*gap)

    live_cosets = [c for c in range(len(table)) if live(c)]
    relabel = {c: i for i, c in enumerate(live_cosets)}
    compact = tuple(
        tuple(relabel[rep(table[c][col])] for col in range(ncols)) for c in live_cosets
    )
    return CosetTable(rank, len(live_cosets), compact)
