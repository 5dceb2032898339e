"""The numpy forms of the F_2 closure engine, the level layer, the level test
and PSI-O2's exhaustion, as ``crosscap`` ran them before they moved onto
Python ints.

The closure engine here keys a 0/1 matrix by its entries as little-endian
packed bytes, bit r*n + c being entry (r, c), and forms and keys its
products through numpy ``_BATCH`` matrices at a time; ``int_keys`` reads
those keys as the ints ``crosscap.finitegrp`` keys the same matrices by.
Its entries are int64, so it refuses a modulus above 2^62.  The level layer
reads X = (M - I)/d from an int64 stack and conjugates it in uint8 stacks.
``level_trivial_residues`` is the level test on a whole (..., g, g) stack,
and ``brute_force_mod2_orthogonal`` the exhaustion of the 2^(g^2) matrices
with one uint16 column per matrix.  The int engines must give the same
groups, layers, verdicts and matrices.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from crosscap.finitegrp import (
    FiniteMatrixGroup,
    LayerError,
    LevelLayer,
    ScaleGuardError,
)
from crosscap.intmat import ModMatrix, ModulusMismatchError
from oracle_finitegrp import ReducedSpan

MAX_STACK_MODULUS = 1 << 62
_BATCH = 1 << 15  # matrices per numpy batch


def int_keys(group: FiniteMatrixGroup) -> frozenset[int]:
    """The packed-byte keys of a group of this module read as ints."""
    return frozenset(int.from_bytes(key, "little") for key in group.keys)


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


def layer_closure(gens: Sequence[ModMatrix], d: int) -> LevelLayer:
    """The subgroup of Gamma_d / Gamma_2d (d even) that ``gens`` generate."""
    vectors = _layer_vectors(gens, d)
    _, n = _check_gens(gens)
    span = ReducedSpan()
    span.add(vectors)
    return span.layer(d, n)


def layer_normal_closure(
    ambient_gens: Sequence[ModMatrix], normal_gens: Sequence[ModMatrix], d: int
) -> LevelLayer:
    """Smallest subgroup of Gamma_d / Gamma_2d (d even) that contains
    ``normal_gens`` and is closed under conjugation by the ambient group."""
    vectors = _layer_vectors(normal_gens, d)
    _, n = _check_gens(list(ambient_gens) + list(normal_gens))
    conjugate = _conjugation(ambient_gens, n)
    width = (n * n + 7) // 8
    span = ReducedSpan()
    added = span.add(vectors)
    while added:
        xs = _unpack([v.to_bytes(width, "little") for v in added], n)
        added = span.add(int.from_bytes(key, "little") for key in _pack(conjugate(xs)))
    return span.layer(d, n)


def level_trivial_residues(stack: np.ndarray, d: int) -> np.ndarray:
    """Which actions of an (..., g, g) integer stack fix every class of H_1
    with Z/d coefficients, as a boolean array over the leading axes.

    Column j must differ from e_j by a constant vector 2l mod d; for odd d
    every constant qualifies (2 is invertible), for even d it must be even.
    Entries are reduced mod d here: an int64 stack holds residues, an
    object stack exact integers of any size.
    """
    if d < 2:
        raise ValueError("level must be >= 2")
    g = stack.shape[-1]
    shifts = (stack - np.eye(g, dtype=stack.dtype)) % d
    constant = shifts[..., :1, :]
    trivial = (shifts == constant).all(axis=(-2, -1))
    if d % 2 == 0:
        trivial &= (constant % 2 == 0).all(axis=(-2, -1))
    return trivial


def brute_force_mod2_orthogonal(g: int) -> frozenset[bytes]:
    """All g x g matrices over Z/2 preserving the dot pairing, by exhaustion.

    Matrix t of the 2^(g^2) has entry (r, c) at bit r g + c of t.  Each
    column is held as a g-bit integer per matrix, so the Gram entry (i, j)
    of M^T M is the parity of popcount(col_i & col_j), read from a 2^g
    table.  Numbered so, t is the key ``_pack`` gives the matrix, and the
    survivors, the t with M^T M = I, are written out as keys directly.
    """
    if g > 4:
        raise ScaleGuardError(f"2^(g^2) enumeration unreasonable for g = {g}")
    count = 1 << (g * g)
    bits = np.arange(count, dtype=np.uint32)
    cols = [np.zeros(count, dtype=np.uint16) for _ in range(g)]
    for r in range(g):
        for c in range(g):
            cols[c] |= (bits >> (r * g + c) & 1).astype(np.uint16) << r
    parity = np.array([v.bit_count() & 1 for v in range(1 << g)], dtype=bool)
    good = np.ones(count, dtype=bool)
    for i in range(g):
        for j in range(i, g):
            gram = parity[cols[i] & cols[j]]
            good &= gram if i == j else ~gram
    width = (g * g + 7) // 8
    return frozenset(int(t).to_bytes(width, "little") for t in bits[good])
