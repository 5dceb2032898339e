"""Finite-quotient machinery: matrix-group closures, Schreier generators,
and Todd-Coxeter coset enumeration.

Closures of matrix groups over Z/d are computed by breadth-first orbit
expansion.  The frontier products are batched through numpy (the only place
the package uses it); element keys are the little-endian uint16 row-major
entry bytes, which is canonical because entries live in [0, d).  Caps are
explicit and hitting one raises, so callers can report "inconclusive"
instead of silently truncating.
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


def _as_array(m: ModMatrix) -> np.ndarray:
    return np.array(m.rows, dtype=np.int64)


def _key(arr: np.ndarray) -> bytes:
    return arr.astype("<u2").tobytes()


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
        return _key(_as_array(m)) in self.keys

    def elements(self) -> Iterator[ModMatrix]:
        n, d = self.dim, self.modulus
        for key in sorted(self.keys):
            flat = np.frombuffer(key, dtype="<u2")
            rows = tuple(
                tuple(int(flat[r * n + c]) for c in range(n)) for r in range(n)
            )
            yield ModMatrix(d, rows)

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


def _closure_arrays(
    gen_arrays: list[np.ndarray], d: int, n: int, cap: int
) -> dict[bytes, np.ndarray]:
    """BFS closure under right multiplication, batched per frontier level."""
    stack = np.stack(gen_arrays)
    identity = np.eye(n, dtype=np.int64)
    elements: dict[bytes, np.ndarray] = {_key(identity): identity}
    frontier = [identity]
    while frontier:
        batch = np.stack(frontier)  # (F, n, n)
        prods = (batch[:, None, :, :] @ stack[None, :, :, :]) % d
        prods = prods.reshape(-1, n, n)
        frontier = []
        for arr in prods:
            key = _key(arr)
            if key not in elements:
                elements[key] = arr
                frontier.append(arr)
        if len(elements) > cap:
            raise CapExceededError(f"closure exceeded cap of {cap} elements")
    return elements


def bfs_closure(gens: Sequence[ModMatrix], cap: int = 1 << 22) -> FiniteMatrixGroup:
    """The subgroup generated by ``gens`` as an explicit element set."""
    d, n = _check_gens(gens)
    arrays = [_as_array(m) % d for m in gens]
    elements = _closure_arrays(arrays, d, n, cap)
    return FiniteMatrixGroup(d, n, frozenset(elements), tuple(gens))


def normal_closure(
    ambient_gens: Sequence[ModMatrix],
    normal_gens: Sequence[ModMatrix],
    cap: int = 1 << 22,
) -> FiniteMatrixGroup:
    """Smallest subgroup containing ``normal_gens`` and closed under
    conjugation by the group the ambient generators produce.

    Alternates subgroup closure with conjugation of the current generator
    list by the ambient generators and their inverses until stable.
    """
    d, n = _check_gens(list(ambient_gens) + list(normal_gens))
    pairs = [
        ((_as_array(a) % d), (_as_array(a.inverse()) % d)) for a in ambient_gens
    ]

    seeds: dict[bytes, np.ndarray] = {}
    for m in normal_gens:
        arr = _as_array(m) % d
        seeds.setdefault(_key(arr), arr)
    gen_list = list(seeds.values())
    if not gen_list:
        gen_list = [np.eye(n, dtype=np.int64)]

    while True:
        elements = _closure_arrays(gen_list, d, n, cap)
        stack = np.stack(gen_list)
        fresh: dict[bytes, np.ndarray] = {}
        for a, a_inv in pairs:
            for conj in (
                (a[None, :, :] @ stack @ a_inv[None, :, :]) % d,
                (a_inv[None, :, :] @ stack @ a[None, :, :]) % d,
            ):
                for arr in conj:
                    key = _key(arr)
                    if key not in elements and key not in fresh:
                        fresh[key] = arr
        if not fresh:
            return FiniteMatrixGroup(d, n, frozenset(elements), tuple(normal_gens))
        gen_list.extend(fresh.values())
        if len(gen_list) > cap:
            raise CapExceededError("normal closure generator list exceeded cap")


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
