"""Reference matrix-group closures by breadth-first search that restarts, and
the reference coset enumeration.

The closures here work over any Z/d with d < 2^16 and key an element by its
little-endian uint16 row-major entry bytes, an encoding of their own.
``bfs_closure`` multiplies every element by every generator, level by level,
keying each product on its own.  ``normal_closure`` reruns that whole search
after each round of conjugating its generator list by the ambient
generators and their inverses.  This is the slow, obviously correct
definition that ``crosscap.finitegrp``'s engine must reproduce over F_2.
``elements`` decodes either kind of group one key at a time, so the two are
compared as matrices, not as key bytes.

``layer_keys`` spells out a ``crosscap.finitegrp.LevelLayer`` as the keys of
its 2^dim elements, one element at a time, so a layer can be compared with
this module's closure of the same generators.

``has_exponent`` and ``coset_action_table`` are the batched element-power
test and the transversal action table that enumerated the level-2 image mod
4 and walked RS-GAMMA24's Schreier stream before it moved to the level
layer; they are kept as references for that layer walk.

``todd_coxeter`` is the coset enumeration as it was before it moved onto
``crosscap.finitegrp._CosetRows``: the same HLT scans and coincidence queue
on a table held in closures.  The engine must give the same ``CosetTable``.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from crosscap.finitegrp import (
    CosetTable,
    FiniteMatrixGroup,
    LevelLayer,
    ScaleGuardError,
    SectionError,
    _check_gens,
    _column,
)
from crosscap.intmat import ModMatrix

MAX_KEY_MODULUS = 1 << 16
_BATCH = 1 << 15  # matrices per numpy batch


@dataclass(frozen=True)
class Group:
    """An explicitly enumerated subgroup of the matrices over Z/d, held as
    the uint16 keys of its elements."""

    modulus: int
    dim: int
    keys: frozenset[bytes]
    generators: tuple[ModMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.keys)

    def same_group(self, other: "Group") -> bool:
        return (self.modulus, self.dim, self.keys) == (other.modulus, other.dim, other.keys)


def _as_array(m: ModMatrix) -> np.ndarray:
    return np.array(m.rows, dtype=np.int64)


def _key(arr: np.ndarray) -> bytes:
    return arr.astype("<u2").tobytes()


def _keys(arrays: np.ndarray) -> list[bytes]:
    """The key of each matrix in an (N, n, n) stack with entries in [0, 2^16)."""
    return [_key(arr) for arr in arrays]


def _decode(keys: Sequence[bytes], n: int) -> np.ndarray:
    """The (N, n, n) uint16 stack that ``keys`` encode."""
    return np.frombuffer(b"".join(keys), dtype="<u2").reshape(len(keys), n, n)


def _closure_arrays(
    gen_arrays: list[np.ndarray], d: int, n: int, cap: int
) -> dict[bytes, np.ndarray]:
    """BFS closure under right multiplication, batched per frontier level."""
    if d >= MAX_KEY_MODULUS:
        raise ValueError(f"modulus {d} too large for canonical keys")
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
            raise ScaleGuardError(f"closure exceeded cap of {cap} elements")
    return elements


def bfs_closure(gens: Sequence[ModMatrix], cap: int = 1 << 22) -> Group:
    """The subgroup generated by ``gens`` as an explicit element set."""
    d, n = _check_gens(gens)
    arrays = [_as_array(m) % d for m in gens]
    elements = _closure_arrays(arrays, d, n, cap)
    return Group(d, n, frozenset(elements), tuple(gens))


def normal_closure(
    ambient_gens: Sequence[ModMatrix],
    normal_gens: Sequence[ModMatrix],
    cap: int = 1 << 22,
) -> Group:
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
            return Group(d, n, frozenset(elements), tuple(normal_gens))
        gen_list.extend(fresh.values())
        if len(gen_list) > cap:
            raise ScaleGuardError("normal closure generator list exceeded cap")


def elements(group: Group | FiniteMatrixGroup) -> list[ModMatrix]:
    """Every element of ``group``, decoded one key at a time, sorted by
    rows: an oracle ``Group`` from its uint16 entries, a
    ``crosscap.finitegrp.FiniteMatrixGroup`` over F_2 from its int key,
    whose bit r*n + c is entry (r, c)."""
    n = group.dim
    out = []
    for key in group.keys:
        if isinstance(group, Group):
            flat = np.frombuffer(key, dtype="<u2")
            rows = tuple(tuple(int(flat[r * n + c]) for c in range(n)) for r in range(n))
            out.append(ModMatrix(group.modulus, rows))
        else:
            assert 0 <= key < 1 << (n * n)
            rows = tuple(tuple(key >> (r * n + c) & 1 for c in range(n)) for r in range(n))
            out.append(ModMatrix(2, rows))
    return sorted(out, key=lambda m: m.rows)


def layer_keys(layer: LevelLayer) -> frozenset[bytes]:
    """The key of I + dX (mod 2d) for every X in the span of the layer's
    basis, where bit r*n + c of a vector is entry (r, c) of X."""
    n, modulus = layer.dim, layer.modulus
    d = modulus // 2
    keys = set()
    for mask in range(1 << len(layer.basis)):
        x = 0
        for t, vector in enumerate(layer.basis):
            if mask >> t & 1:
                x ^= vector
        entries = [
            (int(r == c) + d * (x >> (r * n + c) & 1)) % modulus
            for r in range(n)
            for c in range(n)
        ]
        keys.add(np.array(entries, dtype=np.int64).astype("<u2").tobytes())
    return frozenset(keys)


def has_exponent(group: Group, e: int) -> bool:
    """Whether m^e = I for every element m of ``group``.  The elements are
    decoded ``_BATCH`` at a time and each batch is raised to |e|
    at once by repeated squaring; m^-e = I exactly when m^e = I."""
    d, n = group.modulus, group.dim
    keys = list(group.keys)
    eye = np.eye(n, dtype=np.int64) % d
    for start in range(0, len(keys), _BATCH):
        base = _decode(keys[start : start + _BATCH], n).astype(np.int64)
        power = np.broadcast_to(eye, base.shape)
        e_left = abs(e)
        while e_left:
            if e_left & 1:
                power = power @ base % d
            e_left >>= 1
            if e_left:
                base = base @ base % d
        if not (power == eye).all():
            return False
    return True


def coset_action_table(transversal: np.ndarray, gens: np.ndarray, modulus: int) -> np.ndarray:
    """The right action of signed generators on the cosets a transversal
    names, as an (N, k) array: entry (c, j) is the index of the transversal
    entry whose image is T_c A_j mod ``modulus``, for the (N, n, n) stack of
    transversal images T and the (k, n, n) stack of signed generator images
    A.  All N k products are formed and keyed ``_BATCH`` at a
    time.

    Raises :class:`SectionError` when two transversal entries share a key,
    or naming the first coset c and signed generator j, in row-major order,
    whose product has no transversal key.
    """
    if not 2 <= modulus < MAX_KEY_MODULUS:
        raise ValueError(f"modulus {modulus} outside [2, {MAX_KEY_MODULUS}) for canonical keys")
    transversal = np.asarray(transversal, dtype=np.int64) % modulus
    gens = np.asarray(gens, dtype=np.int64) % modulus
    n = transversal.shape[-1]
    index: dict[bytes, int] = {}
    for c, key in enumerate(_keys(transversal)):
        if index.setdefault(key, c) != c:
            raise SectionError(f"transversal entries {index[key]} and {c} share a key")
    targets = []
    step = max(1, _BATCH // max(1, len(gens)))
    for start in range(0, len(transversal), step):
        products = transversal[start : start + step, None] @ gens % modulus
        targets += [index.get(key, -1) for key in _keys(products.reshape(-1, n, n))]
    table = np.array(targets, dtype=np.int64).reshape(len(transversal), len(gens))
    missing = np.argwhere(table < 0)
    if len(missing):
        c, j = map(int, missing[0])
        raise SectionError(f"coset {c} times signed generator {j} has no transversal key")
    return table


def todd_coxeter(
    rank: int, relators: Iterable[Sequence[int]], cap: int = 100_000
) -> CosetTable:
    """HLT-style enumeration of the cosets of the trivial subgroup in
    ``<x_1..x_rank | relators>``, on a table held in closures that resolve
    every entry they read through the union-find.

    Relators are sequences of nonzero signed letters.  Deterministic: cosets
    are processed in creation order and definitions fill relator scans left
    to right.  Raises :class:`ScaleGuardError` when more than ``cap`` cosets
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
            raise ScaleGuardError(f"coset table exceeded cap of {cap}")
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
