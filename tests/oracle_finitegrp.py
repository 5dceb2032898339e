"""Reference matrix-group closures by breadth-first search that restarts.

``bfs_closure`` multiplies every element by every generator, level by level,
keying each product on its own.  ``normal_closure`` reruns that whole search
after each round of conjugating its generator list.  ``elements`` decodes
one key at a time.  This is the slow, obviously correct definition that
``crosscap.finitegrp`` must reproduce: the same key bytes, so the same key
sets and element order.

``layer_keys`` spells out a ``crosscap.finitegrp.LevelLayer`` as the keys of
its 2^dim elements, one element at a time, so a layer can be compared with
the engine's closure of the same generators.
"""

from typing import Iterator, Sequence

import numpy as np

from crosscap.finitegrp import CapExceededError, FiniteMatrixGroup, LevelLayer, _check_gens
from crosscap.intmat import ModMatrix


def _as_array(m: ModMatrix) -> np.ndarray:
    return np.array(m.rows, dtype=np.int64)


def _key(arr: np.ndarray) -> bytes:
    return arr.astype("<u2").tobytes()


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


def elements(group: FiniteMatrixGroup) -> Iterator[ModMatrix]:
    """``FiniteMatrixGroup.elements``: sorted keys, decoded one at a time."""
    n, d = group.dim, group.modulus
    for key in sorted(group.keys):
        flat = np.frombuffer(key, dtype="<u2")
        rows = tuple(
            tuple(int(flat[r * n + c]) for c in range(n)) for r in range(n)
        )
        yield ModMatrix(d, rows)


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
