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
this module's closure of the same generators reduced mod 2d.

``identity_offsets`` is the layer reader as it was when the engine took
reduced copies: it reads each residue, entry mod the copy's modulus, and
must agree with the engine's reader of the exact matrices.  ``_check_gens``
is the generator check that went with it, which every closure here still
uses.

``has_exponent`` and ``coset_action_table`` are the batched element-power
test and the transversal action table that enumerated the level-2 image mod
4 and walked RS-GAMMA24's Schreier stream before it moved to the level
layer; they are kept as references for that layer walk.

``ReducedSpan`` is ``crosscap.finitegrp._Span`` as it was before it went
to semi-echelon form: it keeps its rows in reduced echelon form as they
arrive, clearing each new pivot from every older row, and reduces a vector
by the rows at its pivot bits.  ``reduce_all_rows`` is its ``reduce`` as it
was before that, walking every row of the span.  ``sparse_conjugation`` is
``crosscap.finitegrp._conjugation`` as it was before it went to
shift-and-multiply terms: one shift-and-mask of the whole key per nonzero
of A^-1 - I and of A - I.  ``chunked_conjugation`` is the form before
that: row r of X A^-1 is the XOR of one lookup per 8-bit chunk of row r,
in tables of the rows of A^-1 (``_row_table``, which ``crosscap.finitegrp``
used for its closures too), and it conjugates by every distinct generator
mod 2, I included.  ``half_split_conjugation`` is the form before that:
row r of X A^-1 is looked up in two tables, of the first n/2 rows of A^-1
and of the rest.  The engine's forms must give the same bases, vectors and
keys.

``todd_coxeter`` is the coset enumeration as it was before it moved onto
``crosscap.finitegrp._CosetRows``: the same HLT scans and coincidence queue
on a table held in closures.  The engine must give the same ``CosetTable``.
``coincidence`` is ``_CosetRows.coincidence`` as it was before it read only
the filled entries of the merged row: it walks every column and resolves
every coset it reads through the union-find.  Patched in as the method, it
must leave every table as the engine's does.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from crosscap.finitegrp import (
    CosetTable,
    FiniteMatrixGroup,
    LayerError,
    LevelLayer,
    ScaleGuardError,
    SectionError,
    _column,
    _CosetRows,
    _inverse,
    _key as _int_key,
    _ones,
)
from crosscap.intmat import IntMatrix, ModMatrix, ModulusMismatchError

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
    return d, n


def identity_offsets(gens: Sequence[ModMatrix], d: int) -> list[int]:
    """The vector of X = (M - I)/d mod 2 for each generator M, once each is
    congruent to I mod d, bit r*n + c being entry (r, c) of X.  Raises
    :class:`LayerError` for the first that is not."""
    modulus, n = _check_gens(gens)
    vectors = []
    for index, m in enumerate(gens):
        x = 0
        for r, row in enumerate(m.rows):
            for c, e in enumerate(row):
                q, rest = divmod(e % modulus - (r == c), d)
                if rest:
                    raise LayerError(index, f"is not congruent to I mod {d}")
                x |= (q & 1) << (r * n + c)
        vectors.append(x)
    return vectors


class ReducedSpan:
    """An F_2 subspace of bit vectors in reduced echelon form, grown in
    place: ``rows`` maps each pivot to the one basis vector that has it,
    and ``pivots`` is the OR of the pivot bits."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self.pivots = 0

    def reduce(self, v: int) -> int:
        """``v`` with every pivot bit cleared by adding the row that has it;
        zero exactly when ``v`` lies in the span.  A row sets no pivot bit
        but its own, so the rows to add are those at the pivot bits of v."""
        rows = self.rows
        hits = v & self.pivots
        while hits:
            low = hits & -hits
            v ^= rows[low.bit_length() - 1]
            hits ^= low
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
                self.pivots |= 1 << top
                added.append(v)
        return added

    def layer(self, d: int, n: int) -> LevelLayer:
        return LevelLayer(2 * d, n, tuple(self.rows[p] for p in sorted(self.rows, reverse=True)))


def reduce_all_rows(span: ReducedSpan, v: int) -> int:
    """``v`` with every pivot bit of ``span`` cleared, each row of the span
    tried in turn."""
    for pivot, row in span.rows.items():
        if v >> pivot & 1:
            v ^= row
    return v


def _rows(key: int, n: int) -> list[int]:
    """The n-bit rows of the matrix that ``key`` encodes."""
    mask = (1 << n) - 1
    return [key >> r * n & mask for r in range(n)]


def _row_table(rows: Sequence[int]) -> list[int]:
    """Entry v is the XOR of the rows that the bits of v pick: the row
    vector v times the matrix of those rows, over F_2."""
    table = [0] * (1 << len(rows))
    for v in range(1, len(table)):
        low = v & -v
        table[v] = table[v ^ low] ^ rows[low.bit_length() - 1]
    return table


def sparse_conjugation(
    ambient_gens: Sequence[IntMatrix], n: int
) -> Callable[[Sequence[int]], list[int]]:
    """The keys of every A X A^-1 for the keys X, A-major over the distinct
    ambient generators mod 2 but I.  With M = A^-1 - I and N = A - I,
    A X A^-1 = Y + N Y for Y = X + X M: each nonzero (k, c) of M adds
    column k of X to column c of Y, and each nonzero (r, k) of N adds row k
    of Y to row r, one shift-and-mask of the whole key per nonzero."""
    identity = sum(1 << r * (n + 1) for r in range(n))
    col0, row0 = sum(1 << r * n for r in range(n)), (1 << n) - 1
    actions = []
    for key in dict.fromkeys(map(_int_key, ambient_gens)):
        if key != identity:
            # the (k, c) of M, and the shifts k*n and r*n of the (r, k) of N
            columns = [divmod(b, n) for b in _ones(_inverse(key, n) ^ identity)]
            rows = [(b % n * n, b - b % n) for b in _ones(key ^ identity)]
            actions.append((columns, rows))

    def conjugate(xs: Sequence[int]) -> list[int]:
        out = []
        for columns, rows in actions:
            for x in xs:
                y = x
                for k, c in columns:
                    y ^= (x >> k & col0) << c
                z = y
                for down, up in rows:
                    z ^= (y >> down & row0) << up
                out.append(z)
        return out

    return conjugate


def chunked_conjugation(ambient_gens: Sequence[IntMatrix], n: int) -> Callable[[Sequence[int]], list[int]]:
    """The keys of every A X A^-1 for the keys X, A-major over the distinct
    ambient generators mod 2.  Row r of X A^-1 is the XOR of one lookup per
    8-bit chunk of row r of X, in ceil(n/8) tables of at most 256 row
    combinations of A^-1; column r of A, held with entry k at bit k*n, times
    that row spreads it over the rows of A X A^-1 without carries."""
    mask = (1 << n) - 1
    actions = []
    for key in dict.fromkeys(map(_int_key, ambient_gens)):
        columns = [sum((key >> k * n + c & 1) << k * n for k in range(n)) for c in range(n)]
        inverse = _rows(_inverse(key, n), n)
        tables = [_row_table(inverse[c : c + 8]) for c in range(0, n, 8)]
        actions.append((columns, tables))
    shifts = range(0, n * n, n)

    def conjugate(xs: Sequence[int]) -> list[int]:
        out = []
        for columns, tables in actions:
            for x in xs:
                y = 0
                for column, shift in zip(columns, shifts):
                    v = x >> shift & mask
                    if v:
                        row = 0
                        for table in tables:
                            row ^= table[v & 255]
                            v >>= 8
                        y ^= column * row
                out.append(y)
        return out

    return conjugate


def half_split_conjugation(
    ambient_gens: Sequence[IntMatrix], n: int
) -> Callable[[Sequence[int]], list[int]]:
    """The keys of every A X A^-1 for the keys X, A-major over the distinct
    ambient generators mod 2, with each row of X A^-1 looked up in two
    tables of about 2^(n/2) entries."""
    half = n // 2
    mask, low = (1 << n) - 1, (1 << half) - 1
    actions = []
    for key in dict.fromkeys(map(_int_key, ambient_gens)):
        columns = [sum((key >> k * n + c & 1) << k * n for k in range(n)) for c in range(n)]
        inverse = _rows(_inverse(key, n), n)
        actions.append((columns, _row_table(inverse[:half]), _row_table(inverse[half:])))
    shifts = range(0, n * n, n)

    def conjugate(xs: Sequence[int]) -> list[int]:
        out = []
        for columns, first, rest in actions:
            for x in xs:
                y = 0
                for column, shift in zip(columns, shifts):
                    v = x >> shift & mask
                    if v:
                        y ^= column * (first[v & low] ^ rest[v >> half])
                out.append(y)
        return out

    return conjugate


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


def coincidence(table: _CosetRows, a: int, b: int) -> None:
    """Identify cosets a and b of ``table`` and every pair of cosets this
    forces, reading every column of each merged row."""
    rows, parent, rep = table.rows, table.parent, table.rep
    queue = deque([(a, b)])
    while queue:
        a, b = queue.popleft()
        a, b = rep(a), rep(b)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        parent[b] = a
        table.changes += 1
        for col in range(table.ncols):
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
