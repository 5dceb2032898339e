"""Free-group machinery for the punctured-surface fundamental group.

The fundamental group of the bounded surface is modelled as the free group
on ``x_1..x_g`` (crosscap loops) and ``y_1..y_{n-1}`` (boundary loops).  The
two-sided loops form the index-2 subgroup of words with even total
x-exponent; rewriting over the transversal ``{1, x_g}`` expresses its
elements in the free basis

    u_i = x_i x_g^-1 (i < g),   v_i = x_g x_i (i <= g),   y_k,   z_k,

of rank ``2g + 2n - 3`` (``u_g`` collapses to the trivial word and is
skipped; ``z_k`` abbreviates ``x_g y_k x_g^-1``).

The coefficient map ``theta`` records how pushing the base point along a
two-sided loop moves each crosscap class across the last boundary.  Its
basis values are pinned by three defining constraints -- theta(x_i x_g) =
-e_i + e_g, theta(x_i^2) = 0 and theta(y_k) = theta(z_k) = 0 -- which force
theta(u_i) = -e_i + e_g and theta(v_i) = e_i - e_g; theta is read only
from these closed forms (``_theta_sign``).  The integral map is
implemented once and reduced mod d on demand, making its image the
rank-(g-1) sum-zero lattice, a checkable statement.

Subgroup questions are decided on folded graphs over the plus-basis
alphabet, since the kernel of theta lives inside the two-sided subgroup and
all index statements are relative to it.  A folded graph is the rows of
the partial coset table of Todd-Coxeter enumeration
(``finitegrp._CosetRows``): letter t is column 2t forwards and 2t + 1
backwards, and ``_columns`` is the one encoding of words as columns.  A
generator is closed into a loop at the base by the HLT scan, folds are its
coincidences, and the live rows are renumbered breadth-first from the
base, so two graphs are equal exactly when their subgroups are.  The
kernel certificate never spells out a long word: the reference graph of
ker theta is its coset graph, read off theta by digits (``theta_graph``),
and the claimed generators w r w^-1 are scanned on the table as relator
loops r at the end of each transversal path w as it is reached
(``claimed_kernel_graph``), in O(index x rank) work; coset enumeration of
the relators is the independent cross-check.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen, set_field
from .finitegrp import (
    CosetTable,
    ScaleGuardError,
    _CosetRows,
    eliminate_generators,
    todd_coxeter,
)
from .finitegrp import schreier_generators  # noqa: F401  (still bound here: perfbench's tracer checks it)
from .words import ReducedWord, _reduce


class NotTwoSidedError(ValueError):
    """A one-sided loop was used where a two-sided one is required."""


Atom = tuple[str, int]  # (kind, index), kind in {"x", "y", "u", "v", "z"}


class FreeWord(ReducedWord, Frozen):
    """Freely reduced word over named letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[Atom, int], ...]) -> None:
        set_field(self, "letters", letters)

    @staticmethod
    def identity() -> "FreeWord":
        return FreeWord(())

    @staticmethod
    def from_letters(letters: Iterable[tuple[Atom, int]]) -> "FreeWord":
        return FreeWord(_reduce(letters))

    def _with(self, letters: tuple[tuple[Atom, int], ...]) -> "FreeWord":
        return FreeWord(letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self._times(other)

    def single_letters(self) -> Iterator[tuple[Atom, int]]:
        """Stream (atom, +-1) steps."""
        for atom, exp in self.letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield atom, step

    def __str__(self) -> str:
        return format_free(self)


def x_(i: int, e: int = 1) -> FreeWord:
    return FreeWord.from_letters([(("x", i), e)])


def y_(k: int, e: int = 1) -> FreeWord:
    return FreeWord.from_letters([(("y", k), e)])


def x_run(*indices: int) -> FreeWord:
    """``x_{i_1, ..., i_k}`` as the product of the crosscap loops."""
    out = FreeWord.identity()
    for i in indices:
        out = out * x_(i)
    return out


_FREE_TOKEN = re.compile(r"\s*(?P<kind>[xyuvz])(?P<idx>\d+)(?:\^(?P<exp>-?\d+))?")


def parse_free(text: str) -> FreeWord:
    """Parse ``x1 x2^-1 y1`` style words (also accepts u/v/z basis letters)."""
    letters = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        m = _FREE_TOKEN.match(stripped, pos)
        if not m:
            raise ValueError(f"bad free word {text!r} near position {pos}")
        letters.append(
            ((m.group("kind"), int(m.group("idx"))), int(m.group("exp") or 1))
        )
        pos = m.end()
    return FreeWord.from_letters(letters)


def format_free(w: FreeWord) -> str:
    return " ".join(
        f"{a[0]}{a[1]}" + (f"^{e}" if e != 1 else "") for a, e in w.letters
    )


def validate_ambient(w: FreeWord, g: int, n: int) -> None:
    for (kind, idx), _ in w.letters:
        if kind == "x":
            if not 1 <= idx <= g:
                raise ValueError(f"x{idx} out of range for genus {g}")
        elif kind == "y":
            if not 1 <= idx <= n - 1:
                raise ValueError(f"y{idx} out of range for {n} boundaries")
        else:
            raise ValueError(f"{kind}{idx} is a basis letter, not an ambient one")


# ---------------------------------------------------------------------------
# the two-sided subgroup and its free basis
# ---------------------------------------------------------------------------


def is_two_sided(w: FreeWord) -> bool:
    """True when the total x-exponent is even (the orientation character)."""
    return sum(e for (kind, _), e in w.letters if kind == "x") % 2 == 0


def plus_basis_alphabet(g: int, n: int) -> list[Atom]:
    """Free basis letters of the two-sided subgroup, in the fixed order used
    for graphs and coset enumeration."""
    atoms: list[Atom] = [("u", i) for i in range(1, g)]
    atoms += [("v", i) for i in range(1, g + 1)]
    atoms += [("y", k) for k in range(1, n)]
    atoms += [("z", k) for k in range(1, n)]
    return atoms


def rewrite_two_sided(w: FreeWord, g: int) -> FreeWord:
    """Rewrite a two-sided word over the plus-basis alphabet.

    Scans the word tracking which of the two cosets {1, x_g} the prefix lies
    in and emits one basis letter per step; the concatenation of the emitted
    letters equals the input in the free group.
    """
    if not is_two_sided(w):
        raise NotTwoSidedError(f"{format_free(w)} has odd x-exponent")
    out: list[tuple[Atom, int]] = []
    at_xg = False
    for (kind, idx), step in w.single_letters():
        if kind == "y":
            out.append((("z" if at_xg else "y", idx), step))
            continue
        if kind != "x":
            raise ValueError(f"cannot rewrite letter {kind}{idx}")
        if not at_xg:
            if step == 1:
                if idx != g:
                    out.append((("u", idx), 1))
            else:
                out.append((("v", idx), -1))
            at_xg = True
        else:
            if step == 1:
                out.append((("v", idx), 1))
            else:
                if idx != g:
                    out.append((("u", idx), -1))
            at_xg = False
    assert not at_xg
    return FreeWord.from_letters(out)


# ---------------------------------------------------------------------------
# the push-coefficient map
# ---------------------------------------------------------------------------


def _theta_sign(atom: Atom, g: int) -> int:
    """The s with theta(atom) = s (e_i - e_g), atom = (kind, i): -1 for u_i
    and 1 for v_i when i < g, 0 on v_g, y_k and z_k: since x_i x_g =
    u_i v_g and x_i^2 = u_i v_i, the defining constraints force them."""
    kind, i = atom
    return (kind == "v") - (kind == "u") if i < g else 0


def push_coefficients_int(w: FreeWord, g: int) -> tuple[int, ...]:
    """The integral coefficient vector of a two-sided word."""
    total = [0] * g
    for atom, exp in rewrite_two_sided(w, g).letters:
        step = exp * _theta_sign(atom, g)
        if step:
            total[atom[1] - 1] += step
            total[g - 1] -= step
    return tuple(total)


def push_coefficients(w: FreeWord, g: int, d: int) -> tuple[int, ...]:
    """The coefficient vector mod d; coordinates always sum to 0 mod d."""
    if d < 2:
        raise ValueError("modulus must be >= 2")
    return tuple(c % d for c in push_coefficients_int(w, g))


# ---------------------------------------------------------------------------
# Stallings graphs
# ---------------------------------------------------------------------------


def _columns(words: Iterable[FreeWord], alphabet: Sequence[Atom]) -> list[list[int]]:
    """Each word as coset-table columns over ``alphabet``: 2t for a step
    along ``alphabet[t]`` forwards, 2t + 1 backwards."""
    column = {atom: 2 * t for t, atom in enumerate(alphabet)}
    try:
        return [[column[atom] + (step < 0) for atom, step in w.single_letters()] for w in words]
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} outside the graph alphabet") from None


def _plus_columns(words: Iterable[FreeWord], g: int, n: int) -> list[list[int]]:
    """Each two-sided word rewritten over the plus basis, as coset-table
    columns over :func:`plus_basis_alphabet`."""
    return _columns((rewrite_two_sided(w, g) for w in words), plus_basis_alphabet(g, n))


def _numbered(alpha: tuple[Atom, ...], rows: Sequence[Sequence[Optional[int]]]) -> "StallingsGraph":
    """The part of the coset-table ``rows`` reachable from row 0, renumbered
    breadth-first from there in column order; folded graphs of one subgroup
    come out equal."""
    order, label = [0], {0: 0}
    for v in order:
        for nbr in rows[v]:
            if nbr is not None and nbr not in label:
                label[nbr] = len(order)
                order.append(nbr)
    # label.get maps a missing entry, None, to None
    return StallingsGraph(alpha, tuple(tuple(map(label.get, rows[v])) for v in order))


class StallingsGraph(Frozen):
    """Folded, based subgroup graph over a fixed alphabet, held as the rows
    of a complete or partial coset table.

    Vertices are row numbers with base 0; ``rows[v][2t]`` and
    ``rows[v][2t + 1]`` are the neighbours of v along ``alphabet[t]``
    forwards and backwards, or None.  Graphs built here number their
    vertices breadth-first from the base, so two of them are equal exactly
    when their subgroups are.
    """

    __slots__ = ("alphabet", "rows")

    def __init__(
        self, alphabet: tuple[Atom, ...], rows: tuple[tuple[Optional[int], ...], ...]
    ) -> None:
        set_field(self, "alphabet", alphabet)
        set_field(self, "rows", rows)

    @property
    def vertex_count(self) -> int:
        return len(self.rows)

    @staticmethod
    def fold(words: Sequence[FreeWord], alphabet: Sequence[Atom]) -> "StallingsGraph":
        """The folded graph of the subgroup the words generate: each word is
        scanned into one coset table as a loop at the base."""
        alpha = tuple(alphabet)
        table = _CosetRows(2 * len(alpha))
        for cols in _columns(words, alpha):
            table.scan_and_fill(0, cols)
        return _numbered(alpha, table.rows)

    def follow(self, v: int, cols: Iterable[int]) -> Optional[int]:
        """The vertex that the columns lead to from v, or None where an edge
        is missing."""
        rows = self.rows
        for col in cols:
            v = rows[v][col]
            if v is None:
                return None
        return v

    def contains(self, w: FreeWord) -> bool:
        try:
            [cols] = _columns([w], self.alphabet)
        except ValueError:
            return False
        return self.follow(0, cols) == 0

    def index(self) -> Optional[int]:
        """Number of vertices when the graph is a complete cover, else None
        (infinite index)."""
        return None if any(None in row for row in self.rows) else self.vertex_count

    def rank(self) -> int:
        """Free rank of the subgroup: edges - vertices + 1."""
        edges = sum(e is not None for row in self.rows for e in row[::2])
        return edges - self.vertex_count + 1

    def to_json(self) -> dict:
        names = sorted((atom, f"{atom[0]}{atom[1]}", 2 * t) for t, atom in enumerate(self.alphabet))
        return {
            "vertices": self.vertex_count,
            "base": 0,
            "alphabet": [f"{k}{i}" for k, i in self.alphabet],
            "edges": [
                [v, name, row[col]]
                for v, row in enumerate(self.rows)
                for _, name, col in names
                if row[col] is not None
            ],
        }


# ---------------------------------------------------------------------------
# kernel-of-theta generating sets
# ---------------------------------------------------------------------------


def gtilde(g: int, d: int) -> list[FreeWord]:
    """The transversal words (x_1 x_g)^{m_1} ... (x_{g-1} x_g)^{m_{g-1}}."""
    blocks = [x_(i) * x_(g) for i in range(1, g)]
    out = []
    for exps in itertools.product(range(d), repeat=g - 1):
        w = FreeWord.identity()
        for block, m in zip(blocks, exps):
            w = w * block**m
        out.append(w)
    return out


# the largest work d^(g-1) x (plus-basis letters of the normal relators) the
# kernel certificates take on: the claimed graph reads every relator letter
# at every vertex.  THETA-BASIS, which spells all d^(g-1) transversal words,
# is held to it too
_KERNEL_WORK_BUDGET = 1 << 22


def _relator_letters(g: int, n: int, d: int) -> int:
    """The plus-basis letters of :func:`ker_theta_normal_relators`, counted
    without spelling them: x_j^2 rewrites to u_j v_j (v_g alone for j = g),
    y_k and z_k to one letter, (x_i x_j x_g)^2 to u_i v_j v_i u_j v_g and
    (x_i x_g)^d to (u_i v_g)^d."""
    return 2 * (g - 1) + 1 + 2 * (n - 1) + 5 * math.comb(g - 1, 2) + 2 * d * (g - 1)


def kernel_guard(g: int, n: int, d: int) -> None:
    """Refuse a kernel point with genus below 1, no boundary, a modulus below
    2 or a work estimate past the budget, in that order; the kernel
    certificates and THETA-BASIS call it before building any word."""
    if g < 1:
        raise ValueError(f"genus g must be >= 1, got {g}")
    if n < 1:
        raise ValueError("needs n >= 1")
    if d < 2:
        raise ValueError(f"modulus d must be >= 2, got {d}")
    letters = _relator_letters(g, n, d)
    # d >= 2, so the work is at least 2^(g-1) x 2^(bits of letters - 1); far
    # past the budget the power d^(g-1) is neither formed nor printed
    if g - 1 + letters.bit_length() - 1 > 64:
        raise ScaleGuardError(
            f"kernel work d^(g-1) x relator letters > 2^64 exceeds budget {_KERNEL_WORK_BUDGET}"
        )
    index = d ** (g - 1)
    if index * letters > _KERNEL_WORK_BUDGET:
        raise ScaleGuardError(
            f"kernel work d^(g-1) x relator letters = {index} x {letters} = {index * letters}"
            f" exceeds budget {_KERNEL_WORK_BUDGET}"
        )


def fold_in_plus_basis(
    words: Sequence[FreeWord], g: int, n: int
) -> StallingsGraph:
    rewritten = [rewrite_two_sided(w, g) for w in words]
    return StallingsGraph.fold(rewritten, plus_basis_alphabet(g, n))


def ker_theta_normal_relators(g: int, n: int, d: int) -> list[FreeWord]:
    """The finite normal-generator list for the kernel: squares, boundary
    loops, (x_i x_j x_g)^2 and (x_i x_g)^d."""
    if n < 1:
        raise ValueError("needs n >= 1")
    rels = [x_run(j, j) for j in range(1, g + 1)]
    rels += [y_(k) for k in range(1, n)]
    rels += [x_(g) * y_(k) * x_(g, -1) for k in range(1, n)]
    rels += [x_run(i, j, g) ** 2 for i in range(1, g) for j in range(i + 1, g)]
    rels += [x_run(i, g) ** d for i in range(1, g)]
    return rels


def _relator_loops(g: int, n: int, d: int) -> list[list[int]]:
    """The normal relators rewritten over the plus basis, as coset-table
    columns; the kernel certificate reads them as loops, as the relators of
    the enumeration and as the claimed generators' tails."""
    return _plus_columns(ker_theta_normal_relators(g, n, d), g, n)


def _signed_letters(loops: list[list[int]]) -> list[list[int]]:
    """Coset-table columns as the signed letters of coset enumeration:
    column 2t is letter t + 1 and column 2t + 1 its inverse."""
    return [[col // 2 + 1 if col % 2 == 0 else -(col // 2 + 1) for col in cols] for cols in loops]


def relators_for_enumeration(g: int, n: int, d: int) -> tuple[int, list[list[int]]]:
    """Prop-style relators rewritten over the plus basis as signed letters,
    ready for coset enumeration; returns (rank, relators)."""
    return len(plus_basis_alphabet(g, n)), _signed_letters(_relator_loops(g, n, d))


def coset_count_ker_theta(g: int, n: int, d: int) -> CosetTable:
    """Todd-Coxeter on the relators of :func:`relators_for_enumeration`
    after Tietze elimination (``finitegrp.eliminate_generators``): the
    coset count is the index d^(g-1), and the table is over the reduced
    generators, not the plus basis."""
    return _enumerate_kernel(*relators_for_enumeration(g, n, d))


def _enumerate_kernel(rank: int, relators: list[list[int]]) -> CosetTable:
    """Todd-Coxeter on signed-letter relators after Tietze elimination."""
    return todd_coxeter(*eliminate_generators(rank, relators))


def theta_graph(g: int, n: int, d: int) -> StallingsGraph:
    """The folded graph of ker theta mod d inside the two-sided subgroup,
    built from theta alone: its Schreier coset graph.

    The vertices are the d^(g-1) sum-zero classes of (Z/d)^g, and each
    plus-basis letter a is the edge k -> k + theta(a) mod d.  A finite-index
    subgroup's folded graph is its coset graph (Stallings 1983), so with the
    fold's numbering this is the graph that folding the Schreier generators
    gives.  A sum-zero class is fixed by its first g - 1 digits, so vertex k
    is the class whose digits are those of k in base d: u_i and v_i (i < g)
    move digit i - 1 by -1 and +1 with wrap-around, and every other letter
    is a loop.
    """
    kernel_guard(g, n, d)
    alpha = tuple(plus_basis_alphabet(g, n))
    index = d ** (g - 1)
    stay = list(range(index))

    def rotated(place: int, shift: int) -> list[int]:
        # each block of d * place consecutive vertices rotated left by
        # shift, in slices of ``stay``, so all columns share its ints
        out: list[int] = []
        for b in range(0, index, d * place):
            out += stay[b + shift:b + d * place]
            out += stay[b:b + shift]
        return out

    # up[i] and down[i] are the columns that move digit i by +1 and -1
    up = [rotated(d**i, d**i) for i in range(g - 1)]
    down = [rotated(d**i, (d - 1) * d**i) for i in range(g - 1)]
    columns = []
    for a in alpha:
        s = _theta_sign(a, g)
        if not s:
            columns += (stay, stay)
        elif s > 0:
            columns += (up[a[1] - 1], down[a[1] - 1])
        else:
            columns += (down[a[1] - 1], up[a[1] - 1])
    return _numbered(alpha, list(zip(*columns)))


def claimed_kernel_graph(g: int, n: int, d: int) -> StallingsGraph:
    """The folded graph of the claimed generators w r w^-1 (w a transversal
    word of :func:`gtilde`, r a normal relator of
    :func:`ker_theta_normal_relators`), built without spelling them out.

    The transversal words are prefix-closed, so their plus-basis spellings
    form a tree of paths from the base; each relator, rewritten once, is
    folded in as a loop at the end of every path, as soon as the path is
    spelled.
    """
    kernel_guard(g, n, d)
    return _claimed_graph(g, n, d, _relator_loops(g, n, d))


def _claimed_graph(g: int, n: int, d: int, relators: list[list[int]]) -> StallingsGraph:
    """:func:`claimed_kernel_graph` from its relators, already rewritten.

    Every relator is scanned at the base, and then at the end of each
    transversal path as soon as ``path`` reaches it, so later paths follow
    edges that earlier loops defined.  A coincidence keeps "w leads from
    the base to rep(end of w)" true, so each end is read through ``rep``.
    """
    alpha = tuple(plus_basis_alphabet(g, n))
    table = _CosetRows(2 * len(alpha))
    rep, scan = table.rep, table.scan_and_fill
    for relator in relators:
        scan(0, relator)
    ends = [0]
    # (x_1 x_g)^{m_1} ... (x_i x_g)^{m_i} extends the path of the words
    # with one block fewer by m_i copies of x_i x_g
    for block in _plus_columns((x_(i) * x_(g) for i in range(1, g)), g, n):
        longer = []
        for v in ends:
            longer.append(v)
            for _ in range(d - 1):
                v = table.path(rep(v), block)
                for relator in relators:
                    scan(rep(v), relator)
                longer.append(v)
        ends = longer
    return _numbered(alpha, table.rows)


def verify_ker_theta(g: int, n: int, d: int) -> dict:
    """Certify the kernel generating claims at one parameter point.

    Checks that every normal relator reads as a loop at the base of the
    theta graph, the Cayley graph of theta's abelian image, where a relator r
    leads every vertex v to v + theta(r): so it is a loop at every vertex,
    and every claimed generator has zero coefficient vector.  Checks that
    the claimed graph equals the theta graph (both are numbered canonically,
    so their rows agree exactly when the subgroups do), that both have index
    d^(g-1), and that coset enumeration of the normal relators gives the
    same index.  ``kernel_rank`` is the free rank of the kernel,
    index * (rank - 1) + 1 by the Schreier formula.

    ``theta_graph`` guards the point before any word is built, and the
    relators are rewritten once for the loop check, the claimed graph and
    the enumeration.
    """
    reference = theta_graph(g, n, d)
    loops = _relator_loops(g, n, d)
    claimed = _claimed_graph(g, n, d, loops)
    expected_index = d ** (g - 1)
    cosets = _enumerate_kernel(len(plus_basis_alphabet(g, n)), _signed_letters(loops)).coset_count
    report = {
        "g": g,
        "n": n,
        "d": d,
        "claimed_count": expected_index * len(loops),
        "kernel_rank": reference.rank(),
        "claimed_all_in_kernel": all(reference.follow(0, cols) == 0 for cols in loops),
        "subgroups_equal": claimed == reference,
        "claimed_index": claimed.index(),
        "schreier_index": reference.index(),
        "expected_index": expected_index,
        "coset_count": cosets,
    }
    report["ok"] = (
        report["claimed_all_in_kernel"]
        and report["subgroups_equal"]
        and report["claimed_index"] == expected_index
        and report["schreier_index"] == expected_index
        and cosets == expected_index
    )
    return report
