"""Word-level references for the free-group layer.

``fold`` is Stallings folding by rescanning multi-edge sets.  The generators
are first laid out as loops at the base, one new vertex per letter, in a
graph that allows several edges with the same label at a vertex.  Then every
vertex is rescanned until no two equally labelled edges leave or enter it,
merging their far ends each time.  This is the slow, obviously correct
definition that ``crosscap.pi1free.StallingsGraph.fold`` must reproduce up to
the numbering of the vertices.

``expand_basis`` substitutes the ambient spelling of each plus-basis letter,
the inverse of ``crosscap.pi1free.rewrite_two_sided``.

``derive_theta_basis`` re-derives the basis values of theta from its
defining constraints; ``crosscap.pi1free`` reads theta only from their
closed form.  ``basis_push_coefficients`` is
``crosscap.pi1free.push_coefficients_int`` as it was before theta was read
from that closed form: it sums, letter by letter, the derived values.

``certify_in_words`` is the kernel certificate spelled out in words: every
conjugate w r w^-1 of a normal relator by a transversal word, and every
Schreier generator of the kernel, is built, rewritten into the plus basis and
folded.  ``crosscap.pi1free.verify_ker_theta`` reads the same graphs off
theta and the relator loops and must give the same report.  Its coset count
is ``coset_count_ker_theta`` here: Todd-Coxeter on the plus-basis relators
without the Tietze elimination that the package runs first.

``theta_graph`` is ``crosscap.pi1free.theta_graph`` as it was before it
numbered the classes by their first g - 1 digits: a breadth-first search
from the class 0 over all g digits, labelling each class as it is reached,
then a pass that fills in the backward edges.

``loops_at_every_vertex`` is the loop check as ``verify_ker_theta`` read it
before it read the base alone: every relator followed from every vertex of
the theta graph.
"""

from typing import Iterable, Mapping, Optional, Sequence

from crosscap import pi1free
from crosscap.finitegrp import CosetTable, schreier_generators, todd_coxeter
from crosscap.pi1free import (
    Atom,
    FreeWord,
    StallingsGraph,
    fold_in_plus_basis,
    gtilde,
    kernel_guard,
    ker_theta_normal_relators,
    plus_basis_alphabet,
    push_coefficients,
    relators_for_enumeration,
    rewrite_two_sided,
    x_,
    y_,
)


def expand_basis(w: FreeWord, g: int) -> FreeWord:
    """Inverse substitution of the basis letters, for verification."""
    out = FreeWord.identity()
    for (kind, idx), exp in w.letters:
        if kind == "u":
            piece = x_(idx) * x_(g, -1)
        elif kind == "v":
            piece = x_(g) * x_(idx)
        elif kind == "y":
            piece = y_(idx)
        elif kind == "z":
            piece = x_(g) * y_(idx) * x_(g, -1)
        else:
            raise ValueError(f"not a basis letter: {kind}{idx}")
        out = out * piece**exp
    return out


def derive_theta_basis(g: int) -> dict[Atom, tuple[int, ...]]:
    """Re-derive the basis values of the coefficient map from its defining
    constraints instead of hard-coding them.

    Constraints: pushing along x_i x_g sends e_i -> -1, e_g -> +1; squares
    x_i^2 and the boundary loops y_k, z_k push nothing.  Writing x_i x_g =
    u_i v_g and x_i^2 = u_i v_i forces theta(v_g) = 0, theta(u_i) = -e_i +
    e_g and theta(v_i) = e_i - e_g.
    """
    zero = (0,) * g
    values: dict[Atom, tuple[int, ...]] = {("v", g): zero}
    for i in range(1, g):
        target = tuple(
            (-1 if t == i - 1 else 0) + (1 if t == g - 1 else 0) for t in range(g)
        )
        values[("u", i)] = target  # theta(x_i x_g) - theta(v_g)
        values[("v", i)] = tuple(-c for c in target)  # theta(x_i^2) - theta(u_i)
    return values


def basis_push_coefficients(w: FreeWord, g: int) -> tuple[int, ...]:
    """The integral coefficient vector of a two-sided word, read from the
    derived basis values; the boundary letters y_k and z_k push nothing."""
    values = derive_theta_basis(g)
    total = [0] * g
    for atom, exp in rewrite_two_sided(w, g).letters:
        for t, c in enumerate(values.get(atom, ())):
            total[t] += exp * c
    return tuple(total)


def fold(words: Sequence[FreeWord], alphabet: Sequence[Atom]) -> StallingsGraph:
    alpha = tuple(alphabet)
    allowed = set(alpha)
    for w in words:
        for atom, _ in w.letters:
            if atom not in allowed:
                raise ValueError(f"letter {atom} outside the graph alphabet")
    # adjacency with multi-edges during construction
    parent = [0]
    out_multi: list[dict[Atom, set[int]]] = [{}]
    in_multi: list[dict[Atom, set[int]]] = [{}]

    def new_vertex() -> int:
        parent.append(len(parent))
        out_multi.append({})
        in_multi.append({})
        return len(parent) - 1

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def add_edge(a: int, atom: Atom, b: int) -> None:
        out_multi[a].setdefault(atom, set()).add(b)
        in_multi[b].setdefault(atom, set()).add(a)

    for w in words:
        if w.is_identity():
            continue
        steps = list(w.single_letters())
        current = 0
        for pos, (atom, step) in enumerate(steps):
            target = 0 if pos == len(steps) - 1 else new_vertex()
            if step == 1:
                add_edge(current, atom, target)
            else:
                add_edge(target, atom, current)
            current = target

    def merge(keep: int, drop: int) -> None:
        parent[drop] = keep
        for atom, targets in out_multi[drop].items():
            out_multi[keep].setdefault(atom, set()).update(targets)
        for atom, sources in in_multi[drop].items():
            in_multi[keep].setdefault(atom, set()).update(sources)
        out_multi[drop] = {}
        in_multi[drop] = {}

    # fold: merge targets of equal-labelled parallel edges until none
    # remain; a merge can only create new clashes at the merged vertex
    queue = list(range(len(parent)))
    while queue:
        v = find(queue.pop(0))
        while True:
            clash = None
            for store in (out_multi, in_multi):
                for atom, targets in store[v].items():
                    reps = {find(t) for t in targets}
                    store[v][atom] = reps
                    if len(reps) > 1:
                        ordered = sorted(reps)
                        clash = (ordered[0], ordered[1])
                        break
                if clash:
                    break
            if clash is None:
                break
            merge(*clash)
            queue.append(clash[0])
            v = find(v)

    live = sorted({find(v) for v in range(len(parent))})
    base = find(0)
    order = [base] + [v for v in live if v != base]
    relabel = {v: i for i, v in enumerate(order)}
    out: list[dict[Atom, int]] = [{} for _ in order]
    into: list[dict[Atom, int]] = [{} for _ in order]
    for v in order:
        for atom, targets in out_multi[v].items():
            reps = {find(t) for t in targets}
            assert len(reps) <= 1
            if reps:
                out[relabel[v]][atom] = relabel[reps.pop()]
    for v_idx, row in enumerate(out):
        for atom, t in row.items():
            into[t][atom] = v_idx
    return StallingsGraph(alpha, _rows(alpha, out, into))


def _rows(
    alpha: Sequence[Atom], out: Sequence[Mapping[Atom, int]], into: Sequence[Mapping[Atom, int]]
) -> tuple[tuple[Optional[int], ...], ...]:
    """Per-vertex edge dicts as coset-table rows: the out- then the in-edge
    of each letter in alphabet order."""
    return tuple(
        tuple(edges.get(atom) for atom in alpha for edges in (out_v, into_v))
        for out_v, into_v in zip(out, into)
    )


def _plus_steps(words: Iterable[FreeWord], g: int) -> list[list[tuple[Atom, int]]]:
    """Each two-sided word rewritten over the plus basis, as (atom, +-1) steps."""
    return [list(rewrite_two_sided(w, g).single_letters()) for w in words]


def plus_generators(g: int, n: int) -> list[FreeWord]:
    """The standard generators of the two-sided subgroup (ambient spelling)."""
    gens = [x_(i) * x_(g) for i in range(1, g)]
    gens += [x_(j) * x_(j) for j in range(1, g + 1)]
    gens += [y_(k) for k in range(1, n)]
    gens += [x_(g) * y_(k) * x_(g, -1) for k in range(1, n)]
    return gens


def claimed_ker_theta_generators(g: int, n: int, d: int) -> list[FreeWord]:
    """The conjugated generator list claimed to generate the kernel: w r w^-1
    for every transversal word w and every normal relator r of
    ``ker_theta_normal_relators``."""
    kernel_guard(g, n, d)
    relators = ker_theta_normal_relators(g, n, d)
    out = []
    for w in gtilde(g, d):
        w_inv = w.inverse()
        for relator in relators:
            out.append(w * relator * w_inv)
    return out


def schreier_ker_theta_generators(g: int, n: int, d: int) -> list[FreeWord]:
    """The full Schreier generating set of the kernel from the transversal."""
    kernel_guard(g, n, d)
    table = {push_coefficients(w, g, d): w for w in gtilde(g, d)}
    if len(table) != d ** (g - 1):
        raise ValueError("transversal words do not hit distinct cosets")
    return list(
        schreier_generators(
            lambda w: push_coefficients(w, g, d),
            lambda key: table[key],
            plus_generators(g, n),
            FreeWord.identity(),
        )
    )


def coset_count_ker_theta(g: int, n: int, d: int) -> CosetTable:
    """Todd-Coxeter on the plus-basis relators as they are, the enumeration
    that ``crosscap.pi1free.coset_count_ker_theta`` runs after Tietze
    elimination."""
    return todd_coxeter(*relators_for_enumeration(g, n, d))


def certify_in_words(g: int, n: int, d: int) -> tuple[dict, StallingsGraph, StallingsGraph]:
    """The kernel certificate on spelled-out words, and the folded graphs of
    the claimed and of the Schreier generators it compares.  The report has
    the fields of ``crosscap.pi1free.verify_ker_theta``: the claimed
    generators have zero coefficient vectors, and their folded graph equals
    the folded graph of the Schreier generators at index d^(g-1)."""
    kernel_guard(g, n, d)
    claimed = claimed_ker_theta_generators(g, n, d)
    zero = (0,) * g
    nonzero = [w for w in claimed if push_coefficients(w, g, d) != zero]
    graph_claimed = fold_in_plus_basis(claimed, g, n)
    graph_schreier = fold_in_plus_basis(schreier_ker_theta_generators(g, n, d), g, n)
    expected_index = d ** (g - 1)
    cosets = coset_count_ker_theta(g, n, d).coset_count
    report = {
        "g": g,
        "n": n,
        "d": d,
        "claimed_count": len(claimed),
        "kernel_rank": graph_schreier.rank(),
        "claimed_all_in_kernel": not nonzero,
        "subgroups_equal": graph_claimed == graph_schreier,
        "claimed_index": graph_claimed.index(),
        "schreier_index": graph_schreier.index(),
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
    return report, graph_claimed, graph_schreier


def loops_at_every_vertex(g: int, n: int, d: int) -> bool:
    """Whether every normal relator, as coset-table columns, reads as a loop
    at every vertex of ``crosscap.pi1free.theta_graph``."""
    graph = pi1free.theta_graph(g, n, d)
    loops = pi1free._relator_loops(g, n, d)
    return all(graph.follow(v, cols) == v for v in range(graph.vertex_count) for cols in loops)


class Folder:
    """A based graph that stays folded while paths and loops are spelled into
    it, behind :func:`folder_fold` and :func:`claimed_kernel_graph`.

    A spelling follows existing edges from its start, forwards, and (for a
    loop) from its end, backwards, and adds vertices only for the unmatched
    middle.  Edges join live vertices only and never clash; identifications
    owed (a clash, or a loop whose two readings meet) wait on a union-find
    worklist that keeps the smaller id, so the base stays 0.
    """

    def __init__(self) -> None:
        self.parent = [0]
        self.out: list[dict[Atom, int]] = [{}]
        self.into: list[dict[Atom, int]] = [{}]
        self.worklist: list[tuple[int, int]] = []

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def _read(self, v: int, steps: Iterable[tuple[Atom, int]]) -> tuple[int, int]:
        """Follow existing edges from v: the vertex reached, letters read."""
        out, into = self.out, self.into
        count = 0
        for atom, step in steps:
            nxt = (out if step == 1 else into)[v].get(atom)
            if nxt is None:
                break
            v, count = nxt, count + 1
        return v, count

    def _add_edge(self, a: int, atom: Atom, b: int) -> None:
        # on a taken slot the existing edge stands in for this one once its
        # other end is identified with ours
        taken = self.out[a].get(atom)
        if taken is not None:
            if taken != b:
                self.worklist.append((taken, b))
        elif atom in self.into[b]:
            self.worklist.append((self.into[b][atom], a))
        else:
            self.out[a][atom] = b
            self.into[b][atom] = a

    def _identify_owed(self) -> None:
        out, into, worklist = self.out, self.into, self.worklist
        while worklist:
            keep, drop = sorted(self.find(v) for v in worklist.pop())
            if keep == drop:
                continue
            self.parent[drop] = keep
            outs, ins = out[drop], into[drop]
            for edges, back in ((outs, into), (ins, out)):
                for atom, t in edges.items():
                    if t != drop:
                        del back[t][atom]
            for atom, t in outs.items():
                self._add_edge(keep, atom, keep if t == drop else t)
            for atom, s in ins.items():
                self._add_edge(keep if s == drop else s, atom, keep)

    def spell(
        self, steps: Sequence[tuple[Atom, int]], start: int = 0, end: Optional[int] = None
    ) -> int:
        """Spell the (atom, +-1) ``steps`` from ``start``: as a loop closing
        at ``end`` when it is given, else as a path to a vertex it returns."""
        head, i = self._read(self.find(start), steps)
        j, tails = len(steps), []
        if end is not None:
            tail, matched = self._read(
                self.find(end), ((atom, -step) for atom, step in reversed(steps[i:]))
            )
            j -= matched
            if i == j:
                self.worklist.append((head, tail))
            tails = [tail]
        # a vertex after each unread letter, except the last one of a loop
        fresh = range(len(self.parent), len(self.parent) + j - i - len(tails))
        self.parent.extend(fresh)
        self.out.extend({} for _ in fresh)
        self.into.extend({} for _ in fresh)
        path = [head, *fresh, *tails]
        for (atom, step), a, b in zip(steps[i:j], path, path[1:]):
            if step == 1:
                self._add_edge(a, atom, b)
            else:
                self._add_edge(b, atom, a)
        self._identify_owed()
        return self.find(path[-1])

    def graph(self, alphabet: Sequence[Atom]) -> StallingsGraph:
        return _numbered(tuple(alphabet), self.out, self.into)


def _numbered(
    alpha: tuple[Atom, ...], out: Sequence[Mapping[Atom, int]], into: Sequence[Mapping[Atom, int]]
) -> StallingsGraph:
    """The part of a graph reachable from vertex 0, its vertices numbered
    breadth-first from there, letters in alphabet order, out-edges before
    in-edges."""
    order, label = [0], {0: 0}
    for v in order:
        for atom in alpha:
            for nbr in (out[v].get(atom), into[v].get(atom)):
                if nbr is not None and nbr not in label:
                    label[nbr] = len(order)
                    order.append(nbr)
    return StallingsGraph(
        alpha,
        _rows(
            alpha,
            [{a: label[t] for a, t in out[v].items()} for v in order],
            [{a: label[s] for a, s in into[v].items()} for v in order],
        ),
    )


def folder_fold(words: Sequence[FreeWord], alphabet: Sequence[Atom]) -> StallingsGraph:
    """``StallingsGraph.fold`` on :class:`Folder`: each word is spelled as a
    loop at the base."""
    folder = Folder()
    for w in words:
        folder.spell(list(w.single_letters()), 0, 0)
    return folder.graph(alphabet)


def claimed_kernel_graph(g: int, n: int, d: int) -> StallingsGraph:
    """The folded graph of the claimed generators w r w^-1 (w a transversal
    word of :func:`gtilde`, r a normal relator of
    :func:`ker_theta_normal_relators`), built without spelling them out.

    The transversal words are prefix-closed, so their plus-basis spellings
    form a tree of paths from the base; each relator, rewritten once, is
    folded in as a loop at the end of every path.
    """
    kernel_guard(g, n, d)
    relators = _plus_steps(ker_theta_normal_relators(g, n, d), g)
    folder = Folder()
    ends = [0]
    # (x_1 x_g)^{m_1} ... (x_i x_g)^{m_i} extends the path of the words
    # with one block fewer by m_i copies of x_i x_g
    for block in _plus_steps((x_(i) * x_(g) for i in range(1, g)), g):
        longer = []
        for v in ends:
            longer.append(v)
            for _ in range(d - 1):
                v = folder.spell(block, v)
                longer.append(v)
        ends = longer
    for v in ends:
        for relator in relators:
            folder.spell(relator, v, v)
    return folder.graph(plus_basis_alphabet(g, n))


def theta_graph(g: int, n: int, d: int) -> StallingsGraph:
    """The folded graph of ker theta mod d, its classes of (Z/d)^g reached
    from 0 by breadth-first search.  A class k is held as the integer sum
    of k_t d^t, so a letter moves the digits where theta(a) is nonzero (two
    at most), each with wrap-around."""
    kernel_guard(g, n, d)
    alpha = tuple(plus_basis_alphabet(g, n))
    # theta(a) = s (e_i - e_g) moves digit i - 1 by s and digit g - 1 by -s
    moves = [[(d ** (a[1] - 1), s % d), (d ** (g - 1), -s % d)] if (s := pi1free._theta_sign(a, g)) else []
             for a in alpha]
    label = {0: 0}
    classes = [0]
    rows: list[list[Optional[int]]] = []
    for k in classes:
        row: list[Optional[int]] = [None] * (2 * len(alpha))
        for col, letter in enumerate(moves):
            t = k
            for place, v in letter:
                digit = k // place % d
                t += (v - d if digit + v >= d else v) * place
            if t not in label:
                label[t] = len(classes)
                classes.append(t)
            row[2 * col] = label[t]
        rows.append(row)
    for v, row in enumerate(rows):
        for col in range(0, len(row), 2):
            rows[row[col]][col + 1] = v
    return pi1free._numbered(alpha, rows)
