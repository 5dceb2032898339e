"""Reference Stallings folding by rescanning multi-edge sets.

The generators are first laid out as loops at the base, one new vertex per
letter, in a graph that allows several edges with the same label at a vertex.
Then every vertex is rescanned until no two equally labelled edges leave or
enter it, merging their far ends each time.  This is the slow, obviously
correct definition that ``crosscap.pi1free.StallingsGraph.fold`` must
reproduce up to the numbering of the vertices.
"""

from typing import Sequence

from crosscap.pi1free import Atom, FreeWord, StallingsGraph


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
    return StallingsGraph(alpha, out, into, tuple(words))
