"""Registry of named verification checks with machine-readable results.

Every check ties one named identity, group-order computation or
generating-set claim to an executable assertion.  Records are deterministic
for fixed parameters (sampled checks take an explicit seed); "inconclusive"
is reserved for explicit scale guards and caps, never silent truncation.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from typing import Callable, Optional, TypeVar

from . import families
from ._frozen import Frozen, set_field
from .finitegrp import (
    CLOSURE_CAP,
    LayerError,
    LevelLayer,
    ScaleGuardError,
    bfs_closure,
    identity_offsets,
    layer_closure,
    layer_normal_closure,
    layer_span,
    normal_closure,
    vector_coordinates,
)
from .finitegrp import schreier_generators  # noqa: F401  (still bound here: perfbench's tracer checks it)
from .homology import (
    H1Class,
    act,
    acts_trivially,
    collapse_total_class,
    level_member,
    lift_obstruction,
    reduced_action,
    word_matrix,
)
from .intmat import IntMatrix, elementary
from .pi1free import (
    coset_count_ker_theta,
    gtilde,
    ker_theta_normal_relators,
    kernel_guard,
    push_coefficients,
    push_coefficients_int,
    theta_graph,
    verify_ker_theta,
    x_,
    x_run,
)
from .words import MCGWord, Slide, TorelliTag, Twist, commutator, word


T = TypeVar("T")

# the most words GEN-FIX-ONES acts with: gmax = 18 acts with 264,097 in 2
# to 5 s, and each step of gmax doubles them
ALPHABET_WORD_LIMIT = 1 << 19
# the most entries of THM23-OBSTRUCT's (g-1) x (g-1) target: g = 2000 holds
# about 4.0 million in 0.5 s and 78 MB, and the work grows as g^2
OBSTRUCTION_ENTRY_LIMIT = 1 << 22
# the most words THM51-COUNTS lists: (18,1,2) and (4,1,50) list about
# 131,000 and 125,000 in 3 to 6 s, the second in 167 MB
BOUNDARY_WORD_LIMIT = 1 << 18
# the most entries of the g x g action THM23-KER evaluates: g = 2048 holds
# about 4.2 million in 0.8 s and 82 MB, and the work grows as g^2
LEVEL_MATRIX_ENTRY_LIMIT = 1 << 22
# the most relations T2-EQ-YY decides, C(gmax + 1, 3) - 1: gmax = 92
# decides 129,765 in 1.9 s, and gmax = 116 twice as many in 7 s
TWIST_SQUARE_LIMIT = 1 << 17
# the most relations LEM42-3CHAIN decides, 2 C(gmax, 4): gmax = 26 decides
# 29,900 in 5 s, most of it choosing the D signs
THREE_CHAIN_LIMIT = 1 << 15
# the most relations LEM43-COMM decides, the sum of C((g - 1)^2, 2) over
# g = 4..gmax: gmax = 19 decides 215,112 in 3.2 s
SLIDE_COMMUTATOR_LIMIT = 1 << 18

class UnknownCheckError(ValueError):
    """The requested check id is not in the catalog."""


class ParamRangeError(ValueError):
    """A parameter value lies outside its check's floor and ceiling, or has
    the wrong parity; the message names the check, the parameter and the
    bound."""


class CheckRecord(Frozen):
    __slots__ = ("id", "params", "status", "details", "runtime_ms", "anchor")

    def __init__(
        self, id: str, params: dict, status: str, details: dict, runtime_ms: int, anchor: str
    ) -> None:
        set_field(self, "id", id)
        set_field(self, "params", params)
        # pass / fail / inconclusive
        set_field(self, "status", status)
        set_field(self, "details", details)
        set_field(self, "runtime_ms", runtime_ms)
        set_field(self, "anchor", anchor)

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._values(self)))


class CheckSpec(Frozen):
    """A registry entry; each of the four parameter dicts left out is a new,
    empty one."""

    __slots__ = ("runner", "anchor", "defaults", "floors", "ceilings", "parities")

    def __init__(
        self,
        runner: Callable[[dict], tuple[bool, dict]],
        anchor: str,
        defaults: Optional[dict] = None,
        floors: Optional[dict] = None,
        ceilings: Optional[dict] = None,
        parities: Optional[dict] = None,
    ) -> None:
        set_field(self, "runner", runner)
        set_field(self, "anchor", anchor)
        set_field(self, "defaults", {} if defaults is None else defaults)
        # the least value of each parameter but ``seed``, checked in this order
        set_field(self, "floors", {} if floors is None else floors)
        # the greatest value of a floored parameter, where the check has one
        set_field(self, "ceilings", {} if ceilings is None else ceilings)
        # the residue mod 2 a parameter must have, where the check needs one
        set_field(self, "parities", {} if parities is None else parities)


# ---------------------------------------------------------------------------
# helpers shared by several checks
# ---------------------------------------------------------------------------


def conjugated_gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """The conjugated congruence generators e_{k1} e_{1k}^d e_{k1}^{-1}; for
    odd d these are the elementary-based elements realized by mapping classes
    (the plain e_{ij}^d are obstructed).  Each is
    I + d (E_1k + E_kk - E_11 - E_k1), written row by row."""
    eye = list(IntMatrix.identity(n).rows)
    out = []
    for k in range(1, n):
        rows = eye.copy()
        middle, rest = (0,) * (k - 1), (0,) * (n - k - 1)
        rows[0] = (1 - d,) + middle + (d,) + rest
        rows[k] = (-d,) + middle + (1 + d,) + rest
        out.append(IntMatrix(tuple(rows)))
    return out


def congruence_vectors(n: int) -> list[int]:
    """The layer vectors, at every even d, of the standard generators of the
    level-d congruence subgroup of SL(n, Z) for n >= 3: the d-th elementary
    powers e_ij^d = I + d E_ij, with the one bit i*n + j (0-based), then
    their first-row conjugates I + d (E_1k + E_kk - E_11 - E_k1)
    (``conjugated_gamma_generators``), with the bits 0, k, k*n and k*n + k."""
    plain = [1 << i * n + j for i in range(n) for j in range(n) if i != j]
    return plain + [1 | 1 << k | 1 << k * n | 1 << k * n + k for k in range(1, n)]


def conjugating_letters(g: int) -> list[MCGWord]:
    """The g + 1 letters THM31-CLOSURE conjugates by: the twists T(i, i+1)
    for i < g, T(1,2,3,4) and the slide Y(g-1, g), a generating set of
    Chillingworth's form (Proc. Cambridge Philos. Soc. 65, 1969).  The
    check's certificates do not rest on their generating: a closure under
    any subset of the alphabet lies in the closure under all of it."""
    twists = [(i, i + 1) for i in range(1, g)] + [(1, 2, 3, 4)]
    return [word(g, Twist(t)) for t in twists] + [word(g, Slide(g - 1, g))]


def expected_twist_phi(i: int, j: int, d: int, g: int) -> IntMatrix:
    """The reduced twist action straight from its prose description, as an
    independent construction for the matrix checks (i < j)."""
    n = g - 1
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if j < g:
        rows[i - 1][j - 1] = d
        rows[j - 1][i - 1] = -d
        rows[i - 1][i - 1] = 1 - d
        rows[j - 1][j - 1] = 1 + d
    else:
        for r in range(1, g):
            if r != i:
                rows[r - 1][i - 1] = d
    # the entries are the ints just written, so none is re-validated
    return IntMatrix(tuple(map(tuple, rows)))


def expected_slide_phi(a: int, b: int, g: int) -> IntMatrix:
    """The reduced slide action from its prose description (any a != b)."""
    n = g - 1
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if a < g and b < g:
        rows[a - 1][a - 1] = -1
        rows[a - 1][b - 1] = 2
    elif b == g:
        rows[a - 1][a - 1] = -1
    else:  # a == g
        rows[b - 1][b - 1] = -1
        for r in range(1, g):
            if r != b:
                rows[r - 1][b - 1] = -2
    return IntMatrix(tuple(map(tuple, rows)))


def brute_force_mod2_orthogonal(g: int) -> frozenset[int]:
    """All g x g matrices over Z/2 preserving the dot pairing, by exhaustion.

    Matrix t of the 2^(g^2) has entry (r, c) at bit r g + c of t, so t is
    the key ``finitegrp`` gives the matrix.  The exhaustion is bit-sliced:
    entry k = r g + c of every matrix at once is one 2^(g^2)-bit int whose
    bit t is bit k of t, so the Gram entry (i, j) of M^T M of every matrix
    is the XOR over r of the AND of entries (r, i) and (r, j).  The
    survivors, the t with M^T M = I, are the set bits of the AND of the
    Gram conditions.
    """
    if g > 4:
        raise ScaleGuardError(f"2^(g^2) enumeration unreasonable for g = {g}")
    count = 1 << (g * g)
    entries = []
    for k in range(g * g):
        # 2^k clear bits then 2^k set bits, doubled until it fills count bits
        run = 1 << k
        entry, width = ((1 << run) - 1) << run, 2 * run
        while width < count:
            entry |= entry << width
            width *= 2
        entries.append(entry)
    good = (1 << count) - 1
    for i in range(g):
        for j in range(i, g):
            gram = 0
            for r in range(g):
                gram ^= entries[r * g + i] & entries[r * g + j]
            good &= gram if i == j else ~gram
    survivors = []
    while good:
        low = good & -good
        survivors.append(low.bit_length() - 1)
        good ^= low
    return frozenset(survivors)


def _y_union_d_words(g: int) -> list[MCGWord]:
    return [el.word for el in families.family_elements("Y", g)] + [
        el.word for el in families.family_elements("D", g)
    ]


def _single_slides(g: int) -> list[MCGWord]:
    """The single slides ``subset_word(g, 1 << t)``, one per Y element."""
    return [families.subset_word(g, 1 << t) for t in range(families.y_count(g))]


def _named(names: list[str], run: Callable[[], T]) -> T:
    """Call ``run``; a generator it finds outside a level layer raises
    again under its name from ``names``."""
    try:
        return run()
    except LayerError as exc:
        raise LayerError(exc.index, exc.problem, names[exc.index]) from None


def _collapsed(x: int, g: int) -> int:
    """The layer vector Y of the collapsed action I + 2Y, for the layer
    vector ``x`` of a g x g action I + 2X mod 4: collapsing the total class
    subtracts the last row from the others and drops the last column, so
    entry (r, c) of Y is X[r][c] XOR X[g-1][c] for r, c < g - 1."""
    n = g - 1
    low = (1 << n) - 1
    last = x >> n * g & low
    return sum(((x >> r * g ^ last) & low) << r * n for r in range(n))


def _level_4_offset(v: int, g: int) -> bool:
    """Is I + 2V level 4, for the layer vector ``v`` of a g x g V?

    It is when every column of V is constant, that is when every row
    equals the last.  Then phi mod 4 is trivial too: collapsing the total
    class subtracts the last row from the others.
    """
    last = v >> (g - 1) * g
    return v == last * sum(1 << r * g for r in range(g))


def rs_stream_layout(
    g: int, coords: list[int], cap: int
) -> tuple[list[int], list[int], int]:
    """Where the first ``cap`` Schreier generators y s u^-1 of the kernel of
    phi mod 4 sit in stream order, on the group RS-GAMMA24's signed
    generators generate, without listing them: the cosets in walk order,
    the stream position of each one's first output, and the stream's
    length, at most ``cap``.  ``rs_stream_entry`` reads the (c, j) pair at
    a position: y is ``subset_word(g, c)``, s is signed generator j and u
    is ``subset_word(g, c ^ coords[j])``.  No word is built.

    The signed generators are Y_t, Y_t^-1 for each t in subset-bit order,
    then D, D^-1 for each D element, and ``coords`` holds each one's mask
    in the single slides' basis, so the coset of y_c s_j is c XOR
    ``coords[j]``.  Cosets are walked breadth-first from mask 0, the empty
    word, in the order of ``finitegrp.schreier_generators``; x and x^-1
    share a mask, so the walk steps over the distinct masks.  A product
    y s that already equals u as a reduced word is skipped, as there.  That
    happens exactly when s = Y_t and c has no bit at or above t, or
    s = Y_t^-1 and t is the top bit of c: every other product ends out of
    order, or with an inverse letter, or with a D letter, and no subset
    word does.  So coset c has 2(k + |D|) - (k - c.bit_length()) - [c != 0]
    outputs, with k the number of single slides; the whole stream has
    2^k (2(k + |D|) - 2) + 2.  The walk stops at the coset that reaches
    ``cap`` and discovers no coset from it: every coset before it has at
    least as many outputs as it has distinct masks, so the walk holds at
    most one coset per counted output, plus the first.
    """
    per = len(coords) - families.y_count(g)
    masks = list(dict.fromkeys(coords))
    seen = {0}
    # the walk's queue: a coset is appended when found and read in turn
    cosets = [0]
    starts: list[int] = []
    total = 0
    for c in cosets:
        starts.append(total)
        total += per + c.bit_length() - (c != 0)
        if total >= cap:
            return cosets[: len(starts)], starts, cap
        for step in masks:
            target = c ^ step
            if target not in seen:
                seen.add(target)
                cosets.append(target)
    return cosets, starts, total


def rs_stream_entry(
    layout: tuple[list[int], list[int], int], k: int, position: int
) -> tuple[int, int]:
    """The (c, j) pair at stream ``position`` of ``rs_stream_layout``, for
    k single slides.  Coset c with top bit b - 1 has its outputs in j
    order: Y_t and Y_t^-1 for t < b - 1, Y_(b-1), then Y_t^-1 for each
    t >= b, then every signed D generator."""
    cosets, starts, _ = layout
    at = bisect.bisect_right(starts, position) - 1
    c, offset = cosets[at], position - starts[at]
    b = c.bit_length()
    head = 2 * b - (c != 0)
    if offset < head:
        return c, offset
    offset -= head
    if offset < k - b:
        return c, 2 * (b + offset) + 1
    return c, 2 * k + offset - (k - b)


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _check_ex21_matrices(p: dict) -> tuple[bool, dict]:
    g3_slides = {
        (1, 2): ((-1, 2), (0, 1)),
        (2, 1): ((1, 0), (2, -1)),
        (1, 3): ((-1, 0), (0, 1)),
        (3, 1): ((-1, 0), (-2, 1)),
        (2, 3): ((1, 0), (0, -1)),
        (3, 2): ((1, -2), (0, -1)),
    }
    failures = []
    for (a, b), expect in g3_slides.items():
        got = reduced_action(word(3, Slide(a, b))).rows
        if got != expect:
            failures.append(("slide", a, b, got))
    for d in range(1, p["dmax"] + 1):
        fixed = {
            (1, 2): ((1 - d, d), (-d, 1 + d)),
            (1, 3): ((1, 0), (d, 1)),
            (2, 3): ((1, d), (0, 1)),
        }
        for (i, j), expect in fixed.items():
            got = reduced_action(word(3, (Twist((i, j)), d))).rows
            if got != expect:
                failures.append(("twist", i, j, d, got))
    # the general-genus closed forms, against independent prose constructors
    for g in range(3, p["gmax"] + 1):
        for d in (1, 2, 3):
            for i in range(1, g + 1):
                for j in range(i + 1, g + 1):
                    got = reduced_action(word(g, (Twist((i, j)), d)))
                    if got.rows != expected_twist_phi(i, j, d, g).rows:
                        failures.append(("twist-general", g, d, i, j))
        for a in range(1, g + 1):
            for b in range(1, g + 1):
                if a != b:
                    got = reduced_action(word(g, Slide(a, b)))
                    if got.rows != expected_slide_phi(a, b, g).rows:
                        failures.append(("slide-general", g, a, b))
        if g % 2 == 0:
            for d in (1, 2, 3):
                if not reduced_action(word(g, (Twist(tuple(range(1, g + 1))), d))).is_identity():
                    failures.append(("full-twist", g, d))
    return not failures, {"failures": failures[:20], "failure_count": len(failures)}


def _check_gen_fix_ones(p: dict) -> tuple[bool, dict]:
    gmax = p["gmax"]
    # at each genus 2..gmax, 2^(g-1) - 1 twists, g(g-1) slides and two
    # Torelli tags; past the limit's bit length 2^gmax is not formed
    rest = (gmax - 1) * gmax * (gmax + 1) // 3 + gmax - 3
    if gmax >= ALPHABET_WORD_LIMIT.bit_length() or (1 << gmax) + rest > ALPHABET_WORD_LIMIT:
        raise ScaleGuardError(
            f"GEN-FIX-ONES at gmax = {gmax} would act with 2^{gmax} + {rest} generators,"
            f" over ALPHABET_WORD_LIMIT = {ALPHABET_WORD_LIMIT}"
        )
    bad = []
    checked = 0
    for g in range(2, p["gmax"] + 1):
        ones = (1,) * g
        total = H1Class(g, ones)
        for w in families.generator_alphabet(g) + [
            word(g, TorelliTag("beta", (1, 2))),
            word(g, TorelliTag("gamma")),
        ]:
            checked += 1
            # raw coefficients: H1Class's == would forgive an even shift
            if act(w, total).coeffs != ones:
                bad.append((g, str(w)))
    return not bad, {"generators_checked": checked, "failures": bad[:10]}


def _check_t2_eq_yy(p: dict) -> tuple[bool, dict]:
    # the pairs i < j at each genus 3..gmax
    pairs = math.comb(p["gmax"] + 1, 3) - 1
    if pairs > TWIST_SQUARE_LIMIT:
        raise ScaleGuardError(
            f"T2-EQ-YY at gmax = {p['gmax']} would decide {pairs} relations,"
            f" over TWIST_SQUARE_LIMIT = {TWIST_SQUARE_LIMIT}"
        )
    bad = families.failing(families.twist_square_relations(p["gmax"]))
    return not bad, {"pairs": pairs, "failures": bad}


def _check_thm23_elem(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    n = g - 1
    bad = []
    for i in range(1, g):
        for j in range(i + 1, g):
            # each 4-letter commutator is evaluated once, and its action
            # raised to the power d/2 by square-and-multiply
            eij = commutator(word(g, Twist((j, g))), word(g, Slide(i, j)))
            if (reduced_action(eij) ** (d // 2)).rows != elementary(n, i, j, d).rows:
                bad.append(("eij", i, j))
            eji = commutator(word(g, Twist((i, g))), word(g, Slide(j, i)))
            if (reduced_action(eji) ** (d // 2)).rows != elementary(n, j, i, d).rows:
                bad.append(("eji", i, j))
    for k, rhs in enumerate(conjugated_gamma_generators(n, d), 2):
        lhs = reduced_action(word(g, (Twist((1, k)), d)))
        if lhs.rows != rhs.rows:
            bad.append(("conj", k))
    return not bad, {"failures": bad}


def _check_thm23_obstruct(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    if (g - 1) ** 2 > OBSTRUCTION_ENTRY_LIMIT:
        raise ScaleGuardError(
            f"THM23-OBSTRUCT at g = {g} would hold a target of (g-1)^2 = {(g - 1) ** 2} entries,"
            f" over OBSTRUCTION_ENTRY_LIMIT = {OBSTRUCTION_ENTRY_LIMIT}"
        )
    target = elementary(g - 1, 1, 2, d)
    result = lift_obstruction(target, g)
    expect_obstructed = d % 2 == 1
    ok = result.obstructed == expect_obstructed
    details = {
        "obstructed": result.obstructed,
        "candidates": result.candidates_checked,
    }
    if result.witness is not None:
        details["witness_projects_to_target"] = (
            collapse_total_class(result.witness).rows == target.rows
        )
        ok = ok and details["witness_projects_to_target"]
    return ok, details


def _check_thm23_ker(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    if g * g > LEVEL_MATRIX_ENTRY_LIMIT:
        raise ScaleGuardError(
            f"THM23-KER at g = {g} would evaluate a g x g action of g^2 = {g * g} entries,"
            f" over LEVEL_MATRIX_ENTRY_LIMIT = {LEVEL_MATRIX_ENTRY_LIMIT}"
        )
    w = word(g, (Twist(tuple(range(1, g + 1))), d))
    member = level_member(w, d)
    nontrivial = not acts_trivially(g, ((w, 1),))
    return member and nontrivial, {"level_member": member, "acts_nontrivially_on_Z": nontrivial}


def _check_psi_o2(p: dict) -> tuple[bool, dict]:
    g = p["g"]
    brute = brute_force_mod2_orthogonal(g)
    # THM31-CLOSURE's conjugating twists, without its slide
    grp = bfs_closure([word_matrix(w) for w in conjugating_letters(g)[:-1]])
    ok = grp.keys == brute
    return ok, {"brute_order": len(brute), "bfs_order": grp.order}


def _check_thm31_member(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    gens = families.main2_normal_generators(g, 0, d)
    bad = [r.name for r in gens if not level_member(r.word, d)]
    return not bad, {"generators": [r.name for r in gens], "failures": bad}


def _trace_bound(layer: LevelLayer) -> int:
    """The greatest dimension a normal closure containing ``layer`` can have
    on the n x n layer: n^2 - 1 when every basis vector has trace 0, else n^2.

    The trace mod 2 is linear on the layer and invariant under X -> A X A^-1,
    so when the seeds, and hence this closure under part of the ambient
    group, lie in its kernel, so do all their conjugates."""
    n = layer.dim
    diagonal = sum(1 << r * (n + 1) for r in range(n))
    traceless = not any((v & diagonal).bit_count() & 1 for v in layer.basis)
    return n * n - traceless


def _orthogonal_bound(g: int) -> int:
    """|O(g, F_2)| / k_g (k_g = 2 for even g, else 1), the order of the
    image in GL(F_2^g / <1>) of the dot form's orthogonal group, which
    holds the reduced actions mod 2: a twist is a transvection isometry, a
    slide is I.  |O(2m+1, F_2)| = |Sp(2m, 2)|, |O(2m, F_2)| = 2^(2m-1)
    |Sp(2m-2, 2)| (MacWilliams, Amer. Math. Monthly 76, 1969) and
    |Sp(2m, 2)| = 2^(m^2) prod_{i<=m} (4^i - 1); the bound grows with g."""
    m = (g - 1) // 2
    order = 1 << m * m
    for i in range(1, m + 1):
        order *= (1 << 2 * i) - 1
    return order if g % 2 else order << g - 2


def _check_thm31_closure(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    if d % 2:
        # the bound grows with g, so the search stops at a small genus
        first = next((h for h in range(2, g + 1) if _orthogonal_bound(h) > CLOSURE_CAP), None)
        if first:
            raise ScaleGuardError(
                f"the orthogonal bound at g = {g} exceeds the closure cap of {CLOSURE_CAP}"
                f" elements: it is {_orthogonal_bound(first)} at g = {first} and grows with g"
            )
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    seeds = [reduced_action(r.word) for r in closed]
    seed_names = [f"seed {r.name}" for r in closed]
    letters = conjugating_letters(g)
    conjugators, names = [reduced_action(w) for w in letters], [str(w) for w in letters]
    if d % 2 == 0:
        closure = _named(seed_names, lambda: layer_normal_closure(conjugators, seeds, d))
        measure, size = "dimension", _trace_bound(closure)
        bound, reached = {"kind": "trace", "dim": size}, {"seeds'": len(closure.basis)}
        reference = layer_span(congruence_vectors(g - 1), d, g - 1)
        ok, order = closure == reference, closure.order
        ref_kind = "generated congruence family"
    else:
        # Z/2d = Z/2 x Z/d for odd d: the seeds and the reference generators
        # are I mod d, hence so is all they generate under conjugation, and
        # reduction mod 2 is injective on that kernel of reduction mod d
        refs = conjugated_gamma_generators(g - 1, d)
        gen_names = seed_names + [f"reference generator {i}" for i in range(len(refs))]
        _named(gen_names, lambda: identity_offsets(seeds + refs, d))
        closure = normal_closure(conjugators, seeds)
        # the closure is normal under the letters: once it holds the references
        # it holds their closure, which it equals when the orders agree
        ok, order = all(m in closure for m in refs), closure.order
        del closure
        reference = normal_closure(conjugators, refs)
        ok = ok and reference.order == order
        measure, size = "order", _orthogonal_bound(g)
        bound, reached = {"kind": "orthogonal", "order": size}, {"seeds'": order}
        reached["reference generators'"] = reference.order
        ref_kind = "conjugated elementary family (plain d-th powers are obstructed)"
    # the closure N_S under the letters S lies in the closure N under the
    # whole alphabet, and N in the bound, so N_S = N once N_S reaches it
    for who, got in reached.items():
        if got < size:
            raise ScaleGuardError(
                f"the {who} closure under conjugation by {', '.join(names)} reached {measure}"
                f" {got}, below the {bound['kind']} bound of {measure} {size}"
            )
    return ok, {
        "closure_order": order,
        "reference_order": reference.order,
        "reference": ref_kind,
        "modulus": 2 * d,
        "ambient": names,
        "bound": bound,
    }


def _check_lem42_3chain(p: dict) -> tuple[bool, dict]:
    # the tuples 1 < j < k < l <= g at each genus 4..gmax, two relations each
    tuples = math.comb(p["gmax"], 4)
    if 2 * tuples > THREE_CHAIN_LIMIT:
        raise ScaleGuardError(
            f"LEM42-3CHAIN at gmax = {p['gmax']} would decide 2 x {tuples} relations,"
            f" over THREE_CHAIN_LIMIT = {THREE_CHAIN_LIMIT}"
        )
    bad = families.failing(families.three_chain_relations(p["gmax"]))
    return not bad, {"tuples": tuples, "failures": bad}


def _check_lem43_comm(p: dict) -> tuple[bool, dict]:
    # the pairs of Y indices at each genus 4..gmax; the sum stops once it
    # is past the limit, since each term grows as g^4
    pairs = 0
    for g in range(4, p["gmax"] + 1):
        pairs += math.comb(families.y_count(g), 2)
        if pairs > SLIDE_COMMUTATOR_LIMIT:
            raise ScaleGuardError(
                f"LEM43-COMM at gmax = {p['gmax']} would decide {pairs} relations by g = {g},"
                f" over SLIDE_COMMUTATOR_LIMIT = {SLIDE_COMMUTATOR_LIMIT}"
            )
    counts = {"pairs": pairs, "nontrivial_rows": 0}

    def counted():
        # a nontrivial row adds its factors to the commutator's four
        for relation in families.slide_commutator_relations(p["gmax"]):
            counts["nontrivial_rows"] += len(relation[2]) > 4
            yield relation

    bad = families.failing(counted())
    return not bad, {**counts, "failures": bad[:10]}


def _check_rs_gamma24(p: dict) -> tuple[bool, dict]:
    g = p["g"]
    rng = random.Random(p["seed"])
    gens_words = _y_union_d_words(g)
    names = [f"generator {w}" for w in gens_words]
    # each Y and D word is evaluated once: its action mod 4 is I + 2X, and
    # its phi mod 4 image, the action with the total class collapsed, is
    # I + 2Y with Y read off X
    actions = [word_matrix(w) for w in gens_words]
    full = _named(names, lambda: identity_offsets(actions, 2))
    phis = [_collapsed(x, g) for x in full]
    grp = layer_span(phis, 2, g - 1)
    k = families.y_count(g)
    expected = 1 << k
    order_ok = grp.order == expected
    # independent reference: the level-2 GL-congruence image at modulus 4,
    # generated by elementary squares, their conjugates and the determinant
    # flip diag(-1, 1, ..., 1) = I + 2X, X = -E_11
    reference_ok = grp == layer_span(congruence_vectors(g - 1) + [1], 2, g - 1)

    # the first k generators are the single slides subset_word(g, 1 << t);
    # their subset products are a section of phi mod 4 exactly when their
    # vectors are independent, and then a basis of the whole layer
    coords = _named(names, lambda: vector_coordinates(phis, k))
    section_ok = coords is not None
    sample_ok = True
    sampled = 0
    if section_ok:
        masks = [1 << t for t in range(k)] + coords
        # the signed generators x, x^-1 in turn: an inverse has the same
        # image mod 4, since (I + 2X)^2 = I mod 4
        layout = rs_stream_layout(g, [m for m in masks for _ in (1, -1)], p["rs_cap"])
        # the positions rng.sample(stream, n) would pick from the listed stream
        length = layout[2]
        picked = rng.sample(range(length), min(p["sample"], length))
        sampled = len(picked)
        # Gamma_2 / Gamma_4 is elementary abelian and u = y_(c XOR mask), so
        # an output y x^+-1 u^-1 acts mod 4 as I + 2V whatever y is, with V
        # the X of x plus the X of the slides in its mask: each generator is
        # decided once
        passes = []
        for v, mask in zip(full, masks):
            while mask:
                low = mask & -mask
                v ^= full[low.bit_length() - 1]
                mask ^= low
            passes.append(_level_4_offset(v, g))
        sample_ok = all(passes[rs_stream_entry(layout, k, i)[1] // 2] for i in picked)
    ok = order_ok and reference_ok and section_ok and sample_ok
    return ok, {
        "order": grp.order,
        "expected_order": expected,
        # the layer precondition: every generator is I + 2X mod 4, or the
        # check failed by name, and (I + 2X)^2 = I + 4X = I mod 4
        "exponent_2": True,
        "matches_congruence_image": reference_ok,
        "transversal_is_section": section_ok,
        "rs_outputs_sampled": sampled,
    }


def _check_thm41_member(p: dict) -> tuple[bool, dict]:
    g = p["g"]
    fams = families.main3_families(g)
    # the level-4 subgroup is the kernel of the action on H_1(N_g; Z/4), so
    # it is normal: a stream word y F y^-1 is level 4 exactly when its family
    # element F is, and the whole stream is decided by its family elements
    bad = [f"{el.family}{el.indices}" for el in fams if not level_member(el.word, 4)]
    total = families.main3_count(g)
    return not bad, {
        "stream_size": total,
        "checked": total,
        "failures": len(bad) * families.transversal_count(g),
        "family_elements": len(fams),
        "failing_families": bad,
    }


def _check_thm41_mod8(p: dict) -> tuple[bool, dict]:
    g = p["g"]
    fams = families.main3_families(g)
    # every single slide acts as I mod 2, so a stream word y F y^-1 has the
    # layer vector M(y) X(F) M(y)^-1 = X(F) mod 2: the stream spans exactly
    # what its family elements span
    slides = _single_slides(g)
    _named(
        [f"slide {w}" for w in slides],
        lambda: identity_offsets([reduced_action(w) for w in slides], 2),
    )
    closure = _named(
        [f"family {el.family}{el.indices}" for el in fams],
        lambda: layer_closure([reduced_action(el.word) for el in fams], 4),
    )
    reference = layer_span(congruence_vectors(g - 1), 4, g - 1)
    ok = closure == reference
    return ok, {
        "family_images": len(fams),
        "closure_order": closure.order,
        "reference_order": reference.order,
    }


def _check_tower_2l(p: dict) -> tuple[bool, dict]:
    g, l = p["g"], p["l"]
    n = g - 1
    grp = layer_span(congruence_vectors(n), 1 << (l - 1), n)
    expected = 1 << (n * n - 1)
    return grp.order == expected, {"order": grp.order, "expected": expected}


def _check_theta_basis(p: dict) -> tuple[bool, dict]:
    g, n, d = p["g"], p["n"], p["d"]
    kernel_guard(g, n, d)
    ok = True
    details: dict = {}
    # the closed form that theta is read from reproduces the defining constraints
    for i in range(1, g):
        vec = push_coefficients_int(x_(i) * x_(g), g)
        expect = tuple(
            (-1 if t == i - 1 else 0) + (1 if t == g - 1 else 0) for t in range(g)
        )
        ok = ok and vec == expect
    ok = ok and all(
        push_coefficients_int(x_run(j, j), g) == (0,) * g for j in range(1, g + 1)
    )
    ok = ok and all(
        push_coefficients_int(x_run(i, j, g) ** 2, g) == (0,) * g
        for i in range(1, g)
        for j in range(i + 1, g)
    )
    # the integral image is the full sum-zero lattice: the generator rows form
    # a determinant +-1 basis of it
    basis_rows = [push_coefficients_int(x_(i) * x_(g), g)[: g - 1] for i in range(1, g)]
    det = IntMatrix.from_rows(basis_rows).det()
    details["image_basis_det"] = det
    ok = ok and det in (1, -1)
    # mod-d image has exactly d^(g-1) classes, all sum-zero
    keys = {push_coefficients(w, g, d) for w in gtilde(g, d)}
    details["mod_d_image"] = len(keys)
    ok = ok and len(keys) == d ** (g - 1)
    ok = ok and all(sum(k) % d == 0 for k in keys)
    # every normal relator sits in the mod-d kernel
    ok = ok and all(
        push_coefficients(w, g, d) == (0,) * g
        for w in ker_theta_normal_relators(g, n, d)
    )
    # the plus-basis letters u_1..u_(g-1) and v_1..v_g that theta is read on
    details["basis_letters"] = 2 * g - 1
    return ok, details


def _check_prop34_tc(p: dict) -> tuple[bool, dict]:
    g, n, d = p["g"], p["n"], p["d"]
    index = theta_graph(g, n, d).index()
    expected = d ** (g - 1)
    cosets = coset_count_ker_theta(g, n, d).coset_count
    ok = cosets == expected and index == expected
    return ok, {"cosets": cosets, "stallings_index": index, "expected": expected}


def _check_prop52_stallings(p: dict) -> tuple[bool, dict]:
    report = verify_ker_theta(p["g"], p["n"], p["d"])
    return bool(report.pop("ok")), report


def _check_thm51_counts(p: dict) -> tuple[bool, dict]:
    g, n, d = p["g"], p["n"], p["d"]
    sets = families.GenNSets(g, n, d)
    # the F list of each boundary, boundary 1's again, and the d^(g-1) words
    # of G; d >= 2, so past the limit's bit length d^(g-1) is not formed
    f_words = (n + 1) * sets.f_count(1) + n * (n - 1)
    if g - 1 >= BOUNDARY_WORD_LIMIT.bit_length() or f_words + d ** (g - 1) > BOUNDARY_WORD_LIMIT:
        raise ScaleGuardError(
            f"THM51-COUNTS at (g, n, d) = ({g}, {n}, {d}) would list {f_words} F words and"
            f" d^(g-1) = {d}^{g - 1} G words, over BOUNDARY_WORD_LIMIT = {BOUNDARY_WORD_LIMIT}"
        )
    ok = True
    details: dict = {"g_count": sets.g_count(), "h_count": sets.h_count()}
    ok = ok and sets.g_count() == d ** (g - 1)
    for l in range(1, n + 1):
        f = sets.f_set(l)
        ok = ok and len(f) == sets.f_count(l)
        between = sum(
            1
            for w in f
            for s, _ in w.letters
            if getattr(s, "kind", "") in ("zeta", "zetabar")
        )
        ok = ok and between == 2 * (l - 1)
    details["f_counts"] = [sets.f_count(l) for l in range(1, n + 1)]
    # boundary-1 list never carries between-boundary curves
    first = sets.f_set(1)
    ok = ok and not any(
        getattr(s, "kind", "") in ("zeta", "zetabar") for w in first for s, _ in w.letters
    )
    # the empty-surface convention
    empty = families.GenNSets(g, 0, d)
    ok = ok and empty.h_count() == 0
    g_list = list(sets.g_set(1))
    ok = ok and len(g_list) == sets.g_count()
    return ok, details


CHECKS: dict[str, CheckSpec] = {
    "EX21-MATRICES": CheckSpec(
        _check_ex21_matrices,
        "reduced twist and slide action matrices, genus-3 table and general-genus closed forms",
        {"dmax": 6, "gmax": 6},
        {"dmax": 1, "gmax": 3},
    ),
    "GEN-FIX-ONES": CheckSpec(
        _check_gen_fix_ones,
        "every generator fixes the total crosscap class exactly",
        {"gmax": 8},
        {"gmax": 2},
    ),
    "T2-EQ-YY": CheckSpec(
        _check_t2_eq_yy,
        "twist squares equal opposite slide pairs on homology",
        {"gmax": 6},
        {"gmax": 3},
    ),
    "THM23-ELEM": CheckSpec(
        _check_thm23_elem,
        "commutator powers and conjugated twist powers hit the elementary congruence generators",
        {"g": 4, "d": 4},
        {"g": 3, "d": 2},
        parities={"d": 0},
    ),
    "THM23-OBSTRUCT": CheckSpec(
        _check_thm23_obstruct,
        "odd elementary powers admit no pairing-preserving lift; even ones do",
        {"g": 4, "d": 3},
        # the paper's genus range: at g = 3 an odd power does lift
        {"g": 4, "d": 1},
    ),
    "THM23-KER": CheckSpec(
        _check_thm23_ker,
        "the full-twist power lies in the level kernel for even genus, odd level",
        {"g": 4, "d": 3},
        {"g": 2, "d": 2},
        parities={"g": 0, "d": 1},
    ),
    "PSI-O2": CheckSpec(
        _check_psi_o2,
        "mod-2 actions of consecutive twists and the 4-chain twist generate the full mod-2 orthogonal group",
        {"g": 4},
        {"g": 4},
    ),
    "THM31-MEMBER": CheckSpec(
        _check_thm31_member,
        "each closed-surface normal generator acts trivially on mod-d homology",
        {"g": 4, "d": 2},
        {"g": 4, "d": 2},
    ),
    "THM31-CLOSURE": CheckSpec(
        _check_thm31_closure,
        "normal closure of the generator images matches the congruence reference at modulus 2d",
        {"g": 4, "d": 2},
        {"g": 4, "d": 2},
    ),
    "LEM42-3CHAIN": CheckSpec(
        _check_lem42_3chain,
        "the 4th chain power, the paired-twist form and the slide word agree on homology",
        {"gmax": 6},
        {"gmax": 4},
    ),
    "LEM43-COMM": CheckSpec(
        _check_lem43_comm,
        "every slide-commutator case row decomposes as stated, verified on homology",
        {"gmax": 6},
        {"gmax": 4},
    ),
    "RS-GAMMA24": CheckSpec(
        _check_rs_gamma24,
        "the level-2 image mod 4 is elementary abelian of rank equal to the slide family size",
        {"g": 4, "seed": 0, "sample": 200, "rs_cap": 20000},
        {"g": 3, "sample": 1, "rs_cap": 1},
        # the walk lists no output, but holds up to one coset per output it
        # counts, with a stream position per coset it reads: at g = 10,
        # rs_cap = 10^6 takes 0.16 s at a 26 MB peak
        {"rs_cap": 1_000_000},
    ),
    "THM41-MEMBER": CheckSpec(
        _check_thm41_member,
        "the level-4 generating stream lies in the level-4 subgroup",
        {"g": 4},
        {"g": 4},
    ),
    "THM41-MOD8": CheckSpec(
        _check_thm41_mod8,
        "mod-8 images of the level-4 stream generate the level-4 congruence image",
        {"g": 4},
        {"g": 4},
    ),
    "TOWER-2L": CheckSpec(
        _check_tower_2l,
        "consecutive power-of-two congruence quotients are elementary abelian of rank (g-1)^2 - 1",
        {"g": 4, "l": 3},
        {"g": 3, "l": 2},
    ),
    "THETA-BASIS": CheckSpec(
        _check_theta_basis,
        "the push-coefficient basis values are forced and the image is the sum-zero lattice",
        {"g": 4, "n": 1, "d": 2},
        {"g": 2, "n": 1, "d": 2},
    ),
    "PROP34-TC": CheckSpec(
        _check_prop34_tc,
        "coset enumeration of the kernel relators matches the subgroup-graph index",
        {"g": 4, "n": 1, "d": 2},
        {"g": 1, "n": 1, "d": 2},
    ),
    "PROP52-STALLINGS": CheckSpec(
        _check_prop52_stallings,
        "the claimed kernel generators give the full kernel subgroup at the expected index",
        {"g": 4, "n": 1, "d": 2},
        {"g": 1, "n": 1, "d": 2},
    ),
    "THM51-COUNTS": CheckSpec(
        _check_thm51_counts,
        "bounded-surface generating sets have the stated cardinalities and boundary conventions",
        {"g": 4, "n": 1, "d": 2},
        {"g": 1, "n": 1, "d": 2},
    ),
}


def _chosen_checks(ids: list[str] | None) -> list[str]:
    """The sorted ids of a suite (every check by default); an empty list
    or an unknown id raises."""
    if ids is not None and not ids:
        raise ValueError("the suite names no check id")
    chosen = sorted(CHECKS) if ids is None else sorted(ids)
    for check_id in chosen:
        if check_id not in CHECKS:
            raise UnknownCheckError(f"unknown check id {check_id!r}")
    return chosen


def suite_params(ids: list[str] | None = None) -> set[str]:
    """The parameter keys that the checks of a suite (every check by
    default) declare between them; an unknown id raises."""
    return {key for check_id in _chosen_checks(ids) for key in CHECKS[check_id].defaults}


def _validated(ids: list[str] | None, params: dict) -> list[tuple[str, dict]]:
    """Each check id of a suite, in id order, with the keys of ``params`` it
    declares, once every id, key, value type and floor has been checked.

    An unknown id, a key that no chosen check declares, or a value whose type
    differs from the default's raises ``ValueError``; a value, given or
    default, below its check's floor, above its ceiling or of the wrong
    parity raises ``ParamRangeError``.
    """
    chosen = _chosen_checks(ids)
    known = suite_params(chosen)
    unknown = sorted(set(params) - known)
    if unknown:
        noun = "parameters" if len(unknown) > 1 else "parameter"
        takers = f"{chosen[0]} takes" if len(chosen) == 1 else "the chosen checks take"
        raise ValueError(
            f"unknown {noun} {', '.join(map(repr, unknown))}:"
            f" {takers} {', '.join(sorted(known)) or 'nothing'}"
        )
    out = []
    for check_id in chosen:
        spec = CHECKS[check_id]
        own = {k: v for k, v in sorted(params.items()) if k in spec.defaults}
        for key, value in own.items():
            want = type(spec.defaults[key])
            if type(value) is not want:
                raise ValueError(
                    f"parameter {key!r} of {check_id} must be {want.__name__}, got {value!r}"
                )
        for key, floor in spec.floors.items():
            value = own.get(key, spec.defaults[key])
            ceiling = spec.ceilings.get(key, value)
            if not floor <= value <= ceiling:
                bound = f">= {floor}" if value < floor else f"<= {ceiling}"
                raise ParamRangeError(f"{check_id}: parameter {key!r} must be {bound}, got {value}")
        for key, parity in spec.parities.items():
            value = own.get(key, spec.defaults[key])
            if value % 2 != parity:
                want = "odd" if parity else "even"
                raise ParamRangeError(f"{check_id}: parameter {key!r} must be {want}, got {value}")
        out.append((check_id, own))
    return out


def run_check(check_id: str, params: dict | None = None) -> CheckRecord:
    """Run one catalog check, once ``_validated`` has accepted its id and
    parameters.  Guard violations come back as an ``inconclusive`` record,
    a generator outside the level layer a check works in, or a family
    element whose realizations disagree, as a ``fail`` naming it."""
    ((_, own),) = _validated([check_id], params or {})
    spec = CHECKS[check_id]
    effective = {**spec.defaults, **own}
    start = time.perf_counter()
    try:
        passed, details = spec.runner(effective)
        status = "pass" if passed else "fail"
    except ScaleGuardError as exc:
        status = "inconclusive"
        details = {"reason": str(exc)}
    except (LayerError, families.RealizationError) as exc:
        status = "fail"
        details = {"reason": str(exc)}
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return CheckRecord(check_id, effective, status, details, runtime_ms, spec.anchor)


def run_suite(ids: list[str] | None = None, params: dict | None = None) -> list[CheckRecord]:
    """Run several checks (all of them by default), sorted by id, once
    ``_validated`` has accepted every id and parameter of them, so no check
    runs before a refusal.  Each check receives only the keys it declares."""
    return [run_check(check_id, own) for check_id, own in _validated(ids, params or {})]


def records_to_markdown(records: list[CheckRecord]) -> str:
    lines = ["| check | params | status | ms |", "|---|---|---|---|"]
    for r in records:
        params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        lines.append(f"| {r.id} | {params} | {r.status} | {r.runtime_ms} |")
    return "\n".join(lines)
