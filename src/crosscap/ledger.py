"""Registry of named verification checks with machine-readable results.

Every check ties one named identity, group-order computation or
generating-set claim to an executable assertion.  Records are deterministic
for fixed parameters (sampled checks take an explicit seed); "inconclusive"
is reserved for explicit scale guards and caps, never silent truncation.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, Optional, TypeVar

from . import families
from ._frozen import Frozen, set_field
from .finitegrp import (
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
    collapse_total_class,
    level_member,
    lift_obstruction,
    product_matrix,
    reduced_action,
    word_matrix,
)
from .intmat import IntMatrix, elementary
from .pi1free import (
    coset_count_ker_theta,
    derive_theta_basis,
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
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "runtime_ms": self.runtime_ms,
            "anchor": self.anchor,
        }


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


def gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """The standard generating family of the level-d congruence subgroup of
    SL(n, Z) for n >= 3: d-th elementary powers plus their first-row
    conjugates."""
    plain = [elementary(n, i, j, d) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return plain + conjugated_gamma_generators(n, d)


def conjugated_gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """Only the conjugated part e_{k1} e_{1k}^d e_{k1}^{-1}; for odd d these
    are the elementary-based elements realized by mapping classes (the plain
    e_{ij}^d are obstructed)."""
    return [
        elementary(n, k, 1) * elementary(n, 1, k, d) * elementary(n, k, 1, -1)
        for k in range(2, n + 1)
    ]


def ambient_phi_images(g: int) -> list[IntMatrix]:
    return [reduced_action(w) for w in families.generator_alphabet(g)]


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
    return IntMatrix.from_rows(rows)


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
    return IntMatrix.from_rows(rows)


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


def _reference_layer(refs: list[IntMatrix], d: int) -> LevelLayer:
    """The layer closure of the reference generators ``refs``."""
    names = [f"reference generator {i}" for i in range(len(refs))]
    return _named(names, lambda: layer_closure(refs, d))


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


def rs_stream_factors(g: int, coords: list[int], cap: int) -> list[tuple[int, int]]:
    """The first ``cap`` Schreier generators y s u^-1 of the kernel of phi
    mod 4 on the group RS-GAMMA24's signed generators generate, as pairs
    (c, j) in stream order: y is ``subset_word(g, c)``, s is signed
    generator j and u is ``subset_word(g, c ^ coords[j])``.  No word is
    built.

    The signed generators are Y_t, Y_t^-1 for each t in subset-bit order,
    then D, D^-1 for each D element, and ``coords`` holds each one's mask
    in the single slides' basis, so the coset of y_c s_j is c XOR
    ``coords[j]``.  Cosets are walked breadth-first from mask 0, the empty
    word.  A product y s that already equals u as a reduced word is
    skipped, as in ``finitegrp.schreier_generators``.  That happens exactly
    when s = Y_t and c has no bit at or above t, or s = Y_t^-1 and t is the
    top bit of c: every other product ends out of order, or with an inverse
    letter, or with a D letter, and no subset word does.
    """
    slides = 2 * families.y_count(g)
    seen = {0}
    queue = deque([0])
    outputs: list[tuple[int, int]] = []
    while queue:
        c = queue.popleft()
        for j, step in enumerate(coords):
            target = c ^ step
            if target not in seen:
                seen.add(target)
                queue.append(target)
            if j < slides and c >> (j // 2) == j % 2:
                continue
            outputs.append((c, j))
            if len(outputs) >= cap:
                return outputs
    return outputs


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
    bad = []
    pairs = 0
    for g in range(3, p["gmax"] + 1):
        for i in range(1, g + 1):
            for j in range(i + 1, g + 1):
                pairs += 1
                lhs = word_matrix(word(g, (Twist((i, j)), 2)))
                rhs = word_matrix(word(g, (Slide(j, i), -1), (Slide(i, j), 1)))
                if lhs.rows != rhs.rows:
                    bad.append((g, i, j))
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
    w = word(g, (Twist(tuple(range(1, g + 1))), d))
    member = level_member(w, d)
    nontrivial = not word_matrix(w).is_identity()
    return member and nontrivial, {"level_member": member, "acts_nontrivially_on_Z": nontrivial}


def _check_psi_o2(p: dict) -> tuple[bool, dict]:
    g = p["g"]
    brute = brute_force_mod2_orthogonal(g)
    gens = [word_matrix(word(g, Twist((i, i + 1)))) for i in range(1, g)]
    gens.append(word_matrix(word(g, Twist((1, 2, 3, 4)))))
    grp = bfs_closure(gens)
    ok = grp.keys == brute
    return ok, {"brute_order": len(brute), "bfs_order": grp.order}


def _check_thm31_member(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    gens = families.main2_normal_generators(g, 0, d)
    bad = [r.name for r in gens if not level_member(r.word, d)]
    return not bad, {"generators": [r.name for r in gens], "failures": bad}


def _check_thm31_closure(p: dict) -> tuple[bool, dict]:
    g, d = p["g"], p["d"]
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    seeds = [reduced_action(r.word) for r in closed]
    seed_names = [f"seed {r.name}" for r in closed]
    ambient = ambient_phi_images(g)
    if d % 2 == 0:
        closure = _named(seed_names, lambda: layer_normal_closure(ambient, seeds, d))
        reference = _reference_layer(gamma_generators(g - 1, d), d)
        ref_kind = "generated congruence family"
    else:
        # Z/2d = Z/2 x Z/d for odd d: the seeds and the reference generators
        # are I mod d, hence so is all they generate under conjugation, and
        # reduction mod 2 is injective on that kernel of reduction mod d
        refs = conjugated_gamma_generators(g - 1, d)
        ref_names = [f"reference generator {i}" for i in range(len(refs))]
        _named(seed_names, lambda: identity_offsets(seeds, d))
        _named(ref_names, lambda: identity_offsets(refs, d))
        closure = normal_closure(ambient, seeds)
        reference = normal_closure(ambient, refs)
        ref_kind = "conjugated elementary family (plain d-th powers are obstructed)"
    ok = closure == reference
    return ok, {
        "closure_order": closure.order,
        "reference_order": reference.order,
        "reference": ref_kind,
        "modulus": 2 * d,
    }


def _check_lem42_3chain(p: dict) -> tuple[bool, dict]:
    bad = []
    tuples = 0
    for g in range(4, p["gmax"] + 1):
        for j in range(2, g + 1):
            for k in range(j + 1, g + 1):
                for l in range(k + 1, g + 1):
                    tuples += 1
                    chain, paired, slide_form = families.three_chain_words(j, k, l, g)
                    mc = word_matrix(chain)
                    if mc.rows != word_matrix(paired).rows:
                        bad.append((g, j, k, l, "paired"))
                    if mc.rows != word_matrix(slide_form).rows:
                        bad.append((g, j, k, l, "slides"))
    return not bad, {"tuples": tuples, "failures": bad}


def _check_lem43_comm(p: dict) -> tuple[bool, dict]:
    bad = []
    pairs = 0
    nontrivial = 0
    for g in range(4, p["gmax"] + 1):
        slides = {x: word(g, Slide(*x)) for x in families.family_indices("Y", g)}
        for x1, x2, factors in families.slide_commutator_rows(g):
            pairs += 1
            y1, y2 = slides[x1], slides[x2]
            lhs = product_matrix(g, ((y1, 1), (y2, 1), (y1, -1), (y2, -1)))
            if factors:
                nontrivial += 1
            if lhs.rows != product_matrix(g, factors).rows:
                bad.append((g, x1, x2))
    return not bad, {"pairs": pairs, "nontrivial_rows": nontrivial, "failures": bad[:10]}


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
    # generated by elementary squares, their conjugates and a determinant flip
    flip = [[-1 if r == c == 0 else (1 if r == c else 0) for c in range(g - 1)] for r in range(g - 1)]
    ref_gens = gamma_generators(g - 1, 2) + [IntMatrix.from_rows(flip)]
    reference_ok = grp == _reference_layer(ref_gens, 2)

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
        stream = rs_stream_factors(g, [m for m in masks for _ in (1, -1)], p["rs_cap"])
        # the positions rng.sample(stream, n) would pick
        picked = rng.sample(range(len(stream)), min(p["sample"], len(stream)))
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
        sample_ok = all(passes[stream[i][1] // 2] for i in picked)
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
    reference = _reference_layer(gamma_generators(g - 1, 4), 4)
    ok = closure == reference
    return ok, {
        "family_images": len(fams),
        "closure_order": closure.order,
        "reference_order": reference.order,
    }


def _check_tower_2l(p: dict) -> tuple[bool, dict]:
    g, l = p["g"], p["l"]
    n = g - 1
    grp = layer_closure(gamma_generators(n, 1 << (l - 1)), 1 << (l - 1))
    expected = 1 << (n * n - 1)
    return grp.order == expected, {"order": grp.order, "expected": expected}


def _check_theta_basis(p: dict) -> tuple[bool, dict]:
    g, n, d = p["g"], p["n"], p["d"]
    kernel_guard(g, n, d)
    values = derive_theta_basis(g)
    ok = True
    details: dict = {}
    # forced values reproduce the defining constraints
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
    details["basis_letters"] = len(values)
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
        {"g": 3, "d": 1},
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
        # the walk keeps about 100 bytes per Schreier output it lists
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
    and a generator outside the level layer a check works in as a ``fail``
    naming it."""
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
    except LayerError as exc:
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
