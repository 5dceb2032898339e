"""Reference runs of the level-4 stream checks and of RS-GAMMA24's Schreier
stream, one word at a time.

Each stream word is built in full and read letter by letter through
``word_matrix``; this is the slow, obviously correct evaluation that the
batched ``main3_stream_images`` below must reproduce.  RS-GAMMA24
here keys every transversal word and every product y x^+-1 through
``phi_mod``, the reduced action reduced mod a modulus, and builds every
Schreier word through the word-level ``finitegrp.schreier_generators``,
which ``xor_stream_factors`` and the registry's runner must reproduce.

``main3_stream_images`` evaluates the level-4 stream in numpy stacks, and
``thm41_member_stacked`` counts the words it reads that act nontrivially
mod 4: the count THM41-MEMBER's decision on the family elements must give,
since the level-4 subgroup is normal and y F y^-1 is level 4 exactly when
F is.

Two matrix-level forms sit between those and the registry's layer runners.
``rs_stream_factors`` walks RS-GAMMA24's stream over the coset action table
of all 2^((g-1)^2) transversal images (``subset_images``), the walk that the
XOR walk on layer coordinates, ``xor_stream_factors``, must reproduce word
for word.  ``xor_stream_factors`` lists every (c, j) pair of the stream up
to the cap, where the registry's ``rs_stream_layout`` only counts each
coset's outputs in closed form and ``rs_stream_entry`` reads a pair at a
position; both must give the same pair at every position.
``thm41_mod8_stacked`` reads the whole level-4 stream mod 8 in stacks and
closes its distinct images, the closure that the family images' closure
must equal.

``rs_gamma24_products`` is RS-GAMMA24 on the XOR walk with each sampled
output y s u^-1 evaluated whole by ``product_matrix``, at any genus, and
the coordinates read from ``phi_mod`` images by the residue-reading
``oracle_finitegrp.identity_offsets`` (``slide_coordinates``); the
registry's runner, which evaluates each Y and D word once and decides each
generator on its layer vector mod 4, must give the same record.
``slide_layer`` is the step between them, which evaluated each single
slide and each signed generator once.  ``gen_fix_ones`` sums the rows
of each generator's matrix, where the registry's runner applies ``act`` to
the total class.

Where these references hand residues mod 8 (or 4) to the registry's layer
closures, which take exact matrices, they pass each residue matrix as an
``IntMatrix``: it is congruent to the exact image, so it has the same layer
vector.

``thm31_whole_alphabet_closure`` is THM31-CLOSURE's normal closure of the
seeds under ``ambient_phi_images``, the reduced actions of the whole
generator alphabet; the registry's runner conjugates by g + 1 letters and
certifies the result by the trace bound at even d and by the orthogonal
bound at odd d, and must reach the same layer or group.

``product_gamma_generators`` and ``product_conjugated_gamma_generators``
are the congruence generators as ``IntMatrix`` products of elementary
matrices, e_ij^d and e_k1 e_1k^d e_k1^-1; ``gamma_generators`` writes
their rows in closed form, as the registry does for the conjugated ones,
and must give the same matrices in the same order.  ``_reference_layer``
closes them on the layer, reading each matrix's entries: the registry
writes their layer vectors in closed form
(``crosscap.ledger.congruence_vectors``) and must reach the same layer.

The int64 ``einsum`` exhaustion of the mod-2 orthogonal group, keyed by
uint16 entries, and THM41-MOD8's ``np.unique(..., axis=0)`` dedupe over the
whole stream are kept here too: the bit-sliced
``crosscap.ledger.brute_force_mod2_orthogonal`` must give the same matrices,
and the stacked stream's dedupe, a stack at a time, the same images.

``t2_eq_yy``, ``lem42_3chain`` and ``lem43_comm`` are the word-identity
checks as they were before the relation families: each builds its words
in its own loop and decides each identity with its own ``acts_trivially``
call.  LEM42-3CHAIN's three realizations come from ``three_chain_words``,
and LEM43-COMM's rows are the spelled words of
``oracle_families.slide_commutator_rows``.
The registry's runners, which draw ``(name, genus, factors)`` relations
and hand them to ``families.failing``, must give the same records.
"""

import random
from collections import deque
from typing import Callable, Iterator

import numpy as np
from oracle_families import main3_word
from oracle_families import slide_commutator_rows as oracle_commutator_rows
from oracle_finitegrp import bfs_closure, coset_action_table, elements, identity_offsets
from oracle_homology import matrix_level_trivial
from oracle_packed import level_trivial_residues

from crosscap import families
from crosscap.finitegrp import (
    FiniteMatrixGroup,
    LevelLayer,
    layer_closure,
    layer_normal_closure,
    normal_closure,
    schreier_generators,
    vector_coordinates,
)
from crosscap.homology import (
    acts_trivially,
    collapse_total_class,
    level_member,
    product_matrix,
    reduced_action,
    word_matrix,
)
from crosscap.intmat import IntMatrix, ModMatrix, elementary
from crosscap.ledger import (
    _collapsed,
    _named,
    _single_slides,
    _y_union_d_words,
    conjugated_gamma_generators,
)
from crosscap.pi1free import ScaleGuardError
from crosscap.words import MCGWord, Slide, TorelliTag, Twist, conjugate, word


# the most stream words whose actions ``main3_stream_images`` forms in one
# numpy stack, so a reading of the whole stream takes a few MiB at a time
_STREAM_BATCH = 1 << 12


def phi_mod(w: MCGWord, modulus: int) -> ModMatrix:
    return reduced_action(w).reduce_mod(modulus)


def main3_positions(g: int, indices, per: int) -> tuple[np.ndarray, np.ndarray]:
    """``families.main3_position`` elementwise on an integer array: the
    transversal masks and family indices of the stream positions
    ``indices``.  A position outside the stream raises ``IndexError``."""
    total = families.transversal_count(g) * per
    flat = np.ravel(indices)
    outside = flat[(flat < 0) | (flat >= total)]
    if len(outside):
        raise IndexError(f"index {outside[0]} out of range 0..{total - 1}")
    return divmod(indices, per)


def _residues(
    ws: list[MCGWord], action: Callable[[MCGWord], IntMatrix], modulus: int
) -> np.ndarray:
    return np.array([action(w).reduce_mod(modulus).rows for w in ws], dtype=np.int64)


def _slide_residues(
    g: int, action: Callable[[MCGWord], IntMatrix], modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """The residues mod ``modulus`` of ``action`` on each single slide
    ``subset_word(g, 1 << t)`` and on its inverse: two (T, n, n) int64
    stacks.  Refuses a modulus for which a product of two n x n residues,
    with entries up to n (modulus - 1)^2, could overflow int64."""
    factors = _single_slides(g)
    steps = _residues(factors, action, modulus)
    undo = _residues([f.inverse() for f in factors], action, modulus)
    n = steps.shape[-1]
    if n * (modulus - 1) ** 2 > np.iinfo(np.int64).max:
        raise ValueError(
            f"products of {n} x {n} residues mod {modulus} can overflow int64"
        )
    return steps, undo


def _subset_products(
    steps: np.ndarray, undo: np.ndarray, masks: np.ndarray, modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """M(y) and M(y^-1) for each mask of ``masks``, from the slide residues
    ``_slide_residues`` returns, as products reduced mod ``modulus``."""
    left = np.tile(np.eye(steps.shape[-1], dtype=np.int64), (len(masks), 1, 1))
    right = left.copy()
    for t in range(len(steps)):
        chosen = (masks >> t & 1).astype(bool)
        left[chosen] = left[chosen] @ steps[t] % modulus
        right[chosen] = undo[t] @ right[chosen] % modulus
    return left, right


def main3_stream_images(
    g: int, indices: np.ndarray, action: Callable[[MCGWord], IntMatrix], modulus: int
) -> Iterator[np.ndarray]:
    """The residues mod ``modulus`` of ``action`` on the level-4 generating
    stream's words at ``indices``, as (N, n, n) int64 stacks of at most
    ``_STREAM_BATCH`` words each, in the order of ``indices``.

    Stream word ``mask * per + k`` is y F y^-1, with F the k-th family
    element and y = ``subset_word(g, mask)``.  The indices are checked, and
    each family element and each single slide, with its inverse, evaluated
    once, before the first stack is formed; each stack then builds M(y) and
    M(y^-1) for its distinct masks from the slide residues and forms M(y)
    M(F) M(y^-1) for its indices as a numpy batch reduced after each
    product.
    """
    fams = families.main3_families(g)
    masks, which = main3_positions(g, np.asarray(indices), len(fams))
    middle = _residues([el.word for el in fams], action, modulus)
    steps, undo = _slide_residues(g, action, modulus)

    def stacks() -> Iterator[np.ndarray]:
        for start in range(0, len(masks), _STREAM_BATCH):
            stop = start + _STREAM_BATCH
            distinct, slot = np.unique(masks[start:stop], return_inverse=True)
            left, right = _subset_products(steps, undo, distinct, modulus)
            yield left[slot] @ middle[which[start:stop]] % modulus @ right[slot] % modulus

    return stacks()


def thm41_member_stacked(g: int, indices) -> int:
    """How many stream words at ``indices`` act nontrivially mod 4, read a
    stack of ``main3_stream_images`` at a time."""
    bad = 0
    for images in main3_stream_images(g, np.asarray(indices), word_matrix, 4):
        bad += int(np.count_nonzero(~level_trivial_residues(images, 4)))
    return bad


def subset_images(g: int, masks: np.ndarray, action, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The residues mod ``modulus`` of ``action`` on y = ``subset_word(g,
    mask)`` and on y^-1, for each mask of the 1-d array ``masks``: two
    (N, n, n) int64 stacks in that order, built from the single-slide
    residues as numpy products."""
    return _subset_products(*_slide_residues(g, action, modulus), masks, modulus)


def brute_force_mod2_orthogonal(g: int) -> frozenset[bytes]:
    """All g x g matrices over Z/2 preserving the dot pairing: every one of
    the 2^(g^2) matrices as int64 entries, Gram matrices by ``einsum``."""
    if g > 4:
        raise ScaleGuardError(f"2^(g^2) enumeration unreasonable for g = {g}")
    count = 1 << (g * g)
    bits = np.arange(count, dtype=np.int64)
    mats = np.zeros((count, g * g), dtype=np.int64)
    for t in range(g * g):
        mats[:, t] = (bits >> t) & 1
    mats = mats.reshape(count, g, g)
    gram = np.einsum("nki,nkj->nij", mats, mats) % 2
    eye = np.eye(g, dtype=np.int64)
    good = mats[(gram == eye).all(axis=(1, 2))]
    return frozenset(arr.astype("<u2").tobytes() for arr in good)


def thm41_mod8_first_images(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The stream indices at which a new image mod 8 first appears, in
    increasing order, and the images there: the whole stream as one stack
    from the slide and family matrices, deduped by ``np.unique(axis=0)``."""
    fams = families.main3_families(g)
    masks, which = main3_positions(g, np.arange(families.main3_count(g)), len(fams))
    middle = np.array([reduced_action(el.word).reduce_mod(8).rows for el in fams], dtype=np.int64)
    distinct, slot = np.unique(masks, return_inverse=True)
    left, right = subset_images(g, distinct, reduced_action, 8)
    images = left[slot] @ middle[which] % 8 @ right[slot] % 8
    _, first = np.unique(images.reshape(len(images), -1), axis=0, return_index=True)
    first.sort()
    return first, images[first]


def thm41_member_failures(g: int, indices) -> int:
    """How many stream words at ``indices`` act nontrivially mod 4."""
    fams = families.main3_families(g)
    return sum(
        not matrix_level_trivial(word_matrix(main3_word(g, int(idx), fams)), 4)
        for idx in indices
    )


def thm41_mod8_images(g: int) -> dict:
    """Image rows mod 8 -> (stream index of its first word, image), in the
    order the images first appear."""
    seen = {}
    fams = families.main3_families(g)
    index = 0
    for mask in range(families.transversal_count(g)):
        y = families.subset_word(g, mask)
        y_inv = y.inverse()
        for el in fams:
            m = phi_mod(y * el.word * y_inv, 8)
            seen.setdefault(m.rows, (index, m))
            index += 1
    return seen


def thm41_mod8(g: int) -> tuple[bool, dict]:
    """THM41-MOD8 on the word-level images; a stream image outside the
    level-4 layer raises ``LayerError`` under its ``stream word <i>`` name."""
    seen = thm41_mod8_images(g)
    closure = _named(
        [f"stream word {i}" for i, _ in seen.values()],
        lambda: layer_closure([IntMatrix(m.rows) for _, m in seen.values()], 4),
    )
    reference = _reference_layer(gamma_generators(g - 1, 4), 4)
    return closure == reference, {
        "distinct_images": len(seen),
        "closure_order": closure.order,
        "reference_order": reference.order,
    }


def phi4_transversal_table(g: int) -> dict:
    """phi mod 4 rows of each transversal word -> the word, in mask order."""
    table = {}
    for mask in range(families.transversal_count(g)):
        w = families.subset_word(g, mask)
        table[phi_mod(w, 4).rows] = w
    return table


def rs_stream(g: int, gens: list, table: dict, cap: int) -> list:
    """The first ``cap`` words of the word-level Schreier stream."""
    stream = schreier_generators(
        lambda w: phi_mod(w, 4).rows,
        lambda key: table[key],
        gens,
        MCGWord.identity(g),
    )
    outputs = []
    for w in stream:
        outputs.append(w)
        if len(outputs) >= cap:
            break
    return outputs


def rs_gamma24(p: dict) -> tuple[bool, dict]:
    """RS-GAMMA24 on words: every product keyed through ``phi_mod``, every
    Schreier word built, then ``sample`` of them checked."""
    g = p["g"]
    if g > 4:
        raise ScaleGuardError(
            f"transversal table has 2^{families.y_count(g)} entries at genus {g}"
        )
    rng = random.Random(p["seed"])
    gens_words = _y_union_d_words(g)
    grp = bfs_closure([phi_mod(w, 4) for w in gens_words])
    expected = 1 << families.y_count(g)
    order_ok = grp.order == expected
    exponent_ok = all((m**2).is_identity() for m in elements(grp))
    ref_gens = [m.reduce_mod(4) for m in gamma_generators(g - 1, 2)]
    flip = [[-1 if r == c == 0 else (1 if r == c else 0) for c in range(g - 1)] for r in range(g - 1)]
    ref_gens.append(IntMatrix.from_rows(flip).reduce_mod(4))
    reference_ok = grp.same_group(bfs_closure(ref_gens))

    table = phi4_transversal_table(g)
    section_ok = len(table) == expected
    sample_ok = True
    sampled = 0
    if section_ok:
        outputs = rs_stream(g, gens_words, table, p["rs_cap"])
        sample = rng.sample(outputs, min(p["sample"], len(outputs)))
        sampled = len(sample)
        for w in sample:
            if not level_member(w, 4):
                sample_ok = False
            if phi_mod(w, 4).rows != ModMatrix.identity(g - 1, 4).rows:
                sample_ok = False
    ok = order_ok and exponent_ok and reference_ok and section_ok and sample_ok
    return ok, {
        "order": grp.order,
        "expected_order": expected,
        "exponent_2": exponent_ok,
        "matches_congruence_image": reference_ok,
        "transversal_is_section": section_ok,
        "rs_outputs_sampled": sampled,
    }


def slide_coordinates(g: int, ws: list[MCGWord]) -> list[int] | None:
    """The mask of each word's phi mod 4 image in the level-2 layer basis of
    the single slides' images, each image formed by ``phi_mod``; None when
    the slides' vectors are dependent.  The registry's RS-GAMMA24 must walk
    its stream on the same masks, read from the full actions."""
    slides = _single_slides(g)
    images = [phi_mod(w, 4) for w in slides + ws]
    return _named(
        [f"slide {w}" for w in slides] + [f"signed generator {w}" for w in ws],
        lambda: vector_coordinates(identity_offsets(images, 2), len(slides)),
    )


def slide_layer(g: int, ws: list[MCGWord]) -> tuple[list[int], list[int]] | None:
    """The mask c of each word's phi mod 4 image in the level-2 layer basis
    of the single slides' images, so ``subset_word(g, c)`` has the same
    image, and the layer vector V of w y_c^-1 on the full action mod 4,
    which is I + 2V; None when the slides' phi mod 4 vectors are dependent.

    This is RS-GAMMA24's layer step as it was before the runner evaluated
    each Y and D word once: here each single slide and each signed word is
    evaluated by ``word_matrix``, and its full action mod 4 read as I + 2X;
    one that is not I mod 2 raises ``LayerError`` under its name, as does a
    word outside the slides' span.  A product of such actions adds their X
    mod 2 and an inverse keeps it, so V is X(w) plus the X of the slides
    in c, and an output y_c w u^-1 is level 4 with trivial phi mod 4
    exactly when ``ledger._level_4_offset`` holds for V.
    """
    slides = _single_slides(g)
    names = [f"slide {w}" for w in slides] + [f"signed generator {w}" for w in ws]
    actions = [word_matrix(w).reduce_mod(4) for w in slides + ws]
    full = _named(names, lambda: identity_offsets(actions, 2))
    k = len(slides)
    coords = _named(names, lambda: vector_coordinates([_collapsed(x, g) for x in full], k))
    if coords is None:
        return None
    outputs = []
    for v, mask in zip(full[k:], coords):
        while mask:
            low = mask & -mask
            v ^= full[low.bit_length() - 1]
            mask ^= low
        outputs.append(v)
    return coords, outputs


def xor_stream_factors(g: int, coords: list[int], cap: int) -> list[tuple[int, int]]:
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


def rs_gamma24_products(p: dict) -> tuple[bool, dict]:
    """RS-GAMMA24 with every sampled Schreier word y s u^-1 evaluated once
    by ``product_matrix`` and decided on its action mod 4."""
    g = p["g"]
    rng = random.Random(p["seed"])
    gens_words = _y_union_d_words(g)
    grp = _named(
        [f"generator {w}" for w in gens_words],
        lambda: layer_closure([IntMatrix(phi_mod(w, 4).rows) for w in gens_words], 2),
    )
    expected = 1 << families.y_count(g)
    order_ok = grp.order == expected
    flip = [[-1 if r == c == 0 else (1 if r == c else 0) for c in range(g - 1)] for r in range(g - 1)]
    ref_gens = gamma_generators(g - 1, 2) + [IntMatrix.from_rows(flip)]
    reference_ok = grp == _reference_layer(ref_gens, 2)

    signed = [s for x in gens_words for s in (x, x.inverse())]
    coords = slide_coordinates(g, signed)
    section_ok = coords is not None
    sample_ok = True
    sampled = 0
    if section_ok:
        stream = xor_stream_factors(g, coords, p["rs_cap"])
        # the positions rng.sample(stream, k) would pick
        picked = rng.sample(range(len(stream)), min(p["sample"], len(stream)))
        sampled = len(picked)
        slides = _single_slides(g)
        images = []
        for c, j in (stream[i] for i in picked):
            # y s u^-1 as factors: the slides of y's bits in increasing
            # order, s, then the slides of u's bits inverted, decreasing
            u = c ^ coords[j]
            factors = [(slides[t], 1) for t in range(len(slides)) if c >> t & 1]
            factors.append((signed[j], 1))
            factors += [(slides[t], -1) for t in reversed(range(len(slides))) if u >> t & 1]
            images.append(product_matrix(g, factors).reduce_mod(4))
        sample_ok = all(
            matrix_level_trivial(m, 4) and collapse_total_class(m).reduce_mod(4).is_identity()
            for m in images
        )
    ok = order_ok and reference_ok and section_ok and sample_ok
    return ok, {
        "order": grp.order,
        "expected_order": expected,
        "exponent_2": True,
        "matches_congruence_image": reference_ok,
        "transversal_is_section": section_ok,
        "rs_outputs_sampled": sampled,
    }


def gen_fix_ones(p: dict) -> tuple[bool, dict]:
    """GEN-FIX-ONES on whole matrices: the row sums of each generator's
    action must all be 1."""
    bad = []
    checked = 0
    for g in range(2, p["gmax"] + 1):
        ones = tuple(1 for _ in range(g))
        for w in families.generator_alphabet(g) + [
            word(g, TorelliTag("beta", (1, 2))),
            word(g, TorelliTag("gamma")),
        ]:
            m = word_matrix(w)
            image = tuple(sum(m.rows[r][c] for c in range(g)) for r in range(g))
            checked += 1
            if image != ones:
                bad.append((g, str(w)))
    return not bad, {"generators_checked": checked, "failures": bad[:10]}


def first_distinct(stack: np.ndarray) -> np.ndarray:
    """The index of the first matrix with each distinct entry array in an
    (N, n, n) stack, in increasing order."""
    _, first = np.unique(stack.reshape(len(stack), -1), axis=0, return_index=True)
    first.sort()
    return first


def thm41_mod8_stacked_closure(g: int) -> tuple[LevelLayer, int]:
    """The layer closure of the whole level-4 stream mod 8, read in stacks
    of ``main3_stream_images``, and how many distinct images it has.  Each
    stack keeps its first image of every key, then the first of those
    across the stacks; a distinct image outside the layer raises
    ``LayerError`` under its ``stream word <i>`` name."""
    kept, where, offset = [], [], 0
    for images in main3_stream_images(g, np.arange(families.main3_count(g)), reduced_action, 8):
        first = first_distinct(images)
        kept.append(images[first])
        where.append(first + offset)
        offset += len(images)
    candidates, where = np.concatenate(kept), np.concatenate(where)
    keep = first_distinct(candidates)
    images, first = candidates[keep], where[keep]
    closure = _named(
        [f"stream word {i}" for i in first],
        lambda: layer_closure([IntMatrix.from_rows(m.tolist()) for m in images], 4),
    )
    return closure, len(first)


def thm41_mod8_stacked(g: int) -> tuple[bool, dict]:
    """THM41-MOD8 on the distinct images of the whole stream, with no limit
    on the stream's size."""
    closure, distinct = thm41_mod8_stacked_closure(g)
    reference = _reference_layer(gamma_generators(g - 1, 4), 4)
    return closure == reference, {
        "distinct_images": distinct,
        "closure_order": closure.order,
        "reference_order": reference.order,
    }


def ambient_phi_images(g: int) -> list[IntMatrix]:
    """The reduced actions of the whole generator alphabet, 2^(g-1) - 1 +
    g(g-1) matrices: 35 at g = 5 and 33,007 at g = 16."""
    return [reduced_action(w) for w in families.generator_alphabet(g)]


def gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """The standard generating family of the level-d congruence subgroup of
    SL(n, Z) for n >= 3: d-th elementary powers e_ij^d = I + d E_ij plus
    their first-row conjugates, each written row by row."""
    eye = list(IntMatrix.identity(n).rows)
    plain = []
    for i, row in enumerate(eye):
        for j in range(n):
            if i != j:
                rows = eye.copy()
                rows[i] = row[:j] + (d,) + row[j + 1 :]
                plain.append(IntMatrix(tuple(rows)))
    return plain + conjugated_gamma_generators(n, d)


def _reference_layer(refs: list[IntMatrix], d: int) -> LevelLayer:
    """The layer closure of the reference generators ``refs``, read from
    their entries."""
    names = [f"reference generator {i}" for i in range(len(refs))]
    return _named(names, lambda: layer_closure(refs, d))


def product_gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """The d-th elementary powers e_ij^d, then their first-row conjugates."""
    plain = [elementary(n, i, j, d) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return plain + product_conjugated_gamma_generators(n, d)


def product_conjugated_gamma_generators(n: int, d: int) -> list[IntMatrix]:
    """e_k1 e_1k^d e_k1^-1 for k = 2..n, as two matrix products each."""
    return [
        elementary(n, k, 1) * elementary(n, 1, k, d) * elementary(n, k, 1, -1)
        for k in range(2, n + 1)
    ]


def thm31_whole_alphabet_closure(g: int, d: int) -> LevelLayer | FiniteMatrixGroup:
    """THM31-CLOSURE's normal closure as the registry took it before its
    bounds: the normal closure of the closed-surface seeds under the whole
    alphabet, on the layer at even d (each seed named if it is outside the
    layer) and mod 2 at odd d."""
    closed = [r for r in families.main2_normal_generators(g, 0, d) if r.closed_surface]
    seeds = [reduced_action(r.word) for r in closed]
    alphabet = ambient_phi_images(g)
    if d % 2:
        return normal_closure(alphabet, seeds)
    names = [f"seed {r.name}" for r in closed]
    return _named(names, lambda: layer_normal_closure(alphabet, seeds, d))


def thm31_closure_even(g: int, d: int) -> tuple[bool, dict]:
    """Even-d THM31-CLOSURE on the whole-alphabet closure, with the record
    it gave then: the registry's adds only ``ambient`` and ``bound``."""
    closure = thm31_whole_alphabet_closure(g, d)
    reference = _reference_layer(gamma_generators(g - 1, d), d)
    return closure == reference, {
        "closure_order": closure.order,
        "reference_order": reference.order,
        "reference": "generated congruence family",
        "modulus": 2 * d,
    }


def thm31_closure_odd(g: int, d: int) -> tuple[bool, dict]:
    """Odd-d THM31-CLOSURE on the whole-alphabet closures of the seeds and of
    the conjugated reference generators, with the record it gave then: the
    registry's adds only ``ambient`` and ``bound``."""
    closure = thm31_whole_alphabet_closure(g, d)
    reference = normal_closure(ambient_phi_images(g), conjugated_gamma_generators(g - 1, d))
    return closure == reference, {
        "closure_order": closure.order,
        "reference_order": reference.order,
        "reference": "conjugated elementary family (plain d-th powers are obstructed)",
        "modulus": 2 * d,
    }


def rs_stream_factors(
    g: int, gens: list[MCGWord], images: np.ndarray, cap: int
) -> list[tuple[MCGWord, MCGWord, MCGWord]]:
    """The first ``cap`` Schreier generators y s u^-1 of RS-GAMMA24's stream
    as factor triples (y, s, u), walked over the coset action table of the
    transversal images ``images`` (from ``subset_images``) and the signed
    generators x, x^-1 in turn; every transversal word is built."""
    signed = [s for x in gens for s in (x, x.inverse())]
    table = coset_action_table(images, _residues(signed, reduced_action, 4), 4)
    reps = [families.subset_word(g, mask) for mask in range(len(images))]
    seen = {0}
    queue = deque([0])
    outputs: list[tuple[MCGWord, MCGWord, MCGWord]] = []
    while queue:
        c = queue.popleft()
        y = reps[c]
        for s, target in zip(signed, table[c].tolist()):
            if target not in seen:
                seen.add(target)
                queue.append(target)
            u = reps[target]
            kept = max(0, len(y.letters) - len(s.letters))
            if u.letters[:kept] == y.letters[:kept] and u == y * s:
                continue
            outputs.append((y, s, u))
            if len(outputs) >= cap:
                return outputs
    return outputs


def t2_eq_yy(p: dict) -> tuple[bool, dict]:
    bad = []
    pairs = 0
    for g in range(3, p["gmax"] + 1):
        for i in range(1, g + 1):
            for j in range(i + 1, g + 1):
                pairs += 1
                lhs = word(g, (Twist((i, j)), 2))
                rhs = word(g, (Slide(j, i), -1), (Slide(i, j), 1))
                if not acts_trivially(g, ((lhs, 1), (rhs, -1))):
                    bad.append((g, i, j))
    return not bad, {"pairs": pairs, "failures": bad}


def three_chain_words(j: int, k: int, l: int, g: int) -> tuple[MCGWord, MCGWord, MCGWord]:
    """Three realizations of the same mapping class for 1 < j < k < l <= g:
    the 4th power of the twist chain, the paired-twist form, and the full
    slide-word expansion."""

    def tw(indices: tuple[int, ...]) -> MCGWord:
        return word(g, Twist(indices))

    def yw(a: int, b: int, e: int = 1) -> MCGWord:
        return word(g, (Slide(a, b), e))

    chain = (tw((1, j)) * tw((j, k)) * tw((k, l))) ** 4
    sign = families._resolve_d_sign(g, (1, j, k, l))
    twist = tw((1, j, k, l))
    paired = twist * conjugate(twist**sign, yw(j, 1) * yw(k, l, -1)).inverse()
    slide_form = (
        yw(j, 1, -1)
        * yw(1, j)
        * yw(k, j, -1)
        * yw(j, k)
        * conjugate(yw(k, 1, -1) * yw(1, k), yw(j, 1))
        * yw(l, k, -1)
        * yw(k, l)
        * conjugate(yw(l, j, -1) * yw(j, l), yw(k, j))
        * conjugate(yw(l, 1, -1) * yw(1, l), yw(j, 1) * yw(k, l, -1))
    )
    return chain, paired, slide_form


def lem42_3chain(p: dict) -> tuple[bool, dict]:
    bad = []
    tuples = 0
    for g in range(4, p["gmax"] + 1):
        for j in range(2, g + 1):
            for k in range(j + 1, g + 1):
                for l in range(k + 1, g + 1):
                    tuples += 1
                    chain, paired, slide_form = three_chain_words(j, k, l, g)
                    if not acts_trivially(g, ((chain, 1), (paired, -1))):
                        bad.append((g, j, k, l, "paired"))
                    if not acts_trivially(g, ((chain, 1), (slide_form, -1))):
                        bad.append((g, j, k, l, "slides"))
    return not bad, {"tuples": tuples, "failures": bad}


def lem43_comm(p: dict) -> tuple[bool, dict]:
    bad = []
    pairs = 0
    nontrivial = 0
    for g in range(4, p["gmax"] + 1):
        slides = {x: word(g, Slide(*x)) for x in families.family_indices("Y", g)}
        for x1, x2, rhs in oracle_commutator_rows(g):
            pairs += 1
            y1, y2 = slides[x1], slides[x2]
            if not rhs.is_identity():
                nontrivial += 1
            # [Y_x1, Y_x2] times the inverse of the row's word
            if not acts_trivially(g, ((y1, 1), (y2, 1), (y1, -1), (y2, -1), (rhs, -1))):
                bad.append((g, x1, x2))
    return not bad, {"pairs": pairs, "nontrivial_rows": nontrivial, "failures": bad[:10]}
