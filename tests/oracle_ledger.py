"""Reference runs of the level-4 stream checks and of RS-GAMMA24's Schreier
stream, one word at a time.

Each stream word is built in full and read letter by letter through
``word_matrix``; this is the slow, obviously correct evaluation that the
batched ``crosscap.ledger.main3_stream_images`` must reproduce.  RS-GAMMA24
here keys every transversal word and every product y x^+-1 through
``phi_mod`` and builds every Schreier word through the word-level
``finitegrp.schreier_generators``, which ``crosscap.ledger.rs_stream_factors``
and the registry's runner must reproduce.

The int64 ``einsum`` exhaustion of the mod-2 orthogonal group and
THM41-MOD8's ``np.unique(..., axis=0)`` dedupe over the whole stream are
kept here too: the bit-packed ``crosscap.ledger.brute_force_mod2_orthogonal``
and the stack-by-stack keyed dedupe must reproduce them.
"""

import random

import numpy as np
from oracle_homology import matrix_level_trivial

from crosscap import families
from crosscap.finitegrp import bfs_closure, layer_closure, schreier_generators
from crosscap.homology import level_member, reduced_action, word_matrix
from crosscap.intmat import IntMatrix, ModMatrix
from crosscap.ledger import (
    _named,
    _reference_layer,
    _require_at_least,
    _y_union_d_words,
    gamma_generators,
    phi_mod,
    subset_images,
)
from crosscap.pi1free import ScaleGuardError
from crosscap.words import MCGWord


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
    masks, which = families.main3_position(g, np.arange(families.main3_count(g)), len(fams))
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
        not matrix_level_trivial(word_matrix(families.main3_generator(g, int(idx), fams)), 4)
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
        lambda: layer_closure([m for _, m in seen.values()], 4),
    )
    reference = _reference_layer([m.reduce_mod(8) for m in gamma_generators(g - 1, 4)], 4)
    return closure.same_group(reference), {
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
    _require_at_least(p, "sample", 1)
    _require_at_least(p, "rs_cap", 1)
    if g > 4:
        raise ScaleGuardError(
            f"transversal table has 2^{families.y_count(g)} entries at genus {g}"
        )
    rng = random.Random(p["seed"])
    gens_words = _y_union_d_words(g)
    grp = bfs_closure([phi_mod(w, 4) for w in gens_words])
    expected = 1 << families.y_count(g)
    order_ok = grp.order == expected
    exponent_ok = all((m**2).is_identity() for m in grp.elements())
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
