"""Reference runs of the level-4 stream checks, one word at a time.

Each stream word is built in full and read letter by letter through
``word_matrix``; this is the slow, obviously correct evaluation that the
batched ``crosscap.ledger.main3_stream_images`` must reproduce.
"""

from oracle_homology import matrix_level_trivial

from crosscap import families
from crosscap.finitegrp import layer_closure
from crosscap.homology import word_matrix
from crosscap.ledger import _named, _reference_layer, gamma_generators, phi_mod


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
