"""RS-GAMMA24's Schreier stream, located in closed form by
``rs_stream_layout`` and ``rs_stream_entry``, against the XOR walk that
lists it (``oracle_ledger.xor_stream_factors``); the XOR walk against the
table walk and the word-level oracle it replaced (``oracle_ledger``); and
the batched coset action table and exponent test kept as references in
``oracle_finitegrp``."""

import random

import numpy as np
import pytest

import oracle_finitegrp
import oracle_ledger
from oracle_ledger import phi_mod
from crosscap import families, ledger
from crosscap.finitegrp import SectionError
from crosscap.homology import reduced_action
from crosscap.intmat import ModMatrix, elementary
from crosscap.ledger import rs_stream_entry, rs_stream_layout, run_check
from crosscap.words import Twist, word


def transversal_images(g):
    masks = np.arange(families.transversal_count(g))
    return oracle_ledger.subset_images(g, masks, reduced_action, 4)[0]


def xor_walk(g, cap):
    """The registry's stream: the signed generators walked on their
    coordinates in the single-slide basis, each (c, j) pair spelled out as
    the factor triple (y, s, u).  The coordinates are read from ``phi_mod``
    images; ``test_rs_layer`` checks that the runner walks on the same."""
    signed = [s for x in ledger._y_union_d_words(g) for s in (x, x.inverse())]
    coords = oracle_ledger.slide_coordinates(g, signed)
    return [
        (families.subset_word(g, c), signed[j], families.subset_word(g, c ^ coords[j]))
        for c, j in oracle_ledger.xor_stream_factors(g, coords, cap)
    ]


def signed_coordinates(g):
    signed = [s for x in ledger._y_union_d_words(g) for s in (x, x.inverse())]
    return oracle_ledger.slide_coordinates(g, signed)


@pytest.mark.parametrize("cap", [1, 97, 777, 9217, 9218, 9219, 20000])
@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_the_layout_locates_every_pair_of_the_walk(g, cap):
    # every position at g = 3 and 4, where the whole stream has 98 and
    # 9,218 outputs, and 500 seeded positions at g = 5 and 6
    coords = signed_coordinates(g)
    walk = oracle_ledger.xor_stream_factors(g, coords, cap)
    layout = rs_stream_layout(g, coords, cap)
    assert layout[2] == len(walk)
    cosets, starts, _ = layout
    assert len(cosets) == len(starts) <= len(walk)
    positions = range(len(walk))
    if g > 4:
        positions = sorted(random.Random(cap).sample(positions, min(500, len(walk))))
    k = families.y_count(g)
    assert [rs_stream_entry(layout, k, i) for i in positions] == [walk[i] for i in positions]


@pytest.mark.parametrize("g", [3, 4, 5])
def test_the_whole_stream_has_its_closed_form_length(g):
    k, d = families.y_count(g), len(families.family_indices("D", g))
    total = (1 << k) * (2 * (k + d) - 2) + 2
    assert rs_stream_layout(g, signed_coordinates(g), total + 1)[2] == total
    assert total == {3: 98, 4: 9218, 5: 65536 * 38 + 2}[g]


@pytest.mark.parametrize("g", [3, 4])
def test_transversal_images_are_phi_mod_4_of_the_subset_words(g):
    images = transversal_images(g)
    expected = [
        phi_mod(families.subset_word(g, mask), 4).rows
        for mask in range(families.transversal_count(g))
    ]
    assert images.tolist() == [[list(row) for row in rows] for rows in expected]


@pytest.mark.parametrize("cap", [1, 777, 20000])
@pytest.mark.parametrize("g", [3, 4])
def test_stream_is_the_oracles_word_for_word(g, cap):
    gens = ledger._y_union_d_words(g)
    expected = oracle_ledger.rs_stream(g, gens, oracle_ledger.phi4_transversal_table(g), cap)
    factors = xor_walk(g, cap)
    assert [y * s * u.inverse() for y, s, u in factors] == expected
    assert len(expected) == min(cap, {3: 98, 4: 9218}[g])


@pytest.mark.parametrize("g, cap", [(3, 20000), (4, 20000), (5, 3000)])
def test_xor_walk_is_the_table_walk_factor_for_factor(g, cap):
    gens = ledger._y_union_d_words(g)
    expected = oracle_ledger.rs_stream_factors(g, gens, transversal_images(g), cap)
    assert xor_walk(g, cap) == expected
    assert len(expected) == min(cap, {3: 98, 4: 9218, 5: cap}[g])


def test_signed_generators_sit_at_the_coset_of_their_image(rs_runner_layer):
    # the coordinates name the transversal word with the same phi mod 4 image
    g = 4
    signed = [s for x in ledger._y_union_d_words(g) for s in (x, x.inverse())]
    images = transversal_images(g).tolist()
    for s, mask in zip(signed, rs_runner_layer(g)[0]):
        assert images[mask] == [list(row) for row in phi_mod(s, 4).rows]


def records(monkeypatch, params):
    """The record of the registry's runner and of the oracle's, for
    ``params``, each without its runtime."""
    got = run_check("RS-GAMMA24", params).to_json()
    spec = ledger.CHECKS["RS-GAMMA24"]
    oracle_spec = ledger.CheckSpec(
        oracle_ledger.rs_gamma24, spec.anchor, spec.defaults, spec.floors, spec.ceilings, spec.parities
    )
    monkeypatch.setitem(ledger.CHECKS, "RS-GAMMA24", oracle_spec)
    expected = run_check("RS-GAMMA24", params).to_json()
    del got["runtime_ms"], expected["runtime_ms"]
    return got, expected


@pytest.mark.parametrize("sample", [1, 200, 20000])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_records_match_the_oracle(monkeypatch, seed, sample):
    got, expected = records(monkeypatch, {"seed": seed, "sample": sample})
    assert got == expected
    assert got["status"] == "pass"
    assert got["details"]["rs_outputs_sampled"] == min(sample, 9218)


@pytest.mark.parametrize("sample", [1, 200, 20000])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("g", [3, 4])
def test_records_match_the_oracle_with_a_cap(monkeypatch, g, seed, sample):
    params = {"g": g, "seed": seed, "sample": sample, "rs_cap": 777}
    got, expected = records(monkeypatch, params)
    assert got == expected
    assert got["details"]["rs_outputs_sampled"] == min(sample, {3: 98, 4: 777}[g])


@pytest.mark.parametrize("params", [{"g": 3, "sample": 20000}, {"rs_cap": 777, "seed": 5}])
def test_records_match_the_oracle_off_the_defaults(monkeypatch, params):
    got, expected = records(monkeypatch, params)
    assert got == expected


def test_a_generator_outside_the_transversal_image_fails_by_name(monkeypatch):
    words = ledger._y_union_d_words
    monkeypatch.setattr(ledger, "_y_union_d_words", lambda g: words(g) + [word(g, Twist((1, 2)))])
    record = run_check("RS-GAMMA24")
    assert record.status == "fail"
    # a single twist acts nontrivially mod 2, so it is outside the level-2 layer
    assert record.details == {"reason": "generator T(1,2) is not congruent to I mod 2"}


def test_a_transversal_with_two_equal_keys_raises():
    images = transversal_images(3)
    images[5] = images[2]
    gens = np.array([phi_mod(w, 4).rows for w in ledger._y_union_d_words(3)])
    with pytest.raises(SectionError, match="transversal entries 2 and 5 share a key"):
        oracle_finitegrp.coset_action_table(images, gens, 4)


def test_the_table_matches_the_products_one_by_one(monkeypatch):
    monkeypatch.setattr(oracle_finitegrp, "_BATCH", 7)
    images = transversal_images(3)
    signed = [s for x in ledger._y_union_d_words(3) for s in (x, x.inverse())]
    table = oracle_finitegrp.coset_action_table(
        images, np.array([phi_mod(s, 4).rows for s in signed]), 4
    )
    keys = [tuple(map(tuple, m)) for m in images.tolist()]
    for c, row in enumerate(table.tolist()):
        y = families.subset_word(3, c)
        assert row == [keys.index(phi_mod(y * s, 4).rows) for s in signed]


GROUPS = {
    # exponent 2: the level-2 image mod 4 at g = 4
    "level-2-mod-4": [phi_mod(w, 4) for w in ledger._y_union_d_words(4)],
    # exponent 4: [[1, 1], [0, 1]] has order 4 mod 4
    "sl2-mod4": [elementary(2, 1, 2, 1).reduce_mod(4), elementary(2, 2, 1, 1).reduce_mod(4)],
    "cyclic-4": [ModMatrix.from_rows(4, [[1, 1], [0, 1]])],
    "heisenberg-mod3": [elementary(3, 1, 2, 1).reduce_mod(3), elementary(3, 2, 3, 1).reduce_mod(3)],
}


@pytest.mark.parametrize("batch", [7, 1 << 15])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_has_exponent_matches_the_element_loop(monkeypatch, name, batch):
    monkeypatch.setattr(oracle_finitegrp, "_BATCH", batch)
    group = oracle_finitegrp.bfs_closure(GROUPS[name])
    elements = oracle_finitegrp.elements(group)
    has_exponent = oracle_finitegrp.has_exponent
    for e in range(-9, 10):
        assert has_exponent(group, e) == all((m**e).is_identity() for m in elements), e
    if name == "level-2-mod-4":
        assert group.order == 512 and has_exponent(group, 2)
    if name == "cyclic-4":
        assert not has_exponent(group, 2) and has_exponent(group, 4)
