"""The batched evaluation of the level-4 generating stream
(``oracle_ledger.main3_stream_images``) against the word-level oracles
(``oracle_ledger``, ``oracle_homology``), and THM41-MEMBER's decision on the
family elements against both."""

import random

import numpy as np
import pytest

import oracle_homology
import oracle_ledger
from oracle_ledger import main3_stream_images
from oracle_packed import level_trivial_residues
from crosscap import families, ledger
from crosscap.finitegrp import LayerError, layer_closure
from crosscap.homology import (
    matrix_level_trivial,
    reduced_action,
    word_matrix,
)
from crosscap.intmat import IntMatrix
from crosscap.ledger import run_check
from crosscap.words import Twist, word


def word_level(g, indices, action, modulus):
    fams = families.main3_families(g)
    return np.array(
        [
            action(families.main3_generator(g, int(i), fams)).reduce_mod(modulus).rows
            for i in indices
        ],
        dtype=np.int64,
    )


def stacked(g, indices, action, modulus):
    """The stacks ``main3_stream_images`` yields, joined; every stack but
    the last holds exactly ``_STREAM_BATCH`` images and the last at most."""
    stacks = list(main3_stream_images(g, indices, action, modulus))
    sizes = [len(images) for images in stacks]
    assert sum(sizes) == len(indices)
    assert all(size == oracle_ledger._STREAM_BATCH for size in sizes[:-1])
    assert 0 < sizes[-1] <= oracle_ledger._STREAM_BATCH
    assert all(images.dtype == np.int64 for images in stacks)
    return np.concatenate(stacks)


@pytest.mark.parametrize("action, modulus", [(word_matrix, 4), (reduced_action, 8)])
def test_whole_genus4_stream_matches_the_words(action, modulus):
    indices = np.arange(families.main3_count(4))
    got = stacked(4, indices, action, modulus)
    assert got.dtype == np.int64
    assert np.array_equal(got, word_level(4, indices, action, modulus))


@pytest.mark.parametrize("action, modulus", [(word_matrix, 4), (reduced_action, 8)])
def test_seeded_genus5_indices_match_the_words(action, modulus):
    rng = random.Random(5)
    indices = np.array(sorted(rng.sample(range(families.main3_count(5)), 1000)))
    got = stacked(5, indices, action, modulus)
    assert np.array_equal(got, word_level(5, indices, action, modulus))


def test_unsorted_and_repeated_indices_keep_their_order():
    indices = np.array([12799, 3, 12799, 0, 640, 3])
    assert np.array_equal(
        stacked(4, indices, word_matrix, 4), word_level(4, indices, word_matrix, 4)
    )


def test_the_int64_bound_is_exact():
    # 4 (m - 1)^2 <= 2^63 - 1 holds up to m - 1 = floor(sqrt((2^63 - 1) / 4))
    top = 1 + int(np.sqrt((2**63 - 1) // 4))
    while 4 * top**2 > 2**63 - 1:
        top -= 1
    indices = np.array([1, 777, 12799])
    modulus = top + 1
    assert np.array_equal(
        stacked(4, indices, word_matrix, modulus),
        word_level(4, indices, word_matrix, modulus),
    )
    with pytest.raises(ValueError, match="products of 4 x 4 residues mod .* can overflow int64"):
        main3_stream_images(4, indices, word_matrix, modulus + 1)


def test_indices_outside_the_stream_raise():
    with pytest.raises(IndexError, match="index 12800 out of range 0..12799"):
        main3_stream_images(4, np.array([0, 12800]), word_matrix, 4)


# ---------------------------------------------------------------------------
# the level predicate
# ---------------------------------------------------------------------------


def random_matrices(rng, g, count, span):
    return [
        IntMatrix.from_rows([[rng.randint(-span, span) for _ in range(g)] for _ in range(g)])
        for _ in range(count)
    ]


def near_level(rng, g, d, count):
    """Matrices I + (column constants) + d * noise, half of them trivial mod d."""
    out = []
    for _ in range(count):
        shifts = [rng.randrange(d) for _ in range(g)]
        rows = [
            [(1 if i == j else 0) + shifts[j] + d * rng.randint(-3, 3) for j in range(g)]
            for i in range(g)
        ]
        if rng.random() < 0.5:
            rows[rng.randrange(g)][rng.randrange(g)] += rng.randrange(1, d)
        out.append(IntMatrix.from_rows(rows))
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_array_predicate_matches_the_scalar_loop(d):
    rng = random.Random(d)
    huge = [
        word_matrix(word(g, (Twist((1, 2)), e)))
        for g in (2, 4)
        for e in (-(10**20), 10**20, 4 * 10**20, 2 * 10**20 + 1)
    ]
    mats = huge + [
        m
        for g in (2, 3, 4, 5)
        for m in random_matrices(rng, g, 40, 3) + near_level(rng, g, d, 80)
    ]
    expected = [oracle_homology.matrix_level_trivial(m, d) for m in mats]
    assert any(expected) and not all(expected)
    assert [matrix_level_trivial(m, d) for m in mats] == expected
    for g in (2, 3, 4, 5):
        same = [(m, e) for m, e in zip(mats, expected) if m.n == g]
        stack = np.array([m.reduce_mod(d).rows for m, _ in same], dtype=np.int64)
        assert level_trivial_residues(stack, d).tolist() == [e for _, e in same]


def test_array_predicate_refuses_levels_below_two():
    for d in (1, 0, -4):
        with pytest.raises(ValueError, match="level must be >= 2"):
            level_trivial_residues(np.zeros((1, 3, 3), dtype=np.int64), d)
        with pytest.raises(ValueError, match="level must be >= 2"):
            matrix_level_trivial(IntMatrix.identity(3), d)


# ---------------------------------------------------------------------------
# the checks against the word-level oracles
# ---------------------------------------------------------------------------


@pytest.fixture
def planted(monkeypatch):
    """Replace family element 7 of the level-4 stream by T(1,2), which acts
    nontrivially mod 4, for the checks and the oracles alike."""
    real = families.main3_families

    def with_plant(g):
        fams = real(g)
        old = fams[7]
        fams[7] = families.NamedFamilyElement(old.family, old.indices, word(g, Twist((1, 2))))
        return fams

    monkeypatch.setattr(families, "main3_families", with_plant)


def test_planted_non_member_fails_with_the_oracle_count(planted):
    record = run_check("THM41-MEMBER", {"g": 4})
    total = families.main3_count(4)
    expected = oracle_ledger.thm41_member_failures(4, range(total))
    # the planted element fails under every one of the 512 transversal words
    assert expected == families.transversal_count(4) == 512
    assert record.status == "fail"
    assert record.details == {
        "stream_size": total,
        "checked": total,
        "failures": expected,
        "family_elements": 25,
        "failing_families": ["B(1, 3)"],
    }


@pytest.mark.parametrize("plant", [False, True], ids=["as-built", "planted"])
def test_exact_record_matches_the_whole_genus4_stream(request, plant):
    if plant:
        request.getfixturevalue("planted")
    total = families.main3_count(4)
    details = dict(run_check("THM41-MEMBER", {"g": 4}).details)
    assert details.pop("family_elements") == 25
    assert details.pop("failing_families") == (["B(1, 3)"] if plant else [])
    assert details == {
        "stream_size": total,
        "checked": total,
        "failures": oracle_ledger.thm41_member_stacked(4, np.arange(total)),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("plant", [False, True], ids=["as-built", "planted"])
def test_exact_record_matches_seeded_genus5_samples(request, plant, seed):
    if plant:
        request.getfixturevalue("planted")
    fams = families.main3_families(5)
    failing = [7] if plant else []
    record = run_check("THM41-MEMBER", {"g": 5})
    assert record.details["failing_families"] == [
        f"{fams[k].family}{fams[k].indices}" for k in failing
    ]
    total = record.details["stream_size"]
    assert record.details["failures"] * len(fams) == len(failing) * total
    # a sampled stream word fails exactly when its family element does
    indices = sorted(random.Random(seed).sample(range(total), 2000))
    _, which = oracle_ledger.main3_positions(5, np.array(indices), len(fams))
    assert oracle_ledger.thm41_member_stacked(5, indices) == int(np.isin(which, failing).sum())


def test_planted_image_outside_the_layer_is_named_as_by_the_oracle(planted):
    with pytest.raises(LayerError) as caught:
        oracle_ledger.thm41_mod8(4)
    # stream word 7 is family element 7, B(1,3), under the empty slide word;
    # the check reads the families, so it names the family
    assert str(caught.value).startswith("stream word 7 ")
    record = run_check("THM41-MOD8", {"g": 4})
    assert record.status == "fail"
    assert record.details == {"reason": f"family B(1, 3) {caught.value.problem}"}
    assert caught.value.problem == "is not congruent to I mod 4"


def test_stream_checks_match_the_oracles(monkeypatch):
    ok, details = oracle_ledger.thm41_mod8(4)
    calls, closures = [], []
    real = ledger.layer_closure

    def recorder(gens, d):
        calls.append(list(gens))
        closures.append(real(gens, d))
        return closures[-1]

    monkeypatch.setattr(ledger, "layer_closure", recorder)
    record = run_check("THM41-MOD8", {"g": 4})
    # the 25 family images close to what the 19 distinct stream images close to
    seen = oracle_ledger.thm41_mod8_images(4)
    assert details.pop("distinct_images") == len(seen) == 19
    assert (record.status == "pass", record.details) == (ok, {"family_images": 25, **details})
    fams = families.main3_families(4)
    assert calls[0] == [reduced_action(el.word) for el in fams]
    assert closures[0] == layer_closure([IntMatrix(m.rows) for _, m in seen.values()], 4)
    record = run_check("THM41-MEMBER", {"g": 4})
    indices = sorted(random.Random(9).sample(range(families.main3_count(4)), 500))
    assert record.details["failures"] == oracle_ledger.thm41_member_failures(4, indices) == 0


def test_member_batches_cover_every_sampled_index(monkeypatch):
    monkeypatch.setattr(oracle_ledger, "_STREAM_BATCH", 7)
    seen, stacks = [], []
    real = oracle_ledger.main3_stream_images

    def spy(g, indices, action, modulus):
        seen.append(indices.tolist())
        for images in real(g, indices, action, modulus):
            stacks.append(images)
            yield images

    monkeypatch.setattr(oracle_ledger, "main3_stream_images", spy)
    expected = sorted(random.Random(4).sample(range(families.main3_count(4)), 50))
    assert oracle_ledger.thm41_member_stacked(4, expected) == 0
    assert seen == [expected]
    # read a stack at a time, in index order: stack k holds indices 7k .. 7k + 6
    assert [len(images) for images in stacks] == [7] * 7 + [1]
    for k, images in enumerate(stacks):
        assert np.array_equal(images, word_level(4, expected[7 * k : 7 * k + 7], word_matrix, 4))


@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_stacks_follow_the_indices_in_order(monkeypatch, batch):
    monkeypatch.setattr(oracle_ledger, "_STREAM_BATCH", batch)
    indices = np.array([12799, 3, 12799, 0, 640, 3, 5, 6, 7, 8, 9])
    stacks = list(main3_stream_images(4, indices, reduced_action, 8))
    assert [len(images) for images in stacks] == [
        len(indices[start : start + batch]) for start in range(0, len(indices), batch)
    ]
    for k, images in enumerate(stacks):
        chunk = indices[batch * k : batch * (k + 1)]
        assert np.array_equal(images, word_level(4, chunk, reduced_action, 8))


# ---------------------------------------------------------------------------
# sample and cap parameters
# ---------------------------------------------------------------------------


def refuse_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("bfs_closure", "word_matrix"):
        monkeypatch.setattr(ledger, name, refuse)


@pytest.mark.parametrize(
    "check_id, params, message",
    [
        ("RS-GAMMA24", {"sample": 0}, "parameter 'sample' must be >= 1, got 0"),
        ("RS-GAMMA24", {"sample": -1}, "parameter 'sample' must be >= 1, got -1"),
        ("RS-GAMMA24", {"rs_cap": 0}, "parameter 'rs_cap' must be >= 1, got 0"),
        ("RS-GAMMA24", {"rs_cap": -3}, "parameter 'rs_cap' must be >= 1, got -3"),
    ],
)
def test_sample_and_cap_below_their_floor_raise_before_any_work(
    monkeypatch, check_id, params, message
):
    refuse_work(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_check(check_id, params)


def test_the_default_record_decides_the_whole_stream():
    record = run_check("THM41-MEMBER")
    assert record.status == "pass"
    assert record.details == {
        "stream_size": 12800,
        "checked": 12800,
        "failures": 0,
        "family_elements": 25,
        "failing_families": [],
    }


def test_rs_cap_one_reads_one_output():
    record = run_check("RS-GAMMA24", {"rs_cap": 1, "sample": 1})
    assert record.status == "pass"
    assert record.details["rs_outputs_sampled"] == 1
