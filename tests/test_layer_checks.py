"""RS-GAMMA24 and THM41-MOD8 on the level layers Gamma_2/Gamma_4 and
Gamma_4/Gamma_8, and THM41-MEMBER on the family elements: the frontier
genera they now reach without reading the level-4 stream or listing a
group, the closure the stacked stream oracle gives, and slides that would
break the reduction failing by name."""

import pytest

import oracle_finitegrp
import oracle_ledger
from conftest import Budget
from crosscap import families, ledger
from crosscap.words import Twist, word


def refuse_the_old_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the stream was read or a group enumerated")

    monkeypatch.setattr(oracle_ledger, "main3_stream_images", refuse)
    monkeypatch.setattr(ledger, "bfs_closure", refuse)
    monkeypatch.setattr(oracle_finitegrp, "coset_action_table", refuse)
    monkeypatch.setattr(oracle_ledger, "coset_action_table", refuse)


@pytest.mark.parametrize("g", [5, 6, 7, 8])
def test_rs_gamma24_passes_at_the_frontier(monkeypatch, g):
    refuse_the_old_paths(monkeypatch)
    with Budget(f"RS-GAMMA24 g={g}", 1.0):
        record = ledger.run_check("RS-GAMMA24", {"g": g})
    assert record.status == "pass"
    order = 1 << (g - 1) ** 2
    assert record.details == {
        "order": order,
        "expected_order": order,
        "exponent_2": True,
        "matches_congruence_image": True,
        "transversal_is_section": True,
        "rs_outputs_sampled": 200,
    }


@pytest.mark.parametrize("g", [5, 6, 7, 8])
def test_thm41_mod8_passes_at_the_frontier(monkeypatch, g):
    refuse_the_old_paths(monkeypatch)
    with Budget(f"THM41-MOD8 g={g}", 1.0):
        record = ledger.run_check("THM41-MOD8", {"g": g})
    assert record.status == "pass"
    order = 1 << ((g - 1) ** 2 - 1)
    assert record.details == {
        "family_images": len(families.main3_families(g)),
        "closure_order": order,
        "reference_order": order,
    }


@pytest.mark.parametrize("g", [5, 8, 12, 16])
def test_thm41_member_passes_at_the_frontier(monkeypatch, g):
    refuse_the_old_paths(monkeypatch)
    with Budget(f"THM41-MEMBER g={g}", 2.0):
        record = ledger.run_check("THM41-MEMBER", {"g": g})
    assert record.status == "pass"
    total = families.main3_count(g)
    assert record.details == {
        "stream_size": total,
        "checked": total,
        "failures": 0,
        "family_elements": len(families.main3_families(g)),
        "failing_families": [],
    }


def test_family_closure_is_the_whole_streams_at_genus_5(monkeypatch):
    closures = []
    real = ledger.layer_closure

    def recorder(gens, d):
        closures.append(real(gens, d))
        return closures[-1]

    monkeypatch.setattr(ledger, "layer_closure", recorder)
    record = ledger.run_check("THM41-MOD8", {"g": 5})
    # 3,538,944 stream words with 41 distinct images mod 8
    stream, distinct = oracle_ledger.thm41_mod8_stacked_closure(5)
    assert distinct == 41
    assert closures[0] == stream
    assert record.status == "pass"
    assert record.details["closure_order"] == stream.order == 1 << 15


@pytest.fixture
def planted_slide(monkeypatch):
    """Replace the fourth single slide, Y(2,1), by T(1,2), which acts
    nontrivially mod 2: in the subset words, and in the generator list
    whose first (g - 1)^2 words RS-GAMMA24 reads as the single slides."""
    real, gens = families.subset_word, ledger._y_union_d_words

    def with_plant(g, mask):
        return word(g, Twist((1, 2))) if mask == 1 << 3 else real(g, mask)

    def planted_gens(g):
        words = gens(g)
        words[3] = word(g, Twist((1, 2)))
        return words

    monkeypatch.setattr(families, "subset_word", with_plant)
    monkeypatch.setattr(ledger, "_y_union_d_words", planted_gens)


@pytest.mark.parametrize("check_id", ["RS-GAMMA24", "THM41-MOD8"])
def test_a_slide_outside_the_level_2_layer_fails_by_name(planted_slide, check_id):
    record = ledger.run_check(check_id, {"g": 4})
    assert record.status == "fail"
    # RS-GAMMA24 names every Y and D word a generator
    kind = {"RS-GAMMA24": "generator", "THM41-MOD8": "slide"}[check_id]
    assert record.details == {"reason": f"{kind} T(1,2) is not congruent to I mod 2"}


@pytest.mark.parametrize("g", range(3, 9))
def test_the_single_slides_are_the_first_generators(g):
    # RS-GAMMA24 reads the first (g - 1)^2 Y and D words as the single
    # slides that build its transversal subset_word(g, mask)
    k = families.y_count(g)
    assert ledger._y_union_d_words(g)[:k] == ledger._single_slides(g)
