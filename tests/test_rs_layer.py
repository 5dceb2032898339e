"""RS-GAMMA24 decided once per generator on its layer vector mod 4, and
GEN-FIX-ONES on ``act``.

RS-GAMMA24's verdict on each generator, shared by x and x^-1, is checked
against the word-level products y x^+-1 u^-1 it stands for and against
the earlier per-signed-generator evaluation ``oracle_ledger.slide_layer``,
and its records against
``oracle_ledger.rs_gamma24_products`` (each sampled word evaluated whole by
``product_matrix``) and the word-level ``oracle_ledger.rs_gamma24``,
also with a planted generator whose outputs are not level 4.  GEN-FIX-ONES'
records are checked against the row sums of ``oracle_ledger.gen_fix_ones``.
"""

import random

import pytest

import oracle_homology
import oracle_ledger
from crosscap import families, homology, ledger
from crosscap.homology import H1Class, collapse_total_class
from crosscap.intmat import IntMatrix
from crosscap.ledger import _level_4_offset as level_4_offset
from crosscap.ledger import run_check
from crosscap.words import MCGWord, TorelliTag, word

PLANT = TorelliTag("gamma")


@pytest.fixture
def planted(monkeypatch):
    """Add Gamma to RS-GAMMA24's generators, acting on H_1 as
    I + 2e E_(1,g) for Gamma^e.  That is I mod 2 with trivial phi mod 4
    (collapsing the total class drops the last column), but not level 4 for
    odd e.  No word acts so: every word fixes the total class, and then a
    level-2 action with trivial phi mod 4 is level 4."""
    real = homology.product_matrix

    def product(genus, factors):
        m = IntMatrix.identity(genus)
        for w, sign in factors:
            letters = w.letters if sign == 1 else [(s, -e) for s, e in reversed(w.letters)]
            for sym, exp in letters:
                if sym == PLANT:
                    rows = [[int(r == c) for c in range(genus)] for r in range(genus)]
                    rows[0][genus - 1] = 2 * exp
                    m = m * IntMatrix.from_rows(rows)
                else:
                    m = m * real(genus, [(MCGWord(genus, ((sym, exp),)), 1)])
        return m

    monkeypatch.setattr(homology, "product_matrix", product)
    monkeypatch.setattr(oracle_ledger, "product_matrix", product)
    gens = ledger._y_union_d_words
    # oracle_ledger holds its own binding of the generator list
    for module in (ledger, oracle_ledger):
        monkeypatch.setattr(module, "_y_union_d_words", lambda g: gens(g) + [word(g, PLANT)])


def signed_generators(g):
    return [s for x in ledger._y_union_d_words(g) for s in (x, x.inverse())]


def output_verdict(g, c, s, mask):
    """Is y s u^-1 level 4 with trivial phi mod 4, for y = subset word c and
    u = subset word c XOR mask, evaluated as one spelled word?"""
    y, u = families.subset_word(g, c), families.subset_word(g, c ^ mask)
    m = homology.word_matrix(y * s * u.inverse())
    return (
        oracle_homology.matrix_level_trivial(m, 4)
        and collapse_total_class(m).reduce_mod(4).is_identity()
    )


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_coordinates_are_those_of_the_phi_images(rs_runner_layer, g):
    signed = signed_generators(g)
    coords, _ = rs_runner_layer(g)
    assert coords == oracle_ledger.slide_coordinates(g, signed)
    assert coords == oracle_ledger.slide_layer(g, signed)[0]


def check_verdicts(rs_runner_layer, g):
    signed = signed_generators(g)
    coords, ok = rs_runner_layer(g)
    # the layer vectors of the earlier evaluation, one per signed generator
    _, outputs = oracle_ledger.slide_layer(g, signed)
    assert [level_4_offset(v, g) for v in outputs] == [ok[j // 2] for j in range(len(signed))]
    top = families.transversal_count(g) - 1
    cosets = [0, top] + random.Random(g).sample(range(1, top), 3)
    for j, s in enumerate(signed):
        # x and x^-1 share one verdict
        for c in cosets:
            assert ok[j // 2] == output_verdict(g, c, s, coords[j]), (str(s), c)
    return ok


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_each_generators_verdict_is_that_of_its_outputs(rs_runner_layer, g):
    assert all(check_verdicts(rs_runner_layer, g))


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_a_planted_generators_verdict_is_that_of_its_outputs(planted, rs_runner_layer, g):
    ok = check_verdicts(rs_runner_layer, g)
    # Gamma, the last generator, is refused
    assert ok[-1] is False and all(ok[:-1])


def records(monkeypatch, oracle, params, check_id="RS-GAMMA24"):
    """The record of the registry's runner and of ``oracle``, for
    ``params``, each without its runtime."""
    got = run_check(check_id, params).to_json()
    spec = ledger.CHECKS[check_id]
    oracle_spec = ledger.CheckSpec(
        oracle, spec.anchor, spec.defaults, spec.floors, spec.ceilings, spec.parities
    )
    monkeypatch.setitem(ledger.CHECKS, check_id, oracle_spec)
    expected = run_check(check_id, params).to_json()
    del got["runtime_ms"], expected["runtime_ms"]
    return got, expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("g", [3, 4, 5, 6, 7, 8])
def test_records_match_the_sampled_products(monkeypatch, g, seed):
    got, expected = records(monkeypatch, oracle_ledger.rs_gamma24_products, {"g": g, "seed": seed})
    assert got == expected
    assert got["status"] == "pass"


@pytest.mark.parametrize(
    "params", [{"g": 3, "sample": 20000}, {"g": 5, "sample": 777, "rs_cap": 777}]
)
def test_records_match_the_sampled_products_on_whole_streams(monkeypatch, params):
    got, expected = records(monkeypatch, oracle_ledger.rs_gamma24_products, params)
    assert got == expected
    assert got["details"]["rs_outputs_sampled"] == {3: 98, 5: 777}[params["g"]]


@pytest.mark.parametrize("g", [3, 4])
def test_a_planted_generator_fails_as_the_word_level_oracle_does(monkeypatch, planted, g):
    params = {"g": g, "sample": 20000, "rs_cap": 777}
    got, expected = records(monkeypatch, oracle_ledger.rs_gamma24, params)
    assert got == expected
    assert got["status"] == "fail"
    assert got["details"] == {
        "order": 1 << (g - 1) ** 2,
        "expected_order": 1 << (g - 1) ** 2,
        "exponent_2": True,
        "matches_congruence_image": True,
        "transversal_is_section": True,
        # Gamma and its inverse add one output each per coset
        "rs_outputs_sampled": min(777, {3: 98, 4: 9218}[g] + 2 * families.transversal_count(g)),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_a_planted_generator_fails_as_the_sampled_products_do(monkeypatch, planted, g, seed):
    got, expected = records(
        monkeypatch, oracle_ledger.rs_gamma24_products, {"g": g, "seed": seed, "sample": 50}
    )
    assert got == expected


def test_a_generator_acting_outside_the_level_2_layer_fails_by_name(monkeypatch):
    # phi mod 4 of Gamma stays trivial, but its whole action is not I mod 2
    real = homology.product_matrix

    def product(genus, factors):
        factors = list(factors)
        if any(sym == PLANT for w, _ in factors for sym, _ in w.letters):
            rows = [[int(r == c) for c in range(genus)] for r in range(genus)]
            rows[0][genus - 1] = 1
            return IntMatrix.from_rows(rows)
        return real(genus, factors)

    monkeypatch.setattr(homology, "product_matrix", product)
    gens = ledger._y_union_d_words
    monkeypatch.setattr(ledger, "_y_union_d_words", lambda g: gens(g) + [word(g, PLANT)])
    record = run_check("RS-GAMMA24")
    assert record.status == "fail"
    assert record.details == {"reason": "generator Gamma is not congruent to I mod 2"}


@pytest.mark.parametrize("gmax", range(2, 11))
def test_gen_fix_ones_records_match_the_row_sums(monkeypatch, gmax):
    got, expected = records(monkeypatch, oracle_ledger.gen_fix_ones, {"gmax": gmax}, "GEN-FIX-ONES")
    assert got == expected
    assert got["status"] == "pass"


def test_gen_fix_ones_compares_raw_coefficients(monkeypatch):
    # 3 a_1 + ... + 3 a_g equals the total class up to an even shift, and
    # must still fail
    monkeypatch.setattr(ledger, "act", lambda w, x: H1Class(x.genus, [3] * x.genus))
    record = run_check("GEN-FIX-ONES", {"gmax": 3})
    assert record.status == "fail"
    assert record.details["failures"][0][0] == 2
    assert H1Class(2, (3, 3)) == H1Class(2, (1, 1))
