"""The word-identity checks fail, by name, when one side of an identity is
planted wrong: a LEM43-COMM row with a factor dropped, a C element whose
twist form is off, a T2-EQ-YY pair, a LEM42-3CHAIN tuple and a wrong
factor of its slide form.  Each defect
is planted in the relation family its check draws from, and every check
decides its relations with ``families.failing``; a decision that always
said yes would pass every record and fail these."""

import json
import re

import pytest

from crosscap import families, homology
from crosscap.cli import main
from crosscap.families import RealizationError
from crosscap.intmat import IntMatrix
from crosscap.ledger import run_check
from crosscap.words import Slide, Twist


def test_a_lem43_row_with_a_factor_dropped_fails_by_name(monkeypatch):
    real = families.slide_commutator_relations
    planted = []

    def relations(gmax):
        # the commutator's four factors inverted, then the row's first factor
        for name, g, factors in real(gmax):
            if g == 5 and len(factors) > 4 and not planted:
                planted.append(name)
                factors = factors[:4] + factors[5:]
            yield name, g, factors

    monkeypatch.setattr(families, "slide_commutator_relations", relations)
    record = run_check("LEM43-COMM", {"gmax": 5})
    assert record.status == "fail"
    assert record.details["failures"] == planted
    assert record.details["pairs"] == 36 + 120


@pytest.mark.parametrize("idx", [(1, 3, 2), (1, 2, 3), (2, 4, 1)])
def test_a_c_element_with_a_wrong_twist_form_raises_by_name(monkeypatch, idx):
    real = families._twist_word

    def twist_word(g, indices, exp=1):
        # the C twist forms square a twist; A raises one to the 4th power
        return real(g, indices, 3 if exp == 2 else exp)

    # the true forms pass, and the planted ones fail by name
    families.named_element("C", idx, 5)
    monkeypatch.setattr(families, "_twist_word", twist_word)
    with pytest.raises(RealizationError, match=re.escape(f"C{idx}: slide and twist realizations disagree")):
        families.named_element("C", idx, 5)
    families.named_element("A", (1, 2), 5)


def _verify(capsys, suite):
    """The exit code of ``verify`` on ``suite`` and its one record."""
    code = main(["verify", "--suite", suite, "--format", "json"])
    (record,) = json.loads(capsys.readouterr().out)
    return code, record


@pytest.mark.parametrize(
    "suite, element", [("THM41-MEMBER", "C(1, 2, 3)"), ("LEM43-COMM", "C(2, 3, 1)")]
)
def test_a_c_element_whose_realizations_disagree_is_a_fail_record(monkeypatch, capsys, suite, element):
    monkeypatch.setattr(homology, "acts_trivially", lambda genus, factors: False)
    code, record = _verify(capsys, suite)
    assert code == 1 and record["status"] == "fail"
    assert record["details"] == {
        "reason": f"{element}: slide and twist realizations disagree on homology"
    }


def test_a_d_element_with_no_sign_is_a_fail_record(monkeypatch, capsys):
    saved = dict(families._D_SIGN_CACHE)
    families._D_SIGN_CACHE.clear()
    # no candidate word acts as the identity, so neither sign is chosen
    monkeypatch.setattr(homology, "word_matrix", lambda w: IntMatrix.from_rows([[2] * w.genus] * w.genus))
    try:
        code, record = _verify(capsys, "THM31-MEMBER")
    finally:
        families._D_SIGN_CACHE.clear()
        families._D_SIGN_CACHE.update(saved)
    assert code == 1 and record["status"] == "fail"
    assert record["details"] == {
        "reason": "conjugated-twist sign for D(1, 2, 3, 4) is not determined (candidates [])"
    }


def test_a_t2_pair_with_a_wrong_twist_power_fails_by_name(monkeypatch):
    real = families.twist_square_relations

    def relations(gmax):
        for name, g, factors in real(gmax):
            if name == (4, 1, 3):
                factors = ((families.word(g, (Twist((1, 3)), 4)), 1),) + factors[1:]
            yield name, g, factors

    monkeypatch.setattr(families, "twist_square_relations", relations)
    record = run_check("T2-EQ-YY", {"gmax": 5})
    assert record.status == "fail"
    assert record.details["failures"] == [(4, 1, 3)]
    assert record.details["pairs"] == 3 + 6 + 10


@pytest.mark.parametrize("form", ["paired", "slides"])
def test_a_3chain_tuple_with_a_wrong_form_fails_by_name(monkeypatch, form):
    real = families.three_chain_relations

    def relations(gmax):
        # the chain power inverted times the planted form: a Y(1,3)^-1
        # inside the chain power, or after the slides
        for name, g, factors in real(gmax):
            if name == (5, 2, 4, 5, form):
                extra = ((families.word(g, Slide(1, 3)), -1),)
                factors = factors[:1] + extra + factors[1:] if form == "paired" else factors + extra
            yield name, g, factors

    monkeypatch.setattr(families, "three_chain_relations", relations)
    record = run_check("LEM42-3CHAIN", {"gmax": 5})
    assert record.status == "fail"
    assert record.details["failures"] == [(5, 2, 4, 5, form)]
    assert record.details["tuples"] == 1 + 4


@pytest.mark.parametrize("position", [0, 5, 9, 16, 19])
def test_a_3chain_slide_form_with_a_wrong_factor_fails_by_name(monkeypatch, position):
    real = families.three_chain_slide_factors

    def slide_factors(j, k, l, slide):
        factors = real(j, k, l, slide)
        g = factors[0][0].genus
        if (g, j, k, l) != (5, 2, 4, 5):
            return factors
        # the planted factor's slide reversed: Y(b,a) for Y(a,b), with its
        # sign kept (a slide and its inverse act alike on H_1)
        w, sign = factors[position]
        ((sym, _),) = w.letters
        wrong = families.word(g, Slide(sym.along, sym.moving))
        return factors[:position] + ((wrong, sign),) + factors[position + 1 :]

    monkeypatch.setattr(families, "three_chain_slide_factors", slide_factors)
    record = run_check("LEM42-3CHAIN", {"gmax": 5})
    assert record.status == "fail"
    assert record.details["failures"] == [(5, 2, 4, 5, "slides")]
    assert record.details["tuples"] == 1 + 4


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--set", "C", "--genus", "4", "--limit", "1"],
        ["phi", "--genus", "4", "--word", "C(1,2;3)"],
        ["member", "--genus", "4", "--word", "C(1,2;3)", "--level", "2"],
        ["act", "--genus", "4", "--word", "C(1,2;3)", "--on", "a1"],
    ],
)
def test_a_failed_realization_outside_verify_exits_1(monkeypatch, capsys, argv):
    # a failed identity of the paper is a failed claim, not a usage error
    monkeypatch.setattr(homology, "acts_trivially", lambda genus, factors: False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "fail: C(1, 2, 3): slide and twist realizations disagree on homology\n"
