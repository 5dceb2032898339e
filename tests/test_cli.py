import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crosscap
from conftest import Budget
from crosscap import families
from crosscap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_paper_example(capsys):
    code, out, _ = run_cli(capsys, "phi", "--genus", "3", "--word", "T(1,3)^2")
    assert code == 0
    assert out.strip() == "1,0;2,1"


def test_member_example(capsys):
    code, out, _ = run_cli(capsys, "member", "--genus", "4", "--level", "4", "--word", "A(1,2)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "member", "--genus", "4", "--level", "4", "--word", "T(1,2)")
    assert code == 0 and out.strip() == "false"


def test_act(capsys):
    code, out, _ = run_cli(capsys, "act", "--genus", "4", "--word", "Y(1,2)", "--on", "a2")
    assert code == 0 and out.strip() == "2a1 + a2"


def test_psi_json(capsys):
    code, out, _ = run_cli(capsys, "psi", "--genus", "3", "--word", "Y(1,2)", "--format", "json")
    assert code == 0
    assert json.loads(out) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_enum_limit_marker(capsys):
    code, out, _ = run_cli(capsys, "enum", "--set", "2Y", "--genus", "4", "--limit", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ""  # the empty transversal word
    assert lines[1] == "Y(1,2)"
    assert lines[2] == "... truncated at 2"


def test_enum_main2(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--set", "thm-main2", "--genus", "4", "--level", "3"
    )
    assert code == 0
    assert "T(1,2)^3" in out
    assert "T(1,2,3,4)^3" in out


def test_enum_seed_guard_is_inconclusive(capsys):
    code, out, err = run_cli(
        capsys, "enum", "--set", "thm-main2", "--genus", "4", "--level", str(1 << 40)
    )
    assert code == 3 and err == ""
    assert out.startswith("inconclusive: ")
    assert f"would have {1 << 41} letters, over the limit of 1048576" in out


def test_enum_tower_guard_is_inconclusive(capsys):
    code, out, err = run_cli(
        capsys, "enum", "--set", "2Z", "--genus", "4", "--tower", "70", "--limit", "2"
    )
    assert code == 3 and err == ""
    assert out.startswith("inconclusive: the tower set at l = 70 ")
    assert "4 x 2^67 letters, over SEED_LETTER_LIMIT = 1048576" in out


@pytest.mark.parametrize("l", [20000, 10**9])
def test_enum_tower_guard_names_the_count_without_forming_it(capsys, l):
    # 4 * 2^19997 has over 4300 digits, past Python's int-to-string limit
    code, out, err = run_cli(
        capsys, "enum", "--set", "2Z", "--genus", "4", "--tower", str(l), "--limit", "2"
    )
    assert code == 3 and err == ""
    assert out == (
        f"inconclusive: the tower set at l = {l} raises a 4-letter word to the power"
        f" 2^{l - 3}, 4 x 2^{l - 3} letters, over SEED_LETTER_LIMIT = 1048576\n"
    )


def test_enum_tower_at_the_letter_limit_enumerates(capsys):
    # the C words of the tower set at l = 21 have 4 * 2^18 = 2^20 letters
    code, out, err = run_cli(
        capsys, "enum", "--set", "2Z", "--genus", "4", "--tower", "21", "--limit", "2"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["", "T(1,3)^1048576", "... truncated at 2"]


def test_enum_tower_refuses_a_product_past_the_letter_limit(capsys):
    # masks 0..4 are the empty word, the two A powers, their product and one
    # 2^20-letter C word; mask 5 would join an A power to that C word
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enum", "--set", "2Z", "--genus", "4", "--tower", "21")
    assert time.perf_counter() - start < 10
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6 and lines[:2] == ["", "T(1,3)^1048576"]
    assert lines[-1] == (
        "inconclusive: the tower-set product of mask 5 would have up to 1048577 letters,"
        " over SEED_LETTER_LIMIT = 1048576"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--set", "thm-gen-n", "--genus", "0", "--boundaries", "1"], "genus g must be >= 1, got 0"),
        (["--set", "thm-gen-n", "--genus", "-2", "--boundaries", "1"], "genus g must be >= 1, got -2"),
        (["--set", "2Z", "--genus", "4", "--tower", "2"], "the 2^l tower starts at l = 3"),
        (["--set", "Y", "--genus", "3", "--limit", "-1"], "--limit must be >= 0, got -1"),
        (["--set", "2Z", "--genus", "4", "--tower", "70", "--limit", "-3"], "--limit must be >= 0, got -3"),
    ],
)
def test_enum_bad_values_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "enum", *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_fold(capsys):
    code, out, _ = run_cli(
        capsys,
        "fold",
        "--genus", "1", "--boundaries", "2",
        "--words", "x1^2; y1; x1 y1 x1^-1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 2
    assert data["vertices"] == 2


@pytest.mark.parametrize(
    "argv, edges",
    [
        (
            ["--genus", "1", "--boundaries", "2", "--words", "x1^2; y1; x1 y1 x1^-1"],
            [[0, "x1", 1], [0, "y1", 0], [1, "x1", 0], [1, "y1", 1]],
        ),
        (
            ["--genus", "2", "--words", "x1 x2^-1; x2^3"],
            [[0, "x1", 1], [0, "x2", 1], [1, "x2", 2], [2, "x2", 0]],
        ),
        (
            ["--genus", "2", "--boundaries", "2", "--words", "x1 x2; x2^2; y1", "--alphabet", "plus"],
            [[0, "u1", 0], [0, "v2", 0], [0, "y1", 0]],
        ),
        (
            ["--genus", "2", "--words", "x1 x2 x1 x2; x1 x1; x2 x2", "--alphabet", "plus"],
            [[0, "u1", 1], [0, "v2", 0], [1, "v1", 0], [1, "v2", 2], [2, "u1", 0]],
        ),
        (
            ["--genus", "3", "--words", "x1 x3; x2^2 x3^-2", "--alphabet", "plus"],
            [[0, "u1", 1], [0, "u2", 2], [0, "v3", 3], [1, "v3", 0], [2, "v2", 3]],
        ),
    ],
)
def test_fold_json_edge_lists(capsys, argv, edges):
    code, out, err = run_cli(capsys, "fold", *argv, "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["edges"] == edges
    assert data["vertices"] == 1 + max(max(v, t) for v, _, t in edges)
    assert data["base"] == 0


@pytest.mark.parametrize("alphabet", ["ambient", "plus"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--genus", "2", "--boundaries", "0", "--words", "x1"], "--boundaries must be >= 1, got 0"),
        (["--genus", "2", "--boundaries", "-3", "--words", "x1 x1"], "--boundaries must be >= 1, got -3"),
        (["--genus", "0", "--boundaries", "1", "--words", ";"], "--genus must be >= 1, got 0"),
        (["--genus", "-1", "--words", "x1"], "--genus must be >= 1, got -1"),
        (["--genus", "0", "--boundaries", "0", "--words", "x1"], "--genus must be >= 1, got 0"),
    ],
)
def test_fold_bad_values_exit_2(capsys, argv, message, alphabet):
    code, out, err = run_cli(capsys, "fold", *argv, "--alphabet", alphabet)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_fold_plus_alphabet_rejects_letters_out_of_range(capsys):
    code, out, err = run_cli(
        capsys, "fold", "--genus", "2", "--words", "x5 x5", "--alphabet", "plus"
    )
    assert code == 2 and out == ""
    assert "x5 out of range for genus 2" in err
    code, out, _ = run_cli(
        capsys, "fold", "--genus", "2", "--words", "x1 x2; x1 x1", "--alphabet", "plus"
    )
    assert code == 0 and out.strip() == "vertices: 2  index: infinite"


def test_coset(capsys):
    code, out, _ = run_cli(
        capsys, "coset", "--rank", "2", "--relators", "x1^2; x2^2; x1 x2 x1 x2"
    )
    assert code == 0 and out.strip() == "4"


def test_coset_cap_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "coset", "--rank", "2", "--relators", "x1^2", "--cap", "64"
    )
    assert code == 3
    assert "inconclusive" in out


def test_verify_json_and_report_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite", "THETA-BASIS,PROP34-TC",
        "--params", "g=4,n=1,d=2",
        "--format", "json",
        "--out", str(tmp_path),
    )
    assert code == 0
    records = json.loads(out)
    assert [r["id"] for r in records] == ["PROP34-TC", "THETA-BASIS"]
    assert all(r["status"] == "pass" for r in records)
    files = list(tmp_path.glob("report-*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text())[0]["status"] == "pass"


def test_verify_report_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSCAP_REPORT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "verify", "--suite", "T2-EQ-YY", "--params", "gmax=4")
    assert code == 0
    assert list(tmp_path.glob("report-*.json"))


def test_verify_inconclusive_exit_code(capsys):
    # PSI-O2's exhaustion of the 2^(g^2) matrices is guarded above g = 4
    code, out, _ = run_cli(capsys, "verify", "--suite", "PSI-O2", "--params", "g=5", "--format", "json")
    assert code == 3
    assert json.loads(out)[0]["status"] == "inconclusive"


def test_verify_odd_level_closure_past_the_orthogonal_bound_exits_3_at_once(capsys):
    # the bound at g = 100000 has billions of digits; it is never formed
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--suite", "THM31-CLOSURE", "--params", "g=100000,d=3", "--format", "json"
    )
    assert time.perf_counter() - start < 0.1
    assert code == 3 and err == ""
    (record,) = json.loads(out)
    assert record["status"] == "inconclusive"
    assert record["details"]["reason"] == (
        "the orthogonal bound at g = 100000 exceeds the closure cap of 4194304 elements:"
        " it is 92897280 at g = 8 and grows with g"
    )


def test_verify_theta_basis_past_the_kernel_work_budget_exits_3_at_once(capsys):
    # 8^7 transversal words would take minutes to spell
    with Budget("verify THETA-BASIS g=8,d=8", 1.0):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "THETA-BASIS", "--params", "g=8,d=8", "--format", "json"
        )
    assert code == 3 and err == ""
    assert json.loads(out)[0]["details"] == {
        "reason": "kernel work d^(g-1) x relator letters = 2097152 x 232 = 486539264"
        " exceeds budget 4194304"
    }


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["phi", "--genus", "3"])  # missing --word
    assert err.value.code == 2
    code, _, err_out = run_cli(capsys, "phi", "--genus", "3", "--word", "T(1,")
    assert code == 2
    assert "error" in err_out


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "NOPE")
    assert code == 2 and out == ""
    assert "unknown check id 'NOPE'" in err


def test_verify_unknown_id_stops_before_any_check_runs(capsys, monkeypatch):
    from crosscap import ledger

    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(ledger, "run_check", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", "THETA-BASIS,NOPE")
    assert code == 2 and out == ""
    assert "unknown check id 'NOPE'" in err


def test_verify_bad_params_entry_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "THETA-BASIS", "--params", "g")
    assert code == 2 and out == ""
    assert "bad --params entry 'g' (want k=v)" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_coset_bad_cap_exits_2(capsys, cap):
    code, out, err = run_cli(
        capsys, "coset", "--rank", "2", "--relators", "x1^2; x2^2", "--cap", cap
    )
    assert code == 2 and out == ""
    assert err.strip() == f"error: cap must be >= 1, got {cap}"


@pytest.mark.parametrize("relators", ["x1^2", ""])
def test_coset_with_a_free_letter_ends_inconclusive(capsys, relators):
    # x2 is in no relator, so the group is infinite at any cap
    with Budget(f"coset --rank 2 --relators {relators!r}", 5.0):
        code, out, err = run_cli(capsys, "coset", "--rank", "2", "--relators", relators)
    assert code == 3 and err == ""
    assert out.strip() == "inconclusive: coset table exceeded cap of 100000"


def test_coset_of_the_free_cyclic_group_ends_inconclusive(capsys):
    # one free letter adds two cosets a pass; the table is filled to its cap
    # breadth-first once a pass changes nothing
    with Budget("coset --rank 1 --relators ''", 5.0):
        code, out, err = run_cli(capsys, "coset", "--rank", "1", "--relators", "")
    assert code == 3 and err == ""
    assert out.strip() == "inconclusive: coset table exceeded cap of 100000"


def test_coset_rejects_letters_other_than_x(capsys):
    code, out, err = run_cli(capsys, "coset", "--rank", "2", "--relators", "y1")
    assert code == 2 and out == ""
    assert "relators use letters x1..x2, found y1" in err


def test_verify_unknown_param_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "THM41-MEMBER", "--params", "gg=5")
    assert code == 2 and out == ""
    assert "unknown parameter 'gg': THM41-MEMBER takes g" in err
    code, out, err = run_cli(capsys, "verify", "--suite", "PSI-O2", "--params", "seed=1")
    assert code == 2 and out == ""
    assert "unknown parameter 'seed': PSI-O2 takes g" in err


def test_verify_seed_goes_only_to_checks_that_declare_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "PSI-O2", "--seed", "3", "--format", "json")
    assert code == 0
    assert [r["params"] for r in json.loads(out)] == [{"g": 4}]
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite", "PSI-O2,RS-GAMMA24",
        "--params", "sample=5",
        "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    assert [r["params"] for r in json.loads(out)] == [
        {"g": 4},
        {"g": 4, "rs_cap": 20000, "sample": 5, "seed": 3},
    ]


def test_verify_report_file_names_carry_seed_only_for_seeded_suites(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "RS-GAMMA24", "--params", "sample=2",
        "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "T2-EQ-YY", "--params", "gmax=4",
        "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report-RS-GAMMA24-sample=2,seed=3.json",
        "report-T2-EQ-YY-gmax=4.json",
    ]


def test_verify_non_integer_param_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "THM31-CLOSURE", "--params", "g=4,d=x")
    assert code == 2 and out == ""
    assert "bad --params value 'x' for 'd' (want an integer)" in err


@pytest.mark.parametrize("params, key", [("d=2,d=4", "d"), ("g=4,d=2, d=2", "d"), ("g=4,g=5", "g")])
def test_verify_repeated_param_key_exits_2(capsys, params, key):
    # the last value used to win silently, so d=2,d=4 ran d = 4 and passed
    code, out, err = run_cli(capsys, "verify", "--suite", "THM31-CLOSURE", "--params", params)
    assert code == 2 and out == ""
    assert f"bad --params: key {key!r} is given more than once" in err


@pytest.mark.parametrize(
    "suite, params, message",
    [
        ("TOWER-2L", "l=1", "parameter 'l' must be >= 2, got 1"),
        ("TOWER-2L", "l=0", "parameter 'l' must be >= 2, got 0"),
        ("THM41-MEMBER", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("THM41-MOD8", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("THM41-MEMBER", "sample=-5", "unknown parameter 'sample': THM41-MEMBER takes g"),
        ("RS-GAMMA24", "sample=0", "parameter 'sample' must be >= 1, got 0"),
        ("RS-GAMMA24", "sample=-1", "parameter 'sample' must be >= 1, got -1"),
        ("RS-GAMMA24", "rs_cap=0", "parameter 'rs_cap' must be >= 1, got 0"),
        ("GEN-FIX-ONES", "gmax=1", "parameter 'gmax' must be >= 2, got 1"),
        ("T2-EQ-YY", "gmax=2", "parameter 'gmax' must be >= 3, got 2"),
        ("LEM42-3CHAIN", "gmax=3", "parameter 'gmax' must be >= 4, got 3"),
        ("LEM43-COMM", "gmax=3", "parameter 'gmax' must be >= 4, got 3"),
        ("THM23-ELEM", "g=2", "parameter 'g' must be >= 3, got 2"),
        ("THM23-ELEM", "d=0", "parameter 'd' must be >= 2, got 0"),
        ("THM23-OBSTRUCT", "d=0", "parameter 'd' must be >= 1, got 0"),
        ("PSI-O2", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("PSI-O2", "g=2", "parameter 'g' must be >= 4, got 2"),
        ("TOWER-2L", "g=2", "parameter 'g' must be >= 3, got 2"),
        ("THETA-BASIS", "g=1", "parameter 'g' must be >= 2, got 1"),
        ("THM23-OBSTRUCT", "g=2", "parameter 'g' must be >= 4, got 2"),
        ("THM23-OBSTRUCT", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("THM51-COUNTS", "n=0", "parameter 'n' must be >= 1, got 0"),
        ("EX21-MATRICES", "dmax=0", "parameter 'dmax' must be >= 1, got 0"),
        ("EX21-MATRICES", "gmax=2", "parameter 'gmax' must be >= 3, got 2"),
        ("THM23-KER", "g=0", "parameter 'g' must be >= 2, got 0"),
        ("THM23-KER", "g=-2", "parameter 'g' must be >= 2, got -2"),
        ("THM31-CLOSURE", "d=0", "parameter 'd' must be >= 2, got 0"),
        ("THM31-CLOSURE", "d=1", "parameter 'd' must be >= 2, got 1"),
        ("THM31-MEMBER", "d=0", "parameter 'd' must be >= 2, got 0"),
        ("THM31-MEMBER", "d=1", "parameter 'd' must be >= 2, got 1"),
        ("THM23-KER", "d=1", "parameter 'd' must be >= 2, got 1"),
        ("THM23-KER", "d=0", "parameter 'd' must be >= 2, got 0"),
        ("THETA-BASIS", "n=0", "parameter 'n' must be >= 1, got 0"),
        ("THETA-BASIS", "d=1", "parameter 'd' must be >= 2, got 1"),
        ("THM51-COUNTS", "d=1", "parameter 'd' must be >= 2, got 1"),
        ("THM51-COUNTS", "g=0", "parameter 'g' must be >= 1, got 0"),
        ("THM51-COUNTS", "g=-3", "parameter 'g' must be >= 1, got -3"),
        ("THM31-MEMBER", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("THM31-CLOSURE", "g=3", "parameter 'g' must be >= 4, got 3"),
        ("RS-GAMMA24", "g=2", "parameter 'g' must be >= 3, got 2"),
        ("THM23-ELEM", "d=3", "parameter 'd' must be even, got 3"),
        ("THM23-KER", "g=5", "parameter 'g' must be even, got 5"),
        ("THM23-KER", "d=4", "parameter 'd' must be odd, got 4"),
        ("RS-GAMMA24", "rs_cap=1000001", "parameter 'rs_cap' must be <= 1000000, got 1000001"),
    ],
)
def test_verify_bad_param_values_exit_2(capsys, suite, params, message):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--params", params)
    assert code == 2 and out == ""
    assert message in err
    # a value outside a check's range or of the wrong parity is refused under
    # the check's id; the other refusals come from deeper layers and keep
    # their own text
    if message.startswith("parameter ") and any(
        bound in message for bound in (" must be >= ", " must be <= ", " must be even", " must be odd")
    ):
        assert f"error: {suite}: {message}" in err
    else:
        assert f"{suite}:" not in err


def test_verify_all_names_the_check_that_refuses_a_value(capsys):
    # PSI-O2 is the first check, in id order, that refuses g = 2
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--params", "g=2")
    assert code == 2 and out == ""
    assert err.strip() == "error: PSI-O2: parameter 'g' must be >= 4, got 2"


def test_verify_all_runs_a_tower_past_2_to_the_62(capsys):
    # the layer's entries are Python ints, so no modulus 2^l is too large
    for l in (63, 100):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--params", f"l={l}", "--format", "json"
        )
        assert code == 0 and err == ""
        records = {r["id"]: r for r in json.loads(out)}
        assert records["TOWER-2L"]["params"] == {"g": 4, "l": l}
        assert records["TOWER-2L"]["details"] == {"order": 1 << 8, "expected": 1 << 8}


@pytest.mark.parametrize("g, l, order", [(4, 63, 1 << 8), (4, 100, 1 << 8), (5, 63, 1 << 15)])
def test_verify_tower_past_2_to_the_62_passes(capsys, g, l, order):
    # the layer ker(Z/2^l -> Z/2^(l-1)) is elementary abelian of rank (g-1)^2 - 1
    code, out, err = run_cli(
        capsys, "verify", "--suite", "TOWER-2L", "--params", f"g={g},l={l}", "--format", "json"
    )
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["status"] == "pass"
    assert record["params"] == {"g": g, "l": l}
    assert record["details"] == {"order": order, "expected": order}


def test_verify_all_at_genus_10_with_a_sample_records_every_check(capsys):
    # THM23-KER's kernel element needs an even genus, so g = 9 is refused
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--params", "g=9,sample=5")
    assert code == 2 and out == ""
    assert err.strip() == "error: THM23-KER: parameter 'g' must be even, got 9"
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--params", "g=10,sample=5", "--format", "json"
    )
    assert code == 3 and err == ""
    records = {r["id"]: r for r in json.loads(out)}
    assert len(records) == 19
    # THM41-MEMBER's stream has 2^((g-1)^2) = 2^81 transversal words times
    # |A| + |B| + |C| + |D| = 45 + 45 + 360 + 84 family elements, every one
    # decided by its family element
    assert records["THM41-MEMBER"]["status"] == "pass"
    assert records["THM41-MEMBER"]["details"] == {
        "stream_size": (1 << 81) * 534,
        "checked": (1 << 81) * 534,
        "failures": 0,
        "family_elements": 534,
        "failing_families": [],
    }


@pytest.mark.parametrize(
    "g, d, order",
    [
        (4, 32769, 24),
        (4, (1 << 61) - 1, 24),
        (4, (1 << 61) + 1, 24),
        (4, (1 << 89) - 1, 24),
        (5, 32769, 720),
    ],
)
def test_verify_thm31_at_an_odd_level_past_2_to_the_15_passes(capsys, g, d, order):
    # odd levels close on their images mod 2, whatever the modulus 2d
    code, out, err = run_cli(
        capsys,
        "verify",
        "--suite",
        "THM31-MEMBER,THM31-CLOSURE",
        "--params",
        f"g={g},d={d}",
        "--format",
        "json",
    )
    assert code == 0 and err == ""
    closure, member = json.loads(out)
    assert closure["status"] == member["status"] == "pass"
    assert closure["details"]["closure_order"] == closure["details"]["reference_order"] == order
    assert closure["details"]["modulus"] == 2 * d


@pytest.mark.parametrize("suite", ["THM31-CLOSURE", "THM31-MEMBER"])
def test_verify_thm31_at_level_2_to_the_40_is_inconclusive(capsys, suite):
    d = 1 << 40
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--params", f"g=4,d={d}", "--format", "json"
    )
    assert code == 3 and err == ""
    (record,) = json.loads(out)
    assert record["status"] == "inconclusive"
    assert f"would have {2 * d} letters, over the limit of 1048576" in record["details"]["reason"]


def test_verify_thm31_at_an_even_level_2_to_the_62_stops_at_the_seed_letter_limit(capsys):
    d = 1 << 62
    code, out, err = run_cli(
        capsys, "verify", "--suite", "THM31-CLOSURE", "--params", f"g=4,d={d}", "--format", "json"
    )
    assert code == 3 and err == ""
    (record,) = json.loads(out)
    assert record["status"] == "inconclusive"
    limit = families.SEED_LETTER_LIMIT
    assert record["details"]["reason"].endswith(f"would have {2 * d} letters, over the limit of {limit}")


@pytest.mark.parametrize("suite", [",", " , ,"])
def test_verify_an_empty_suite_exits_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2 and out == ""
    assert "the suite names no check id" in err


@pytest.mark.parametrize("suite", ["PROP52-STALLINGS", "PROP34-TC"])
@pytest.mark.parametrize("d", [-2, 0, 1])
def test_kernel_checks_refuse_a_modulus_below_two(capsys, suite, d):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--params", f"g=4,n=1,d={d}")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {suite}: parameter 'd' must be >= 2, got {d}"


@pytest.mark.parametrize("suite", ["PROP52-STALLINGS", "PROP34-TC"])
@pytest.mark.parametrize("g", [-1, 0])
def test_kernel_checks_refuse_a_genus_below_one(capsys, suite, g):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--params", f"g={g},n=1,d=2")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {suite}: parameter 'g' must be >= 1, got {g}"


@pytest.mark.parametrize("suite, code", [("T2-EQ-YY,THM23-KER", 0), ("T2-EQ-YY,NOPE", 2)])
def test_python_dash_m_runs_the_cli(suite, code):
    src = Path(crosscap.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "crosscap", "verify", "--suite", suite],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert [line.split()[:2] for line in done.stdout.splitlines()] == [
            ["T2-EQ-YY", "pass"],
            ["THM23-KER", "pass"],
        ]
    else:
        assert "unknown check id 'NOPE'" in done.stderr


FORMAT_RUNS = [
    ("act", ["--genus", "4", "--word", "Y(1,2)", "--on", "a2"], ("text", "json")),
    ("phi", ["--genus", "3", "--word", "T(1,3)^2"], ("text", "json", "md")),
    ("psi", ["--genus", "3", "--word", "Y(1,2)"], ("text", "json", "md")),
    ("member", ["--genus", "4", "--level", "4", "--word", "A(1,2)"], ()),
    ("enum", ["--set", "2Y", "--genus", "3", "--limit", "2"], ("text", "json")),
    ("fold", ["--genus", "2", "--words", "x1 x1"], ("text", "json")),
    ("coset", ["--rank", "1", "--relators", "x1^3"], ("text", "json")),
    ("verify", ["--suite", "PSI-O2"], ("text", "json", "md")),
]


@pytest.mark.parametrize("command, argv, formats", FORMAT_RUNS)
def test_every_accepted_format_changes_the_output(capsys, command, argv, formats):
    outputs = []
    for fmt in formats:
        code, out, err = run_cli(capsys, command, *argv, "--format", fmt)
        assert code == 0 and err == ""
        outputs.append(out)
    assert len(set(outputs)) == len(outputs)
    for fmt in {"text", "json", "md"} - set(formats):
        # a value that would print what another prints is refused as usage
        with pytest.raises(SystemExit) as info:
            main([command, *argv, "--format", fmt])
        assert info.value.code == 2
    if not formats:
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0 and out == "true\n"
