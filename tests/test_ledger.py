import json

import pytest

from crosscap import finitegrp, ledger, words
from crosscap.ledger import (
    CHECKS,
    ParamRangeError,
    UnknownCheckError,
    records_to_markdown,
    run_check,
    run_suite,
    suite_params,
)

SPEC_IDS = [
    "EX21-MATRICES",
    "GEN-FIX-ONES",
    "T2-EQ-YY",
    "THM23-ELEM",
    "THM23-OBSTRUCT",
    "THM23-KER",
    "PSI-O2",
    "THM31-MEMBER",
    "LEM42-3CHAIN",
    "LEM43-COMM",
    "RS-GAMMA24",
    "THM41-MEMBER",
    "THM41-MOD8",
    "TOWER-2L",
    "THETA-BASIS",
    "PROP34-TC",
    "PROP52-STALLINGS",
    "THM51-COUNTS",
]


def test_catalog_contains_all_named_checks():
    for check_id in SPEC_IDS:
        assert check_id in CHECKS
    assert "THM31-CLOSURE" in CHECKS  # companion of the membership check


def test_every_check_has_anchor_and_defaults():
    for spec in CHECKS.values():
        assert spec.anchor
        assert isinstance(spec.defaults, dict)


def test_every_parameter_but_seed_has_a_floor_that_run_check_enforces():
    for check_id, spec in CHECKS.items():
        integers = {key for key, value in spec.defaults.items() if type(value) is int}
        assert set(spec.floors) == integers - {"seed"}, check_id
        for key, floor in spec.floors.items():
            assert spec.defaults[key] >= floor, (check_id, key)
            message = rf"^{check_id}: parameter '{key}' must be >= {floor}, got {floor - 1}$"
            with pytest.raises(ParamRangeError, match=message):
                run_check(check_id, {key: floor - 1})


def test_every_ceiling_lies_above_its_default_and_run_check_enforces_it():
    ceilings = {check_id: spec.ceilings for check_id, spec in CHECKS.items() if spec.ceilings}
    # the layer and the closures work on Python ints, so only RS-GAMMA24's
    # memory for its listed Schreier outputs is bounded
    assert ceilings == {"RS-GAMMA24": {"rs_cap": 1_000_000}}
    for check_id, bounds in ceilings.items():
        spec = CHECKS[check_id]
        for key, ceiling in bounds.items():
            assert spec.floors[key] <= spec.defaults[key] <= ceiling, (check_id, key)
            message = rf"^{check_id}: parameter '{key}' must be <= {ceiling}, got {ceiling + 1}$"
            with pytest.raises(ParamRangeError, match=message):
                run_check(check_id, {key: ceiling + 1})


def test_unknown_id_raises():
    with pytest.raises(UnknownCheckError):
        run_check("NOPE")


def test_records_are_deterministic_modulo_runtime():
    a = run_check("THETA-BASIS", {"g": 4, "n": 1, "d": 2})
    b = run_check("THETA-BASIS", {"g": 4, "n": 1, "d": 2})
    assert (a.id, a.params, a.status, a.details, a.anchor) == (
        b.id,
        b.params,
        b.status,
        b.details,
        b.anchor,
    )


def test_examples_pass():
    assert run_check("EX21-MATRICES", {"gmax": 3, "dmax": 2}).status == "pass"
    record = run_check("RS-GAMMA24", {"g": 4, "sample": 20})
    assert record.status == "pass"
    assert record.details["order"] == 512
    record = run_check("PROP52-STALLINGS", {"g": 4, "n": 1, "d": 2})
    assert record.status == "pass"
    assert record.details["claimed_index"] == 8


def test_parity_preconditions_are_refused_before_any_check_runs(monkeypatch):
    parities = {check_id: spec.parities for check_id, spec in CHECKS.items() if spec.parities}
    # the commutator identities need an even level; the full-twist kernel
    # element an even genus and an odd level
    assert parities == {"THM23-ELEM": {"d": 0}, "THM23-KER": {"g": 0, "d": 1}}
    for check_id, wanted in parities.items():
        for key, parity in wanted.items():
            assert CHECKS[check_id].defaults[key] % 2 == parity
    ran = []
    monkeypatch.setattr(ledger, "run_check", lambda check_id, own: ran.append(check_id))
    for check_id, params, message in [
        ("THM23-ELEM", {"d": 3}, "parameter 'd' must be even, got 3"),
        ("THM23-KER", {"g": 5}, "parameter 'g' must be even, got 5"),
        ("THM23-KER", {"d": 4}, "parameter 'd' must be odd, got 4"),
    ]:
        with pytest.raises(ParamRangeError, match=rf"^{check_id}: {message}$"):
            run_suite(None, params)
    assert ran == []


def test_guard_yields_inconclusive():
    assert run_check("PSI-O2", {"g": 5}).status == "inconclusive"
    assert run_check("PROP52-STALLINGS", {"g": 8, "d": 7}).status == "inconclusive"


@pytest.mark.parametrize("g, d", [(4, 1 << 18), (3, 1 << 30)])
def test_thm23_elem_passes_without_spelling_its_commutator_powers(monkeypatch, g, d):
    longest = [0]
    real = words.MCGWord.__init__

    def spy(self, genus, letters):
        real(self, genus, letters)
        longest[0] = max(longest[0], len(self.letters))

    monkeypatch.setattr(words.MCGWord, "__init__", spy)
    record = run_check("THM23-ELEM", {"g": g, "d": d})
    assert record.status == "pass"
    assert record.details == {"failures": []}
    # the commutators [T(j,g), Y(i,j)] themselves, never their powers
    assert longest[0] == 4


def test_a_closure_cap_makes_the_record_inconclusive(monkeypatch):
    monkeypatch.setattr(ledger, "bfs_closure", lambda gens: finitegrp.bfs_closure(gens, cap=10))
    record = run_check("PSI-O2")
    assert record.status == "inconclusive"
    assert record.details == {"reason": "closure exceeded cap of 10 elements"}


def test_unknown_params_are_rejected():
    with pytest.raises(ValueError, match=r"unknown parameter 'bogus': THETA-BASIS takes d, g, n"):
        run_check("THETA-BASIS", {"g": 4, "bogus": 99})


def test_run_suite_rejects_unknown_params_before_any_check_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr("crosscap.ledger.run_check", refuse)
    with pytest.raises(ValueError, match=r"unknown parameters 'gg', 'zz': the chosen checks take"):
        run_suite(["PSI-O2", "T2-EQ-YY"], {"gg": 5, "zz": 1, "g": 4})
    with pytest.raises(ValueError, match=r"unknown parameter 'gmax': PSI-O2 takes g$"):
        run_suite(["PSI-O2"], {"gmax": 4})


def test_an_empty_suite_raises_before_any_check_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr("crosscap.ledger.run_check", refuse)
    for call in (run_suite, suite_params):
        with pytest.raises(ValueError, match="the suite names no check id"):
            call([])


def test_suite_params_is_the_union_of_the_chosen_checks_keys():
    assert suite_params(["PSI-O2"]) == {"g"}
    assert suite_params(["PSI-O2", "T2-EQ-YY"]) == {"g", "gmax"}
    assert suite_params() == {key for spec in CHECKS.values() for key in spec.defaults}
    with pytest.raises(UnknownCheckError):
        suite_params(["NO-SUCH-CHECK"])


def test_run_suite_passes_each_check_only_its_own_keys():
    records = run_suite(["PSI-O2", "T2-EQ-YY"], {"g": 4, "gmax": 4})
    assert [r.params for r in records] == [{"g": 4}, {"gmax": 4}]
    alone = [run_check("PSI-O2", {"g": 4}), run_check("T2-EQ-YY", {"gmax": 4})]
    assert [r.to_json() | {"runtime_ms": 0} for r in records] == [
        r.to_json() | {"runtime_ms": 0} for r in alone
    ]


def test_record_json_schema():
    record = run_check("T2-EQ-YY", {"gmax": 4})
    data = record.to_json()
    assert set(data) == {"id", "params", "status", "details", "runtime_ms", "anchor"}
    json.dumps(data)


def test_run_suite_sorted_and_markdown():
    records = run_suite(["THETA-BASIS", "PROP34-TC"], {"g": 4, "n": 1, "d": 2})
    assert [r.id for r in records] == ["PROP34-TC", "THETA-BASIS"]
    md = records_to_markdown(records)
    assert md.splitlines()[0].startswith("| check ")
    assert "PROP34-TC" in md


def test_mistyped_params_are_rejected():
    with pytest.raises(ValueError, match=r"parameter 'd' of THM31-CLOSURE must be int, got 'x'"):
        run_check("THM31-CLOSURE", {"g": 4, "d": "x"})
    with pytest.raises(ValueError, match=r"parameter 'g' of TOWER-2L must be int, got 4\.0"):
        run_check("TOWER-2L", {"g": 4.0})
    with pytest.raises(ValueError, match=r"parameter 'g' of PSI-O2 must be int, got True"):
        run_check("PSI-O2", {"g": True})


def test_run_suite_rejects_mistyped_params_before_any_check_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr("crosscap.ledger.run_check", refuse)
    with pytest.raises(ValueError, match=r"parameter 'gmax' of T2-EQ-YY must be int, got '4'"):
        run_suite(["PSI-O2", "T2-EQ-YY"], {"g": 4, "gmax": "4"})
    with pytest.raises(ParamRangeError, match=r"^T2-EQ-YY: parameter 'gmax' must be >= 3, got 2$"):
        run_suite(["PSI-O2", "T2-EQ-YY"], {"g": 4, "gmax": 2})


def test_tower_rejects_levels_below_two():
    for l in (0, 1, -3):
        message = rf"^TOWER-2L: parameter 'l' must be >= 2, got {l}$"
        with pytest.raises(ParamRangeError, match=message):
            run_check("TOWER-2L", {"l": l})


def test_level4_stream_checks_refuse_genus_below_four():
    for check_id in ("THM41-MEMBER", "THM41-MOD8"):
        message = rf"^{check_id}: parameter 'g' must be >= 4, got 3$"
        with pytest.raises(ParamRangeError, match=message):
            run_check(check_id, {"g": 3})


def test_mod8_comparison_is_bounded_by_the_stream_size():
    # the mod-8 comparison reads the family elements, not the stream
    record = run_check("THM41-MOD8", {"g": 5})
    assert record.status == "pass"
    # |A| + |B| + |C| + |D| = 10 + 10 + 30 + 4, closing to 2^(4^2 - 1)
    assert record.details == {
        "family_images": 54,
        "closure_order": 1 << 15,
        "reference_order": 1 << 15,
    }
    # 2^((g-1)^2) transversal words times the 54 family elements, every one
    # decided by its family element
    total = (1 << 16) * 54
    record = run_check("THM41-MEMBER", {"g": 5})
    assert record.status == "pass"
    assert record.details == {
        "stream_size": total,
        "checked": total,
        "failures": 0,
        "family_elements": 54,
        "failing_families": [],
    }


class ReadRecorder(dict):
    """A parameter dict that records every key a runner reads."""

    def __init__(self, params: dict):
        super().__init__(params)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_declared_parameter_is_read_at_the_defaults(check_id):
    spec = CHECKS[check_id]
    params = ReadRecorder(spec.defaults)
    spec.runner(params)
    unread = set(spec.defaults) - params.read
    assert not unread, f"{check_id} declares {sorted(unread)} but never reads them"
