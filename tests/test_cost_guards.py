"""Work that grows without bound is refused before it starts.

GEN-FIX-ONES (``gmax``), THM23-OBSTRUCT (``g``), THM23-KER (``g``),
THM51-COUNTS (``g``, ``n``, ``d``), the identity checks T2-EQ-YY,
LEM42-3CHAIN and LEM43-COMM (``gmax``), EX21-MATRICES (``dmax``, ``gmax``),
THM23-ELEM, PSI-O2, THM31-MEMBER, THM31-CLOSURE, RS-GAMMA24, THM41-MEMBER
and THM41-MOD8 (``g``) and TOWER-2L (``g``, ``l``) compute their work in
closed form before they build a word, and past a named limit of ``ledger``
end inconclusive (exit 3) at once, naming it.  The points at or below the
limits reach the work itself.  ``enum`` builds a family element only when
its stream reaches it, so ``--limit`` bounds the work and not only the
output; ``thm-main3`` builds each family element when the stream's first
pass reaches it."""

import itertools
import json
import time

import oracle_families
import pytest

from crosscap import families, ledger
from crosscap.cli import main
from crosscap.ledger import run_check
from crosscap.words import format_word


class Reached(Exception):
    """The check got past its guard to the work."""


def reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize(
    "suite, params, limit",
    [
        ("GEN-FIX-ONES", "gmax=1000000", "ALPHABET_WORD_LIMIT"),
        ("GEN-FIX-ONES", "gmax=19", "ALPHABET_WORD_LIMIT"),
        ("THM23-OBSTRUCT", "g=1000000", "OBSTRUCTION_ENTRY_LIMIT"),
        ("THM23-OBSTRUCT", "g=2050,d=3", "OBSTRUCTION_ENTRY_LIMIT"),
        ("THM51-COUNTS", "g=4,n=1,d=200", "BOUNDARY_WORD_LIMIT"),
        ("THM51-COUNTS", "g=1000000,n=1,d=2", "BOUNDARY_WORD_LIMIT"),
        ("THM51-COUNTS", "g=4,n=1000000,d=2", "BOUNDARY_WORD_LIMIT"),
        ("THM51-COUNTS", "g=4,n=1,d=1000000", "BOUNDARY_WORD_LIMIT"),
        ("THM51-COUNTS", "g=19,n=1,d=2", "BOUNDARY_WORD_LIMIT"),
        ("THM23-KER", "g=100000", "LEVEL_MATRIX_ENTRY_LIMIT"),
        ("THM23-KER", "g=2050", "LEVEL_MATRIX_ENTRY_LIMIT"),
        ("T2-EQ-YY", "gmax=1000000", "TWIST_SQUARE_LIMIT"),
        ("T2-EQ-YY", "gmax=93", "TWIST_SQUARE_LIMIT"),
        ("LEM42-3CHAIN", "gmax=1000000", "THREE_CHAIN_LIMIT"),
        ("LEM42-3CHAIN", "gmax=27", "THREE_CHAIN_LIMIT"),
        ("LEM43-COMM", "gmax=1000000", "SLIDE_COMMUTATOR_LIMIT"),
        ("LEM43-COMM", "gmax=20", "SLIDE_COMMUTATOR_LIMIT"),
        ("EX21-MATRICES", "dmax=1000000", "TWIST_POWER_LIMIT"),
        ("EX21-MATRICES", "dmax=43691", "TWIST_POWER_LIMIT"),
        ("EX21-MATRICES", "gmax=1000000", "GENERAL_ACTION_LIMIT"),
        ("EX21-MATRICES", "gmax=35", "GENERAL_ACTION_LIMIT"),
        ("THM23-ELEM", "g=1000000", "COMMUTATOR_POWER_LIMIT"),
        ("THM23-ELEM", "g=27", "COMMUTATOR_POWER_LIMIT"),
        ("THM23-ELEM", "g=6,d=2" + "0" * 3000, "COMMUTATOR_POWER_LIMIT"),
        ("PSI-O2", "g=5", "ORTHOGONAL_MATRIX_LIMIT"),
        ("PSI-O2", "g=1000000", "ORTHOGONAL_MATRIX_LIMIT"),
        ("THM31-MEMBER", "g=100000", "LEVEL_MATRIX_ENTRY_LIMIT"),
        ("THM31-MEMBER", "g=2049", "LEVEL_MATRIX_ENTRY_LIMIT"),
        ("THM31-CLOSURE", "g=1000000,d=2", "LAYER_CONJUGATE_LIMIT"),
        ("THM31-CLOSURE", "g=102,d=4", "LAYER_CONJUGATE_LIMIT"),
        ("THM31-CLOSURE", "g=8,d=3", "CLOSURE_CAP"),
        ("THM31-CLOSURE", "g=1000000,d=3", "CLOSURE_CAP"),
        ("RS-GAMMA24", "g=1000000", "GENERATOR_ACTION_LIMIT"),
        ("RS-GAMMA24", "g=35", "GENERATOR_ACTION_LIMIT"),
        ("THM41-MEMBER", "g=1000000", "FAMILY_ACTION_LIMIT"),
        ("THM41-MEMBER", "g=31", "FAMILY_ACTION_LIMIT"),
        ("THM41-MOD8", "g=1000000", "FAMILY_ACTION_LIMIT"),
        ("THM41-MOD8", "g=31", "FAMILY_ACTION_LIMIT"),
        ("TOWER-2L", "g=1000000", "LAYER_DIMENSION_LIMIT"),
        ("TOWER-2L", "g=183", "LAYER_DIMENSION_LIMIT"),
        ("TOWER-2L", "l=1000000000000", "TOWER_EXPONENT_LIMIT"),
        ("TOWER-2L", "l=1048577", "TOWER_EXPONENT_LIMIT"),
    ],
)
def test_a_point_past_its_limit_is_inconclusive_at_once(capsys, suite, params, limit):
    start = time.perf_counter()
    code = main(["verify", "--suite", suite, "--params", params, "--format", "json"])
    elapsed = time.perf_counter() - start
    (record,) = json.loads(capsys.readouterr().out)
    assert code == 3 and record["status"] == "inconclusive"
    assert f"{limit} = {getattr(ledger, limit)}" in record["details"]["reason"]
    assert elapsed < 0.1


@pytest.mark.parametrize(
    "check_id, params, module, name",
    [
        ("GEN-FIX-ONES", {"gmax": 18}, families, "generator_alphabet"),
        ("THM23-OBSTRUCT", {"g": 2000, "d": 3}, ledger, "elementary"),
        ("THM23-OBSTRUCT", {"g": 2049, "d": 3}, ledger, "elementary"),
        ("THM51-COUNTS", {"g": 18, "n": 1, "d": 2}, families.GenNSets, "f_set"),
        ("THM51-COUNTS", {"g": 4, "n": 1, "d": 50}, families.GenNSets, "f_set"),
        ("THM51-COUNTS", {"g": 4, "n": 1, "d": 63}, families.GenNSets, "f_set"),
        ("THM23-KER", {"g": 2048, "d": 3}, ledger, "level_member"),
        ("T2-EQ-YY", {"gmax": 92}, families, "twist_square_relations"),
        ("LEM42-3CHAIN", {"gmax": 26}, families, "three_chain_relations"),
        ("LEM43-COMM", {"gmax": 19}, families, "slide_commutator_relations"),
        ("EX21-MATRICES", {"dmax": 43690}, ledger, "reduced_action"),
        ("EX21-MATRICES", {"gmax": 34}, ledger, "reduced_action"),
        ("THM23-ELEM", {"g": 26, "d": 4}, ledger, "commutator"),
        ("PSI-O2", {"g": 4}, ledger, "bfs_closure"),
        ("THM31-MEMBER", {"g": 2048, "d": 2}, families, "main2_normal_generators"),
        ("THM31-CLOSURE", {"g": 101, "d": 2}, families, "main2_normal_generators"),
        ("THM31-CLOSURE", {"g": 7, "d": 3}, families, "main2_normal_generators"),
        ("RS-GAMMA24", {"g": 34}, ledger, "_y_union_d_words"),
        ("THM41-MEMBER", {"g": 30}, families, "main3_families"),
        ("THM41-MOD8", {"g": 30}, families, "main3_families"),
        ("TOWER-2L", {"g": 182, "l": 3}, ledger, "layer_span"),
        ("TOWER-2L", {"g": 4, "l": 1 << 20}, ledger, "layer_span"),
    ],
)
def test_a_point_within_its_limit_reaches_the_work(monkeypatch, check_id, params, module, name):
    monkeypatch.setattr(module, name, reached)
    with pytest.raises(Reached):
        run_check(check_id, params)


@pytest.mark.parametrize("gmax", range(2, 9))
def test_gen_fix_ones_acts_with_the_closed_form_count(gmax):
    record = run_check("GEN-FIX-ONES", {"gmax": gmax})
    assert record.status == "pass"
    assert record.details["generators_checked"] == (1 << gmax) + (gmax - 1) * gmax * (gmax + 1) // 3 + gmax - 3


@pytest.mark.parametrize("g, n, d", [(1, 1, 2), (3, 1, 3), (4, 3, 2), (5, 4, 3)])
def test_thm51_counts_lists_the_closed_form_count(monkeypatch, g, n, d):
    listed = [0]
    real_f, real_g = families.GenNSets.f_set, families.GenNSets.g_set

    def f_set(self, l):
        out = real_f(self, l)
        listed[0] += len(out)
        return out

    def g_set(self, l):
        for w in real_g(self, l):
            listed[0] += 1
            yield w

    monkeypatch.setattr(families.GenNSets, "f_set", f_set)
    monkeypatch.setattr(families.GenNSets, "g_set", g_set)
    assert run_check("THM51-COUNTS", {"g": g, "n": n, "d": d}).status == "pass"
    f_count = families.GenNSets(g, n, d).f_count(1)
    assert listed[0] == (n + 1) * f_count + n * (n - 1) + d ** (g - 1)


def test_enum_limit_bounds_the_work(capsys):
    start = time.perf_counter()
    code = main(["enum", "--set", "C", "--genus", "100", "--limit", "1"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 2 and lines[1] == "... truncated at 1"
    assert lines[0] == format_word(families.named_element("C", (1, 2, 3), 100).word)
    assert elapsed < 1.0


@pytest.mark.parametrize("g", [4, 5, 6])
@pytest.mark.parametrize("family", ["Y", "A", "B", "C", "D"])
def test_enum_streams_every_family_element_in_order(capsys, family, g):
    assert main(["enum", "--set", family, "--genus", str(g)]) == 0
    want = [format_word(el.word) for el in families.family_elements(family, g)]
    assert capsys.readouterr().out.splitlines() == want


def test_enum_thm_main3_streams_its_first_word_at_once(capsys):
    start = time.perf_counter()
    code = main(["enum", "--set", "thm-main3", "--genus", "40", "--limit", "1"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[1:] == ["... truncated at 1"]
    assert lines[0] == format_word(families.named_element("A", (1, 2), 40).word)
    assert elapsed < 0.5


# the whole stream at g = 4, 12,800 words; at g = 5 and 6 it has 2^16 and
# 2^25 cosets, so only its prefixes are read there
@pytest.mark.parametrize(
    "g, limit", [(4, None)] + [(g, limit) for g in (4, 5, 6) for limit in (1, 40, 500)]
)
def test_enum_thm_main3_is_the_eager_stream(capsys, g, limit):
    argv = ["enum", "--set", "thm-main3", "--genus", str(g)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    want = [format_word(w) for w in itertools.islice(oracle_families.main3_generators(g), limit)]
    if limit is not None:
        assert lines.pop() == f"... truncated at {limit}"
    assert lines == want
