"""The hot checks build and evaluate each word once: LEM43-COMM looks every
A, B and C element up in one table per genus and hands each row, its
commutator's inverse times its factors, to ``acts_trivially`` as one
factor list; RS-GAMMA24 evaluates each Y and D word once, k + |D| actions
in all, and reads its closure, section and the verdicts on its sampled
Schreier words from their layer vectors mod 4, with no ``reduced_action``
or ``product_matrix`` call.  None of them forms a word product or inverse
per row or sample.  LEM42-3CHAIN hands its chain power, slide form and
paired form to ``acts_trivially`` as factors, so its only word products
are those of its D elements, and a C element's slide form is one
4-letter word: at the defaults ``MCGWord.__mul__`` is called 0 times in
LEM43-COMM, 165 in LEM42-3CHAIN and 236 in the whole suite, counted from
an empty D sign cache.  The identity checks (LEM43-COMM, T2-EQ-YY,
LEM42-3CHAIN) and a C build decide each relation through
``families.failing`` with one ``acts_trivially`` call on one packed class,
and GEN-FIX-ONES applies each generator to the total
class with ``act``: none of them builds a matrix.  A C element decides
its two realizations equal on homology on every build, so how many words
a check evaluates does not depend on what ran before it.  No modular
check makes a reduced copy of an exact action: the closures and layers
read the exact matrices themselves."""

from collections import Counter

import pytest

from crosscap import families, homology, ledger, words
from crosscap.intmat import IntMatrix, ModMatrix
from crosscap.ledger import run_check


def test_lem43_comm_builds_each_element_once_per_genus(monkeypatch):
    built = Counter()
    real = families.named_element

    def spy(family, indices, g):
        built[family, tuple(indices), g] += 1
        return real(family, indices, g)

    monkeypatch.setattr(families, "named_element", spy)
    record = run_check("LEM43-COMM", {"gmax": 6})
    assert record.status == "pass"
    assert record.details["pairs"] == 36 + 120 + 300
    assert max(built.values()) == 1
    assert {family for family, _, _ in built} == {"A", "B", "C"}
    assert {g for _, _, g in built} == {4, 5, 6}
    assert sum(built.values()) == 133


def spy(seen, binding, real):
    def evaluate(*args):
        seen[binding] += 1
        return real(*args)

    return evaluate


def _spy_on_matrices(monkeypatch, seen):
    """Count every ``word_matrix`` and ``product_matrix`` call made through
    ledger's or homology's binding (ledger imports no ``product_matrix``)."""
    for module in (ledger, homology):
        for name in ("word_matrix", "product_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(seen, "matrix", getattr(module, name)))


def test_rs_gamma24_evaluates_each_sampled_word_once(monkeypatch):
    g = 4
    run_check("RS-GAMMA24", {"g": g})  # fills the per-genus D sign cache
    seen = Counter()
    # no sampled word is evaluated, and no generator twice: each Y and D
    # word is evaluated once by ledger's word_matrix, and its closure
    # image, coordinates and verdict are read off that one action mod 4
    monkeypatch.setattr(ledger, "word_matrix", spy(seen, "ledger", homology.word_matrix))
    monkeypatch.setattr(homology, "word_matrix", spy(seen, "homology", homology.word_matrix))
    for module in (ledger, homology):
        monkeypatch.setattr(module, "reduced_action", spy(seen, "reduced", module.reduced_action))
    record = run_check("RS-GAMMA24", {"g": g})
    assert record.status == "pass"
    assert record.details["rs_outputs_sampled"] == 200
    # one action per Y and D word: the k = (g - 1)^2 single slides and the
    # D elements, 10 at g = 4
    words = families.y_count(g) + len(families.family_indices("D", g))
    assert words == len(ledger._y_union_d_words(g)) == 10
    assert seen == Counter({"ledger": words})


def test_modular_checks_make_no_reduced_copy(monkeypatch):
    points = [
        ("THM31-CLOSURE", {"g": 4, "d": 2}),
        ("THM31-CLOSURE", {"g": 4, "d": 4}),
        ("THM31-CLOSURE", {"g": 5, "d": 3}),
        ("TOWER-2L", {"g": 4, "l": 3}),
        ("THM41-MOD8", {"g": 4}),
        ("RS-GAMMA24", {"g": 4}),
        ("PSI-O2", {"g": 4}),
    ]
    seen = Counter()
    monkeypatch.setattr(IntMatrix, "reduce_mod", spy(seen, "reduce_mod", IntMatrix.reduce_mod))
    from_rows = spy(seen, "from_rows", ModMatrix.from_rows)
    monkeypatch.setattr(ModMatrix, "from_rows", staticmethod(from_rows))
    for check_id, params in points:
        assert run_check(check_id, params).status == "pass", check_id
    assert seen == Counter()


def test_a_c_element_evaluates_its_two_realizations_on_every_build(monkeypatch):
    seen = Counter()
    decide = spy(seen, "acts_trivially", homology.acts_trivially)
    monkeypatch.setattr(homology, "acts_trivially", decide)
    counts = []
    for _ in range(2):
        families.named_element("C", (1, 3, 2), 5)
        counts.append(seen["acts_trivially"])
        seen.clear()
    # the slide form times the inverse of the twist form, decided trivial
    # on homology each time
    assert counts == [1, 1]


def test_the_suite_forms_its_counted_word_products(monkeypatch):
    monkeypatch.setattr(families, "_D_SIGN_CACHE", {})
    products = Counter()
    current = [None]
    real = words.MCGWord.__mul__

    def mul(self, other):
        products[current[0]] += 1
        return real(self, other)

    monkeypatch.setattr(words.MCGWord, "__mul__", mul)
    for check_id in sorted(ledger.CHECKS):
        current[0] = check_id
        assert run_check(check_id).status == "pass", check_id
    assert products["LEM43-COMM"] == 0
    # 15 D elements, each 7 products to choose its sign (its conjugator,
    # then 3 per candidate) and 4 to build it
    assert products["LEM42-3CHAIN"] == 15 * (7 + 4) == 165
    assert sum(products.values()) == 236


@pytest.mark.parametrize(
    "check_id, params, decisions",
    [
        # one decision per row
        ("LEM43-COMM", {"gmax": 6}, 36 + 120 + 300),
        # one per pair
        ("T2-EQ-YY", {"gmax": 6}, 3 + 6 + 10 + 15),
        # two per tuple: the paired form and the slide form
        ("LEM42-3CHAIN", {"gmax": 6}, 2 * (1 + 4 + 10)),
    ],
)
def test_identity_checks_build_no_matrix(monkeypatch, check_id, params, decisions):
    run_check(check_id, params)  # fills the per-genus D sign cache
    seen = Counter()
    _spy_on_matrices(monkeypatch, seen)
    monkeypatch.setattr(homology, "acts_trivially", spy(seen, "decided", homology.acts_trivially))
    real_named = families.named_element

    def named(family, indices, g):
        seen["C builds"] += family == "C"
        return real_named(family, indices, g)

    monkeypatch.setattr(families, "named_element", named)
    record = run_check(check_id, params)
    assert record.status == "pass"
    assert seen["matrix"] == 0
    # and one more for each C element built, which decides its own relation
    assert seen["decided"] == decisions + seen["C builds"]
    assert seen["C builds"] == (83 if check_id == "LEM43-COMM" else 0)


def test_a_c_build_builds_no_matrix(monkeypatch):
    seen = Counter()
    _spy_on_matrices(monkeypatch, seen)
    for g in (4, 5, 6):
        for idx in families.family_indices("C", g):
            families.named_element("C", idx, g)
    assert seen["matrix"] == 0


def test_gen_fix_ones_builds_no_matrix(monkeypatch):
    seen = Counter()
    _spy_on_matrices(monkeypatch, seen)
    monkeypatch.setattr(ledger, "act", spy(seen, "act", homology.act))
    record = run_check("GEN-FIX-ONES", {"gmax": 8})
    assert record.status == "pass"
    assert seen["matrix"] == 0
    assert seen["act"] == record.details["generators_checked"] > 0


@pytest.mark.parametrize(
    "check_id, params, inverses",
    [
        ("LEM43-COMM", {"gmax": 6}, 0),
        # x and x^-1 share one mask, so no inverse word is built
        ("RS-GAMMA24", {"g": 4}, 0),
        ("RS-GAMMA24", {"g": 6}, 0),
    ],
)
def test_hot_checks_form_no_words_per_row(monkeypatch, check_id, params, inverses):
    formed = Counter()
    depth = [0]
    real_named = families.named_element

    def named(*args):
        depth[0] += 1
        try:
            return real_named(*args)
        finally:
            depth[0] -= 1

    def spy(kind, real):
        def method(self, *args):
            if not depth[0]:
                formed[kind] += 1
            return real(self, *args)

        return method

    # the A, B, C and D elements build and check their words inside
    # named_element; everything else counts
    monkeypatch.setattr(families, "named_element", named)
    monkeypatch.setattr(words.MCGWord, "__mul__", spy("product", words.MCGWord.__mul__))
    monkeypatch.setattr(words.ReducedWord, "inverse", spy("inverse", words.ReducedWord.inverse))
    record = run_check(check_id, params)
    assert record.status == "pass"
    assert formed["product"] == 0
    assert formed["inverse"] == inverses
