import itertools
import math
import random

import pytest

from crosscap.ledger import run_check
from crosscap.pi1free import (
    FreeWord,
    NotTwoSidedError,
    ScaleGuardError,
    StallingsGraph,
    coset_count_ker_theta,
    format_free,
    gtilde,
    is_two_sided,
    ker_theta_normal_relators,
    parse_free,
    plus_basis_alphabet,
    push_coefficients,
    push_coefficients_int,
    relators_for_enumeration,
    rewrite_two_sided,
    validate_ambient,
    verify_ker_theta,
    x_,
    x_run,
    y_,
)
from oracle_pi1free import (
    basis_push_coefficients,
    claimed_ker_theta_generators,
    derive_theta_basis,
    expand_basis,
    schreier_ker_theta_generators,
)


def random_two_sided(rng, g, n, length):
    w = FreeWord.identity()
    for _ in range(length):
        if n > 1 and rng.random() < 0.25:
            w = w * y_(rng.randrange(1, n), rng.choice((-1, 1)))
        else:
            w = w * x_(rng.randrange(1, g + 1), rng.choice((-1, 1)))
    if not is_two_sided(w):
        w = w * x_(g, rng.choice((-1, 1)))
    return w


def test_parse_format_roundtrip():
    w = parse_free("x1 x2^-1 y1")
    assert format_free(w) == "x1 x2^-1 y1"
    assert parse_free(format_free(w)) == w
    assert parse_free("").is_identity()
    with pytest.raises(ValueError):
        parse_free("x1 q2")


def test_power_of_one_letter_scales_the_exponent(monkeypatch):
    monkeypatch.setattr(FreeWord, "__mul__", None)
    assert x_(1) ** 10**12 == x_(1, 10**12)
    assert x_(1, -3) ** -(10**12) == x_(1, 3 * 10**12)


def test_power_squares_repeatedly(monkeypatch):
    explicit = FreeWord.from_letters([(("x", 1), 1), (("x", 2), 1)] * 1000)
    w = x_(1) * x_(2)
    products = []
    mul = FreeWord.__mul__
    monkeypatch.setattr(FreeWord, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert w**1000 == explicit
    assert w**-1000 == explicit.inverse()
    # 1000 has 10 bits, 6 of them set: 9 squarings and 5 products per power
    assert len(products) == 2 * (9 + 5)
    assert (x_(1) * y_(1) * x_(1, -1)) ** 5 == x_(1) * y_(1, 5) * x_(1, -1)


def test_two_sided_examples():
    assert is_two_sided(x_(1) * x_(4))
    assert not is_two_sided(x_(1))
    assert is_two_sided(y_(1))


def test_validate_ambient():
    validate_ambient(parse_free("x1 y1"), 4, 2)
    with pytest.raises(ValueError):
        validate_ambient(parse_free("x5"), 4, 2)
    with pytest.raises(ValueError):
        validate_ambient(parse_free("y1"), 4, 1)
    with pytest.raises(ValueError):
        validate_ambient(parse_free("u1"), 4, 2)


def test_rewrite_examples():
    g = 4
    assert rewrite_two_sided(x_(2) * x_(2), g).letters == ((("u", 2), 1), (("v", 2), 1))
    z = x_(g) * y_(1) * x_(g, -1)
    assert rewrite_two_sided(z, g).letters == ((("z", 1), 1),)
    assert rewrite_two_sided(FreeWord.identity(), g).is_identity()
    with pytest.raises(NotTwoSidedError):
        rewrite_two_sided(x_(1), g)


def test_rewrite_is_a_free_identity(rng):
    for _ in range(300):
        g = rng.randint(2, 6)
        n = rng.randint(1, 3)
        w = random_two_sided(rng, g, n, rng.randint(0, 8))
        assert expand_basis(rewrite_two_sided(w, g), g) == w


def test_theta_basis_is_forced():
    values = derive_theta_basis(4)
    assert values[("u", 1)] == (-1, 0, 0, 1)
    assert values[("v", 1)] == (1, 0, 0, -1)
    assert values[("v", 4)] == (0, 0, 0, 0)


@pytest.mark.parametrize("g", range(2, 11))
def test_closed_form_theta_equals_the_derived_basis(g):
    rng = random.Random(g)
    for n in (1, 2, 3):
        for _ in range(40):
            w = random_two_sided(rng, g, n, rng.randint(0, 12))
            assert push_coefficients_int(w, g) == basis_push_coefficients(w, g)


@pytest.mark.parametrize("g", range(2, 13))
def test_theta_basis_counts_the_derived_basis_letters(g):
    record = run_check("THETA-BASIS", {"g": g})
    assert record.status == "pass"
    assert record.details["basis_letters"] == len(derive_theta_basis(g))


def test_theta_examples():
    assert push_coefficients(x_(1) * x_(4), 4, 3) == (2, 0, 0, 1)
    for j in range(1, 5):
        assert push_coefficients_int(x_run(j, j), 4) == (0, 0, 0, 0)
    assert push_coefficients_int((x_(1) * x_(2) * x_(4)) ** 2, 4) == (0, 0, 0, 0)
    with pytest.raises(NotTwoSidedError):
        push_coefficients(x_(1), 4, 2)


def test_theta_additive_and_conjugation_invariant(rng):
    for _ in range(200):
        g = rng.randint(2, 6)
        u = random_two_sided(rng, g, 2, rng.randint(0, 6))
        v = random_two_sided(rng, g, 2, rng.randint(0, 6))
        tu = push_coefficients_int(u, g)
        tv = push_coefficients_int(v, g)
        assert push_coefficients_int(u * v, g) == tuple(a + b for a, b in zip(tu, tv))
        assert push_coefficients_int(v * u * v.inverse(), g) == tu
        assert sum(push_coefficients(u, g, 4)) % 4 == 0


def test_fold_parity_kernel():
    graph = StallingsGraph.fold(
        [parse_free("x1^2"), parse_free("y1"), parse_free("x1 y1 x1^-1")],
        [("x", 1), ("y", 1)],
    )
    assert graph.index() == 2
    assert graph.contains(parse_free("x1^2"))
    assert not graph.contains(parse_free("x1"))
    assert graph.contains(parse_free("x1 y1^3 x1^-1"))


def test_fold_contains_examples():
    graph = StallingsGraph.fold([parse_free("x1")], [("x", 1), ("y", 1)])
    assert graph.contains(parse_free("x1^3"))
    assert not graph.contains(parse_free("y1"))
    assert graph.index() is None


def test_contains_is_false_for_a_letter_outside_the_alphabet():
    graph = StallingsGraph.fold([parse_free("x1^2")], [("x", 1)])
    assert graph.contains(parse_free("x1^-2"))
    for text in ("x2", "x1^2 y1", "y1 x1^2 y1^-1", "u1"):
        assert not graph.contains(parse_free(text))


def test_fold_rejects_foreign_letters():
    with pytest.raises(ValueError):
        StallingsGraph.fold([parse_free("x2")], [("x", 1)])


def test_contains_agrees_with_brute_force(rng):
    alphabet = [("x", 1), ("x", 2), ("x", 3)]
    letters = [x_(1), x_(2), x_(3)]
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = FreeWord.identity()
            for _ in range(rng.randint(1, 4)):
                w = w * rng.choice(letters) ** rng.choice((-1, 1))
            if not w.is_identity():
                gens.append(w)
        if not gens:
            continue
        graph = StallingsGraph.fold(gens, alphabet)
        closed = gens + [w.inverse() for w in gens]
        for count in range(1, 4):
            for combo in itertools.product(closed, repeat=count):
                product = FreeWord.identity()
                for w in combo:
                    product = product * w
                assert graph.contains(product)


def test_subgroup_equality():
    alphabet = [("x", 1), ("x", 2)]
    g1 = StallingsGraph.fold([x_(1) ** 2, x_(2)], alphabet)
    g2 = StallingsGraph.fold([x_(2), x_(1) ** 2, x_(1) ** 4], alphabet)
    g3 = StallingsGraph.fold([x_(1), x_(2)], alphabet)
    assert g1 == g2
    assert g1 != g3


def test_fold_index_matches_quotient_order(rng):
    # subgroups defined by abelian quotients: kernel of F(x1,x2) -> Z/k x Z/m
    for k, m in ((2, 2), (2, 3), (3, 3)):
        def quotient(w):
            a = sum(e for (kind, i), e in w.letters if kind == "x" and i == 1)
            b = sum(e for (kind, i), e in w.letters if kind == "x" and i == 2)
            return (a % k, b % m)

        table = {}
        for a in range(k):
            for b in range(m):
                table[(a, b)] = x_(1) ** a * x_(2) ** b
        from crosscap.finitegrp import schreier_generators

        gens = list(
            schreier_generators(quotient, lambda key: table[key], [x_(1), x_(2)], FreeWord.identity())
        )
        graph = StallingsGraph.fold(gens, [("x", 1), ("x", 2)])
        assert graph.index() == k * m


def test_gtilde_and_claimed_counts():
    assert len(gtilde(4, 2)) == 8
    claimed = claimed_ker_theta_generators(4, 1, 2)
    assert len(claimed) == 80
    assert all(is_two_sided(w) for w in claimed)
    zero = (0, 0, 0, 0)
    assert all(push_coefficients(w, 4, 2) == zero for w in claimed)


def test_schreier_ker_theta_outputs_in_kernel():
    outputs = schreier_ker_theta_generators(4, 1, 2)
    zero = (0, 0, 0, 0)
    assert all(push_coefficients(w, 4, 2) == zero for w in outputs)


def test_prop_relators():
    rels = ker_theta_normal_relators(4, 1, 3)
    assert x_run(1, 4) ** 3 in rels
    assert not any(kind in ("y", "z") for w in rels for (kind, _), _ in w.letters)
    rels2 = ker_theta_normal_relators(4, 2, 2)
    assert y_(1) in rels2
    zero = (0, 0, 0, 0)
    assert all(push_coefficients(w, 4, 3) == zero for w in rels)


def test_relators_for_enumeration_shape():
    rank, rels = relators_for_enumeration(4, 1, 2)
    assert rank == len(plus_basis_alphabet(4, 1)) == 7
    assert all(all(l != 0 and abs(l) <= rank for l in rel) for rel in rels)


def test_coset_count_matches_index():
    assert coset_count_ker_theta(4, 1, 2).coset_count == 8
    assert coset_count_ker_theta(4, 1, 3).coset_count == 27


def test_verify_ker_theta_full():
    report = verify_ker_theta(4, 1, 2)
    assert report["ok"]
    assert report["claimed_index"] == report["schreier_index"] == 8
    assert report["coset_count"] == 8
    assert report["subgroups_equal"]


@pytest.mark.parametrize("g,n,d,index,count", [(4, 1, 8, 512, 5120), (5, 2, 4, 256, 4352)])
def test_verify_ker_theta_at_larger_points(g, n, d, index, count):
    report = verify_ker_theta(g, n, d)
    assert report["ok"], report
    assert index == d ** (g - 1)
    assert report["claimed_index"] == report["schreier_index"] == report["coset_count"] == index
    # one conjugate per transversal word of each core: x_{i,g}^d, x_{j,j}, y_k,
    # z_k and x_{i1,i2,g}^2
    assert count == index * ((g - 1) + g + 2 * (n - 1) + math.comb(g - 1, 2))
    assert report["claimed_count"] == count
    assert report["subgroups_equal"] and report["claimed_all_in_kernel"]


def test_scale_guard():
    with pytest.raises(ScaleGuardError):
        claimed_ker_theta_generators(8, 1, 7)


@pytest.mark.parametrize(
    "build", [claimed_ker_theta_generators, schreier_ker_theta_generators, verify_ker_theta]
)
def test_scale_guard_names_the_index_and_the_cap(build):
    # index 7^6 and 2(g-1) + 1 + 5 C(g-1, 2) + 2d(g-1) = 172 relator letters
    message = (
        r"^kernel work d\^\(g-1\) x relator letters = 117649 x 172 = 20235628"
        r" exceeds budget 4194304$"
    )
    with pytest.raises(ScaleGuardError, match=message):
        build(7, 1, 7)
    build(4, 1, 2)  # work 8 x 34 is inside the budget


def test_boundary_count_is_checked_before_the_scale_guard():
    for build in (claimed_ker_theta_generators, schreier_ker_theta_generators, verify_ker_theta):
        with pytest.raises(ValueError, match="needs n >= 1"):
            build(8, 0, 7)


def test_claimed_generators_conjugate_the_normal_relators():
    g, n, d = 4, 2, 3
    relators = ker_theta_normal_relators(g, n, d)
    expected = [w * r * w.inverse() for w in gtilde(g, d) for r in relators]
    assert claimed_ker_theta_generators(g, n, d) == expected
