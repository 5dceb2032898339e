import pytest

from conftest import random_word
from crosscap.homology import (
    H1Class,
    NoHomologyActionError,
    act,
    collapse_total_class,
    format_h1,
    level_member,
    lift_obstruction,
    mod2_action,
    mod2_pairing,
    parse_h1,
    reduced_action,
    word_matrix,
)
from crosscap.intmat import IntMatrix, congruence_member, elementary
from crosscap.words import BoundaryTwist, MCGWord, Slide, TorelliTag, Twist, parse, word
from oracle_homology import lift_search


def test_normalize_examples():
    zero = H1Class(4, (0, 0, 0, 0))
    assert zero.normalize().coeffs == (0, 0, 0, 0)
    assert H1Class(4, (1, 1, 1, 3)).normalize().coeffs == (-1, -1, -1, 1)
    assert H1Class(4, (2, 2, 2, 2)).normalize().coeffs == (0, 0, 0, 0)
    x = H1Class(4, (5, 0, 2, -3))
    assert x.normalize().normalize().coeffs == x.normalize().coeffs


def test_equality_is_even_shift():
    assert H1Class(4, (1, 1, 1, 1)) == H1Class(4, (3, 3, 3, 3))
    assert H1Class(4, (1, 1, 1, 1)) != H1Class(4, (2, 2, 2, 2))
    assert hash(H1Class(4, (1, 1, 1, 1))) == hash(H1Class(4, (-1, -1, -1, -1)))


def basis_class(genus: int, i: int) -> H1Class:
    return H1Class(genus, tuple(1 if j == i - 1 else 0 for j in range(genus)))


def test_mod2_pairing_examples():
    for g in (3, 4, 5):
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                expected = 1 if i == j else 0
                assert mod2_pairing(basis_class(g, i), basis_class(g, j)) == expected
    x = H1Class(4, (1, 0, 3, 2))
    shifted = H1Class(4, tuple(c + 2 for c in x.coeffs))
    assert mod2_pairing(x, x) == mod2_pairing(x, shifted) == mod2_pairing(shifted, shifted)


def test_h1_text_roundtrip():
    x = parse_h1("2a1 - a3 + a4", 4)
    assert x.coeffs == (2, 0, -1, 1)
    assert parse_h1(format_h1(x), 4) == x
    assert format_h1(H1Class(3, (0, 0, 0))) == "0"
    assert parse_h1("0", 3) == H1Class(3, (0, 0, 0))
    with pytest.raises(ValueError):
        parse_h1("a9", 4)


def test_generator_matrix_paper_values():
    # genus 3 reduced actions, fixed d = 2
    assert reduced_action(word(3, (Twist((1, 3)), 2))).rows == ((1, 0), (2, 1))
    assert reduced_action(word(3, Slide(1, 2))).rows == ((-1, 2), (0, 1))
    assert reduced_action(word(3, Slide(3, 1))).rows == ((-1, 0), (-2, 1))
    # Torelli tags act trivially
    assert word_matrix(word(4, TorelliTag("beta", (1, 2)))).is_identity()
    assert word_matrix(word(4, TorelliTag("gamma"))).is_identity()


def test_boundary_letters_have_no_action():
    with pytest.raises(NoHomologyActionError):
        word_matrix(word(4, BoundaryTwist("delta", (1,))))


def test_word_matrix_examples():
    assert word_matrix(MCGWord.identity(4)).is_identity()
    w = parse("T(1,2) Y(1,3)^2 Y(2,1)", 4)
    assert word_matrix(w * w.inverse()).is_identity()
    lhs = word_matrix(parse("Y(2,1)^-1 Y(1,2)", 3))
    assert lhs.rows == word_matrix(word(3, (Twist((1, 2)), 2))).rows
    assert collapse_total_class(lhs).rows == ((-1, 2), (-2, 3))


def test_full_twist_trivial_reduced_action_even_genus():
    for g in (4, 6):
        for d in (1, 2, 3):
            w = word(g, (Twist(tuple(range(1, g + 1))), d))
            assert reduced_action(w).is_identity()


def test_act_matches_slide_formula():
    w = word(4, Slide(1, 2))
    assert act(w, basis_class(4, 1)) == H1Class(4, (-1, 0, 0, 0))
    assert act(w, basis_class(4, 2)) == H1Class(4, (2, 1, 0, 0))
    assert act(w, basis_class(4, 3)) == basis_class(4, 3)


def test_level_member_examples():
    for d in range(2, 7):
        assert level_member(word(4, (Twist((1, 2)), d)), d)
        assert not level_member(word(4, Twist((1, 2))), d)
    for g, d in ((4, 3), (6, 5)):
        assert level_member(word(g, (Twist(tuple(range(1, g + 1))), d)), d)
    with pytest.raises(ValueError):
        level_member(word(4, Twist((1, 2))), 1)


def test_psi_examples():
    assert mod2_action(MCGWord.identity(4)).is_identity()
    assert mod2_action(word(4, Slide(1, 2))).is_identity()
    assert mod2_action(word(4, (Twist((1, 2)), 2))).is_identity()
    m = mod2_action(word(4, Twist((1, 2))))
    assert (m.transpose() * m).is_identity()


def test_lift_obstruction_identity_target():
    result = lift_obstruction(IntMatrix.identity(3), 4)
    assert not result.obstructed
    assert result.witness is not None and result.witness.is_identity()


# g = 200 would never finish as a search of the 2^g lifts
@pytest.mark.parametrize("g", (4, 5, 200))
@pytest.mark.parametrize("d,expect", ((3, True), (5, True), (2, False), (4, False)))
def test_lift_obstruction_elementary_targets(g, d, expect):
    target = elementary(g - 1, 1, 2, d)
    result = lift_obstruction(target, g)
    assert result.obstructed is expect
    assert result.candidates_checked <= 2**g
    if not expect:
        assert collapse_total_class(result.witness).rows == target.rows


@pytest.mark.parametrize("d", [1, 3, 5, 7, 99])
def test_odd_elementary_powers_lift_at_genus_3(d):
    # why THM23-OBSTRUCT starts at g = 4, the paper's range: at g = 3 the
    # exhaustive search finds a pairing-preserving lift of an odd power
    target = elementary(2, 1, 2, d)
    result = lift_search(target, 3)
    assert not result.obstructed
    assert collapse_total_class(result.witness).rows == target.rows
    assert lift_obstruction(target, 3) == result


def lift_targets(g: int, rng) -> list[IntMatrix]:
    """E_ij^d for d = 1..8, random integer targets and random products of
    six elementary matrices.  The search costs 2^g per obstructed target,
    so past genus 7 the pairs (i, j) and the random targets are sampled."""
    n = g - 1
    if g <= 7:
        pairs, count = [(i, j) for i in range(1, g) for j in range(1, g) if i != j], 40
    else:
        pairs, count = [(1, 2), (2, 1), (1, n), (n, 1)], 4
    targets = [elementary(n, i, j, d) for i, j in pairs for d in range(1, 9)]
    for _ in range(count):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        targets.append(IntMatrix.from_rows(rows))
        m = IntMatrix.identity(n)
        for _ in range(6):
            i, j = rng.sample(range(1, g), 2)
            m = m * elementary(n, i, j, rng.randint(-5, 5))
        targets.append(m)
    return targets


@pytest.mark.parametrize("g", range(3, 13))
def test_lift_obstruction_matches_the_exhaustive_search(g, rng):
    outcomes = set()
    for target in lift_targets(g, rng):
        result = lift_obstruction(target, g)
        assert result == lift_search(target, g)
        outcomes.add(result.obstructed)
    assert outcomes == {True, False}


def test_every_generator_fixes_total_class():
    for g in range(2, 9):
        ones = (1,) * g
        symbols = [Twist(c) for c in _even_subsets(g)]
        symbols += [Slide(a, b) for a in range(1, g + 1) for b in range(1, g + 1) if a != b]
        for sym in symbols:
            m = word_matrix(word(g, sym))
            assert tuple(sum(row) for row in m.rows) == ones


def _even_subsets(g):
    import itertools

    out = []
    for size in range(2, g + 1, 2):
        out.extend(itertools.combinations(range(1, g + 1), size))
    return out


def test_reduced_action_determinants():
    for g in range(3, 9):
        for c in _even_subsets(g):
            assert reduced_action(word(g, Twist(c))).det() == 1
        for a in range(1, g + 1):
            for b in range(1, g + 1):
                if a != b:
                    assert reduced_action(word(g, Slide(a, b))).det() == -1


def test_reduced_action_is_multiplicative(rng):
    for _ in range(150):
        g = rng.randint(3, 6)
        u = random_word(rng, g, rng.randint(0, 5))
        v = random_word(rng, g, rng.randint(0, 5))
        assert reduced_action(u * v).rows == (reduced_action(u) * reduced_action(v)).rows


def test_mod2_action_is_orthogonal(rng):
    for _ in range(200):
        g = rng.randint(3, 6)
        m = mod2_action(random_word(rng, g, rng.randint(0, 6)))
        assert (m.transpose() * m).is_identity()


def test_pairing_invariance(rng):
    for _ in range(200):
        g = rng.randint(3, 6)
        w = random_word(rng, g, rng.randint(0, 6))
        x = H1Class(g, [rng.randint(-3, 3) for _ in range(g)])
        y = H1Class(g, [rng.randint(-3, 3) for _ in range(g)])
        assert mod2_pairing(act(w, x), act(w, y)) == mod2_pairing(x, y)


def test_level2_membership_matches_congruence_with_trivial_lift(rng):
    # level-2 membership equals: mod-2 action is exactly the identity; and it
    # implies the reduced action lies in the level-2 congruence group
    for _ in range(300):
        g = rng.randint(3, 6)
        slides_only = rng.random() < 0.5
        w = random_word(rng, g, rng.randint(0, 6), slides_only=slides_only)
        member = level_member(w, 2)
        assert member == mod2_action(w).is_identity()
        if slides_only:
            assert member
        if member:
            assert congruence_member(reduced_action(w), 2, "gamma_hat")
