"""The freely-reduced-word core shared by MCGWord and FreeWord.

Each case builds random words over a small alphabet, so that products
cancel often, and checks the group laws of the shared operations.  The
length oracle reduces the expanded sequence of +-1 steps with a plain
stack, independently of the core's own reduction.
"""

import random
from functools import reduce

import pytest

from crosscap.pi1free import FreeWord
from crosscap.words import MCGWord, ReducedWord, Slide, Twist

ALPHABETS = {
    "MCGWord": (
        [Slide(1, 2), Slide(2, 1), Slide(1, 3), Twist((1, 2)), Twist((2, 3))],
        lambda letters: MCGWord.from_letters(3, letters),
    ),
    "FreeWord": (
        [("x", 1), ("x", 2), ("y", 1)],
        FreeWord.from_letters,
    ),
}


def random_letters(rng, atoms, length):
    return [(rng.choice(atoms), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(length)]


def reduced_step_count(letters):
    stack = []
    for atom, exp in letters:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if stack and stack[-1] == (atom, -step):
                stack.pop()
            else:
                stack.append((atom, step))
    return len(stack)


@pytest.fixture(params=sorted(ALPHABETS))
def words(request):
    atoms, make = ALPHABETS[request.param]
    rng = random.Random(4)

    def draw():
        letters = random_letters(rng, atoms, rng.randint(0, 6))
        return letters, make(letters)

    return make, draw


def test_both_word_kinds_share_one_core():
    for cls in (MCGWord, FreeWord):
        assert issubclass(cls, ReducedWord)
        for name in ("inverse", "__pow__", "is_identity", "length", "_times"):
            assert name not in cls.__dict__, (cls.__name__, name)


def test_inverse_cancels_and_reverses_products(words):
    make, draw = words
    one = make([])
    for _ in range(200):
        _, u = draw()
        _, v = draw()
        assert (u * u.inverse()).is_identity()
        assert u.inverse() * u == one
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert u.inverse().inverse() == u


def test_product_is_associative(words):
    _, draw = words
    for _ in range(200):
        (_, u), (_, v), (_, w) = draw(), draw(), draw()
        assert (u * v) * w == u * (v * w)


def test_power_is_the_explicit_product(words):
    make, draw = words
    one = make([])
    for _ in range(40):
        _, w = draw()
        for e in range(-7, 8):
            factor = w if e >= 0 else w.inverse()
            assert w**e == reduce(lambda a, b: a * b, [factor] * abs(e), one), e


def test_length_counts_the_reduced_steps(words):
    make, draw = words
    for _ in range(200):
        letters, w = draw()
        assert w.length() == reduced_step_count(letters)
        (_, u) = draw()
        assert (w * u).length() == reduced_step_count(list(w.letters) + list(u.letters))
        assert w.inverse().length() == w.length()
    assert make([]).length() == 0 and make([]).is_identity()


def reduced_letters(rng, atoms, length):
    """Random letters that are already freely reduced: no two neighbours
    share an atom."""
    letters = []
    while len(letters) < length:
        atom, exp = rng.choice(atoms), rng.choice((-3, -2, -1, 1, 2, 3))
        if not letters or letters[-1][0] != atom:
            letters.append((atom, exp))
    return letters


def inverse_letters(letters):
    return [(atom, -exp) for atom, exp in reversed(letters)]


@pytest.mark.parametrize("kind", sorted(ALPHABETS))
def test_seam_product_matches_the_full_reduction(kind):
    # the product reduces only at the seam; the full reduction of the
    # concatenated letters is the reference
    atoms, make = ALPHABETS[kind]
    rng = random.Random(13)
    one = make([])
    merges = 0

    def full(u, v):
        return make(list(u.letters) + list(v.letters))

    for _ in range(300):
        u = make(random_letters(rng, atoms, rng.randint(0, 8)))
        v = make(random_letters(rng, atoms, rng.randint(0, 8)))
        assert u * v == full(u, v)

        # one empty side
        assert u * one == full(u, one) == u
        assert one * u == full(one, u) == u

        # a seam that cancels fully, alone and with v after it (where v's
        # first letter may also merge into u's first)
        assert (u * u.inverse()).letters == full(u, u.inverse()).letters == ()
        w = make(inverse_letters(u.letters) + list(v.letters))
        assert u * w == full(u, w)

        # a seam that cancels partly and then merges: u = p a^e q and
        # v = q^-1 a^f r with e + f != 0 keep all their letters, and the
        # product is p a^(e+f) r
        p = reduced_letters(rng, atoms, rng.randint(0, 3))
        q = reduced_letters(rng, atoms, rng.randint(1, 3))
        r = reduced_letters(rng, atoms, rng.randint(0, 3))
        a = rng.choice(atoms)
        e, f = rng.choice([(1, 1), (2, -1), (-3, 1), (1, 2), (-1, -2)])
        u_letters = p + [(a, e)] + q
        v_letters = inverse_letters(q) + [(a, f)] + r
        u, v = make(u_letters), make(v_letters)
        if u.letters != tuple(u_letters) or v.letters != tuple(v_letters):
            continue  # a neighbour of a^e or a^f shares its atom
        assert (u * v).letters == tuple(p + [(a, e + f)] + r)
        assert u * v == full(u, v)
        merges += 1
    assert merges >= 100
