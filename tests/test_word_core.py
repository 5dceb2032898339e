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
