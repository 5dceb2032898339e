import random
import time

import pytest

from crosscap import ledger
from crosscap.words import MCGWord, Slide, Twist


def random_symbol(rng: random.Random, g: int, slides_only: bool = False):
    if slides_only or rng.random() < 0.5:
        a = rng.randrange(1, g + 1)
        b = rng.randrange(1, g + 1)
        while b == a:
            b = rng.randrange(1, g + 1)
        return Slide(a, b)
    size = rng.choice([s for s in range(2, g + 1, 2)])
    return Twist(tuple(rng.sample(range(1, g + 1), size)))


def random_word(rng: random.Random, g: int, length: int, slides_only: bool = False) -> MCGWord:
    letters = [
        (random_symbol(rng, g, slides_only), rng.choice((-2, -1, 1, 2)))
        for _ in range(length)
    ]
    return MCGWord.from_letters(g, letters)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def rs_runner_layer(monkeypatch):
    """``run(g)`` runs the registry's RS-GAMMA24 at genus g and returns the
    mask of each signed generator that it walks its stream on and its
    verdict on each generator of ``_y_union_d_words``, read by spying on
    the ``coords`` argument of ``rs_stream_layout`` and on
    ``_level_4_offset``."""
    layout, offset = ledger.rs_stream_layout, ledger._level_4_offset

    def run(g):
        walked, verdicts = [], []

        def walk(genus, coords, cap):
            walked.append(list(coords))
            return layout(genus, coords, cap)

        def decide(v, genus):
            verdicts.append(offset(v, genus))
            return verdicts[-1]

        monkeypatch.setattr(ledger, "rs_stream_layout", walk)
        monkeypatch.setattr(ledger, "_level_4_offset", decide)
        ledger.run_check("RS-GAMMA24", {"g": g})
        assert len(walked) == 1
        assert len(verdicts) == len(ledger._y_union_d_words(g))
        return walked[0], verdicts

    return run


class Budget:
    """A time budget around a block: prints the block's pass line and
    fails it when it ran past ``seconds``."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n{self.name}: {status} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        return False
