"""``llmize.rng.Rng`` against its reference, ``numpy.random.default_rng``, and
the import-time saving it exists for: llmize never loads numpy."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from llmize.rng import Rng

np = pytest.importorskip("numpy")

SRC = Path(__file__).resolve().parents[1] / "src"

# Seeds around each word boundary of SeedSequence's entropy: one, two, three
# and five 32-bit words.
EDGE_SEEDS = [2**32 - 1, 2**32, 2**32 + 1] + [2**64 + k for k in range(3)] + [
    2**128 + k for k in range(3)
]
SEEDS = list(range(2000)) + EDGE_SEEDS


def _draws(rnd: random.Random, count: int) -> list[tuple]:
    """A random interleaving of every draw kind llmize makes, as
    (method name, args, kwargs); ``n = 2`` keeps coming up for ``permutation``
    and ``choice``."""
    draws = []
    for _ in range(count):
        kind = rnd.randrange(5)
        if kind == 0:
            draws.append(("random", (), {}))
        elif kind == 1:
            low = rnd.uniform(-10.0, 10.0)
            draws.append(("uniform", (low, low + rnd.uniform(0.0, 20.0)), {}))
        elif kind == 2:
            high = rnd.choice([1, 2, 3, 7, 1000, 2**31 + 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63])
            draws.append(("integers", (high,), {}))
        elif kind == 3:
            draws.append(("permutation", (rnd.choice([0, 1, 2, 2, 3, 10, 50]),), {}))
        else:
            n = rnd.choice([2, 2, 3, 10, 50, 200])
            size = rnd.choice([0, 1, 2, 2, min(n, 5), n])
            draws.append(("choice", (n,), {"size": size, "replace": False}))
    return draws


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_matches_numpy_on_interleaved_draws():
    rnd = random.Random(20261018)
    for seed in SEEDS:
        ours, theirs = Rng(seed), np.random.default_rng(seed)
        for name, args, kwargs in _draws(rnd, 40):
            want = _plain(getattr(theirs, name)(*args, **kwargs))
            assert getattr(ours, name)(*args, **kwargs) == want, (seed, name, args, kwargs)
        # The streams are still aligned after the interleaving.
        assert ours.random() == theirs.random(), seed


@pytest.mark.parametrize("n, size", [(20000, 400), (10001, 200), (10001, 2)])
def test_choice_matches_numpy_on_large_populations(n, size):
    ours, theirs = Rng(3), np.random.default_rng(3)
    assert ours.choice(n, size=size, replace=False) == theirs.choice(
        n, size=size, replace=False
    ).tolist()
    assert ours.random() == theirs.random()


def test_choice_refuses_what_it_would_draw_unlike_numpy():
    # Above 10000, numpy switches to a tail shuffle when size exceeds n // 50.
    with pytest.raises(ValueError, match="^size must be <= n // 50"):
        Rng(3).choice(10001, size=201, replace=False)
    with pytest.raises(ValueError, match="^only replace=False"):
        Rng(3).choice(10, size=2, replace=True)


@pytest.mark.parametrize("high", [0, -1, 2**63 + 1])
def test_integers_refuses_an_empty_or_too_wide_range(high):
    with pytest.raises(ValueError, match=r"^high must be in \[1, 2\*\*63\]$"):
        Rng(3).integers(high)


@pytest.mark.parametrize("size", [-1, 6])
def test_choice_refuses_a_size_outside_the_population(size):
    with pytest.raises(ValueError, match=r"^size must be in \[0, n\]$"):
        Rng(3).choice(5, size=size, replace=False)


def test_zero_range_consumes_no_draw():
    # integers(1) has range 0; choice(2, size=2) starts Floyd's algorithm at range 0.
    plain = Rng(5)
    first = plain.random()
    after_integers = Rng(5)
    assert after_integers.integers(1) == 0
    assert after_integers.random() == first
    ours, theirs = Rng(5), np.random.default_rng(5)
    assert ours.choice(2, size=2, replace=False) == theirs.choice(2, size=2, replace=False).tolist()
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        Rng(seed)


def test_float_seed_is_refused():
    with pytest.raises(TypeError):
        Rng(1.5)


def test_importing_the_cli_leaves_numpy_unloaded():
    code = "import llmize.cli, sys; assert 'numpy' not in sys.modules, 'numpy was imported'"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
