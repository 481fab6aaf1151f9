"""``_best_of`` checks determinism on every repeat, not only the fastest."""

import pytest

from repro.errors import HarnessError
from repro.harness.bench import _best_of


def _runner(samples):
    it = iter(samples)
    return lambda: next(it)


def _sample(seconds, instructions=1000, cycles=5000):
    return {"seconds": seconds, "instructions": instructions,
            "cycles": cycles}


def test_returns_fastest_of_consistent_samples():
    best = _best_of(_runner([_sample(0.3), _sample(0.1), _sample(0.2)]), 3)
    assert best["seconds"] == 0.1


@pytest.mark.parametrize("what", ["instructions", "cycles"])
def test_slower_sample_with_different_count_raises(what):
    planted = _sample(0.9)
    planted[what] += 1
    with pytest.raises(HarnessError, match=what):
        _best_of(_runner([_sample(0.1), planted]), 2)


@pytest.mark.parametrize("what", ["instructions", "cycles"])
def test_faster_sample_with_different_count_raises(what):
    planted = _sample(0.05)
    planted[what] -= 1
    with pytest.raises(HarnessError, match=what):
        _best_of(_runner([_sample(0.1), _sample(0.2), planted]), 3)
