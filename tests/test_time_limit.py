"""The per-test time limit and time_limit nest."""

import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFIRE, TEST_TIME_LIMIT, TimeLimitExceeded, time_limit


def test_every_test_runs_under_the_per_test_limit():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert TEST_TIME_LIMIT - 60 < left <= TEST_TIME_LIMIT


def test_inner_limit_restores_the_outer_limit_with_its_time_left():
    with time_limit(0.5):
        with time_limit(5):
            time.sleep(0.1)
        assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 0.4
        with pytest.raises(TimeLimitExceeded):
            time.sleep(1)


def test_outer_limit_fires_inside_a_longer_inner_limit():
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.3):
            with time_limit(10):
                time.sleep(2)


def test_a_swallowed_limit_fires_again_until_the_block_ends():
    fired = 0
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            while fired < 3:
                try:
                    time.sleep(5)
                except TimeLimitExceeded:
                    fired += 1
            time.sleep(5)
    assert fired == 3
    assert signal.getitimer(signal.ITIMER_REAL)[0] > REFIRE  # the per-test limit again


def test_hypothesis_does_not_swallow_the_limit():
    # an Exception would be recorded as a failing example and replayed
    # while shrinking, with no limit left
    @given(st.integers())
    @settings(max_examples=50, deadline=None, database=None)
    def sleeps(n):
        time.sleep(1)

    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.3):
            sleeps()
    assert time.monotonic() - start < 1
