"""The per-test time limit and time_limit nest."""

import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT, time_limit


def test_every_test_runs_under_the_per_test_limit():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert TEST_TIME_LIMIT - 60 < left <= TEST_TIME_LIMIT


def test_inner_limit_restores_the_outer_limit_with_its_time_left():
    with time_limit(0.5):
        with time_limit(5):
            time.sleep(0.1)
        assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 0.4
        with pytest.raises(TimeoutError):
            time.sleep(1)


def test_outer_limit_fires_inside_a_longer_inner_limit():
    with pytest.raises(TimeoutError):
        with time_limit(0.3):
            with time_limit(10):
                time.sleep(2)
