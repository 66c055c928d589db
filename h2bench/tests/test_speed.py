"""The host-speed probe samples on its timer and restores what it replaced."""

import signal
from time import perf_counter

import pytest

from h2bench.speed import REF_NS, SpeedProbe


def busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_factor_is_the_mean_speed_ratio_since_a_mark():
    probe = SpeedProbe()
    probe.samples = [REF_NS * 4, REF_NS, REF_NS // 2]
    assert probe.factor(1) == pytest.approx((1.0 + 2.0) / 2)
    assert probe.factor(0) == pytest.approx((0.25 + 1.0 + 2.0) / 3)
    with pytest.raises(RuntimeError):
        probe.factor(3)


def test_probe_samples_while_running_and_restores_the_handler():
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, mine)
    try:
        probe = SpeedProbe(interval_s=0.01)
        probe.start()
        try:
            busy(0.1)  # not counting: the program is not running
            assert probe.samples == []
            probe.counting = True
            busy(0.2)
        finally:
            probe.stop()
        assert signal.getsignal(signal.SIGALRM) is mine
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(probe.samples) >= 5
        assert probe.spent_ns >= sum(probe.samples)
    finally:
        signal.signal(signal.SIGALRM, previous)
