"""Tests of the host-speed probe. Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import signal
import time

import pytest

import speed


def test_normalised_scales_wall_time_by_reference_over_mean_probe():
    ref = speed.REF_PROBE_S
    assert speed.normalised(2.0, [ref, ref]) == pytest.approx(2.0)
    # a host half as fast doubles both the wall time and the probe time
    assert speed.normalised(4.0, [2 * ref]) == pytest.approx(2.0)
    # the mean, not the median, of the probes: the time-weighted slowdown
    assert speed.normalised(3.0, [ref, ref, 4 * ref]) == pytest.approx(1.5)


def test_probe_samples_through_the_block_and_subtracts_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        time.sleep(0.2)  # a signal interrupts the sleep, which then resumes
    t = probe.timing
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.15 < t.wall_s < 0.2 + 0.05
    assert len(probe._samples) > 5  # one before, one after, the rest inside
    assert t.probe_s > 0
    assert t.norm_s == pytest.approx(speed.normalised(t.wall_s, probe._samples))


def test_probe_times_a_block_that_raises():
    probe = speed.Probe()
    with pytest.raises(ValueError):
        with probe:
            raise ValueError("op failed")
    assert probe.timing is not None and probe.timing.wall_s >= 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
