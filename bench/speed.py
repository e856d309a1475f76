"""Host-speed probe: expresses timings at one reference speed of the CPU.

On a shared host the speed this process gets from its CPU changes from one
second to the next, without any change in the program: on the 2-vCPU VM the
benchmark was tuned on, a fixed pure-Python loop takes 37 ms or 60 ms
depending on the moment (another tenant on the sibling hyperthread, most
likely), and a `train_moons` op takes 1.5 s or 2.4 s along with it. Ten runs
of the same code then spread by a third of their median.

``Probe`` times a region and, while the region runs, samples how fast the
CPU is: every ``INTERVAL_S`` of wall time a SIGALRM handler runs
``probe_once``, a fixed piece of work made like the program's own (a loop of
interpreted additions, small allocations and a few numpy calls on a
32x16 matrix), and records its thread CPU time. Thread
CPU time does not advance while the thread is descheduled or waits for the
GIL, so busy worker threads or processes of the program do not slow the probe;
a slower CPU does. A region's normalised time is its wall time (minus the time
spent in the handler) scaled by ``REF_PROBE_S`` over the mean probe time, that
is the wall time the region would have taken at the speed at which the probe
takes ``REF_PROBE_S``. Work the program adds or removes moves the normalised
time as it moves the wall time; a slower or faster host does not.

Different kinds of code slow by different amounts when the host is busy:
interpreted loops, allocation and small numpy calls more than long numpy
kernels, and by how much depends on what the other tenant runs. The probe
mixes the kinds the program spends its time in; over one run in which wall
time spread by 0.08 to 0.17, its normalised op times spread by 0.02 on
`ablate_trend` and 0.05 on `train_moons`, against 0.055 and 0.061 for a probe
of interpreted additions alone.

Limits: work in other processes (a worker pool) is normalised by the speed of
this process's CPU; ops made mostly of long numpy kernels are over-corrected.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# The probe's CPU time that defines the reference speed: a round figure near
# its mean time inside ops on a 2-vCPU Intel Xeon VM with Python 3.11.
REF_PROBE_S = 100e-6
INTERVAL_S = 0.02
_A = np.linspace(-1.0, 1.0, 32 * 16).reshape(32, 16)
_B = np.linspace(-1.0, 1.0, 16 * 8).reshape(16, 8)


def probe_once() -> float:
    """Thread CPU seconds of a fixed piece of work."""
    t0 = time.thread_time()
    x = 0
    for i in range(600):
        x += i
    rows = {i: [i] for i in range(80)}
    for _ in range(6):
        np.tanh(_A @ _B).sum()
    return time.thread_time() - t0


def normalised(wall_s: float, probe_s: list[float]) -> float:
    """``wall_s`` at the speed at which the probe takes ``REF_PROBE_S``."""
    return wall_s * REF_PROBE_S / statistics.fmean(probe_s)


@dataclass(frozen=True)
class Timing:
    wall_s: float  # wall time of the region, without the probe handler's time
    norm_s: float  # wall_s at the reference speed
    probe_s: float  # mean probe CPU time over the region


class Probe:
    """Times the ``with`` block it guards; ``timing`` is set on exit.

    One probe runs just before and one just after the block, outside the
    timed interval, so that a block shorter than ``INTERVAL_S`` still has two
    samples next to it. Must be used from the main thread.
    """

    def __init__(self):
        self.timing: Timing | None = None

    def _on_alarm(self, signum, frame) -> None:
        w0 = time.perf_counter()
        self._samples.append(probe_once())
        self._inside_s += time.perf_counter() - w0

    def __enter__(self) -> Probe:
        self._samples = [probe_once()]
        self._inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(probe_once())
        wall = t1 - self._t0 - self._inside_s
        self.timing = Timing(wall, normalised(wall, self._samples), statistics.fmean(self._samples))
