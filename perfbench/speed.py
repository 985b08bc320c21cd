"""The machine's speed, read from a fixed probe loop run between jobs.

On a shared machine the same job takes up to 1.6 times longer in one
minute than in the next, and every pure-Python loop slows down together
(see NOTES.md). The benchmark therefore times a fixed probe after every
PROBE_EVERY_S of work and reports each job's time at a reference speed:

    time at reference speed = measured time * REFERENCE_S / local probe time

where the local probe time is the mean of the two probes before the job
and the two after it, so that drift within a run is followed too.

The probe has the shape of the pure kernel's inner loop (table lookups and
small-int arithmetic on preallocated lists). It allocates no objects the
garbage collector tracks, so the program's heap does not change its cost,
and nothing the program does changes the probe.
"""

from __future__ import annotations

import statistics
import time

# A probe time typical of the reference machine (2-core Intel Xeon VM,
# Python 3.11.7); it only sets the scale of the reported times.
REFERENCE_S = 0.0045
PROBE_EVERY_S = 0.25  # job time between two probes

_N = 24
_REPS = 40
_Q, _W = 9, 8
_EXP = [1, 3, 4, 8, 2, 6, 5, 7]
_LOG = [0] * _Q
for _i, _x in enumerate(_EXP):
    _LOG[_x] = _i
_ADD = [(a % 3 + b % 3) % 3 + 3 * ((a // 3 + b // 3) % 3) for a in range(_Q) for b in range(_Q)]
_F = [1 + (7 * i) % 8 for i in range(_N)]
_G = [1 + (5 * i + 3) % 8 for i in range(_N)]
_OUT = [0] * (2 * _N - 1)


def probe() -> float:
    """Seconds one pass of the probe loop takes now."""
    exp, log, add, f, g, out = _EXP, _LOG, _ADD, _F, _G, _OUT
    t0 = time.perf_counter()
    for _ in range(_REPS):
        for k in range(2 * _N - 1):
            out[k] = 0
        for i in range(_N):
            la = log[f[i]]
            for j in range(_N):
                out[i + j] = add[out[i + j] * _Q + exp[(la + log[g[j]]) % _W]]
    return time.perf_counter() - t0


class Speedometer:
    """Probes the speed every PROBE_EVERY_S of measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []
        self._since = PROBE_EVERY_S

    def tick(self, worked_s: float = 0.0) -> None:
        self._since += worked_s
        if self._since >= PROBE_EVERY_S:
            self.samples.append(probe())
            self._since = 0.0

    def start_job(self) -> None:
        """Probe if one is due, and note which probe the next job follows."""
        self.tick()
        self.marks.append(len(self.samples) - 1)

    def local(self, job: int) -> float:
        """Speed factor around job number ``job``: the mean probe time of the
        two probes before it and the two after it, over REFERENCE_S."""
        before = self.marks[job]
        window = self.samples[max(0, before - 1):before + 3]
        return statistics.mean(window) / REFERENCE_S

    @property
    def factor(self) -> float:
        """How much slower than the reference the machine ran (mean probe
        time over REFERENCE_S); divide a measured time by it."""
        return statistics.mean(self.samples) / REFERENCE_S
