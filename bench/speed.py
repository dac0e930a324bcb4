"""Machine-speed calibration: a fixed pure-Python loop timed beside the cells.

The reference machine is a shared VM whose speed moves by up to 1.7x over
minutes, in CPU time as much as in wall time, so neither clock filters it
out.  The benchmark therefore times this loop, which calls nothing of
``amdigraph``, every ``EVERY_S`` seconds of a round, between cells, and
reports each cell's time scaled to a machine on which one sample takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / median(the NEAREST samples in time)

The speed moves within seconds, so each cell is scaled by the samples taken
closest to it, not by one figure for the round.  A change to the program
moves the measured time and not the samples, so it shows in full; a slow
phase of the machine moves both and cancels.  The run record keeps the
round's median scale, so the unscaled times can be recovered.
"""
from __future__ import annotations

import statistics
import time

PASSES = 3  # passes of the loop in one sample
REFERENCE_S = 0.0045  # a typical sample on the reference machine
# a sample whenever 50 ms of cells have passed, and the 5 nearest: over all
# 270 factor cells timed twice, the spread of per-cell time ratios (sd of
# their log) was 0.18 scaled against 0.23 unscaled; every 0.2 s with the 9
# nearest gave 0.25 against 0.29, and did not help cells longer than 0.3 s
EVERY_S = 0.05  # seconds of cells between two samples
NEAREST = 5  # samples that set the scale of one cell


def sample(passes: int = PASSES) -> float:
    """Seconds for ``passes`` passes of the loop: a schoolbook product mod p."""
    p = 10007
    a = list(range(1, 120))
    b = list(range(7, 110))
    t0 = time.perf_counter()
    for _ in range(passes):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return time.perf_counter() - t0


class Sampler:
    """Takes a sample when ``EVERY_S`` seconds have passed since the last."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._due = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self.samples.append((now, sample()))
            self._due = time.perf_counter() + EVERY_S

    def scale_at(self, t: float) -> float:
        """Factor that turns a time measured at ``t`` into one at reference speed."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]
        return REFERENCE_S / statistics.median(s for _, s in near)

    def scale(self) -> float:
        """The same factor over the whole round."""
        return REFERENCE_S / statistics.median(s for _, s in self.samples)
