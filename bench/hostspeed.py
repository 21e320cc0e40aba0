"""The host's speed, measured by a fixed computation run between queries.

The benchmark runs on shared hosts whose speed moves by a quarter or more
from one second to the next and over minutes, unseen from inside the VM:
steal time stays 0 and CPU time moves with wall time.  So the untraced
run times a fixed reference computation every SAMPLE_EVERY_S between
queries (after a long query, one sample per SAMPLE_EVERY_S it took, up
to BURST) and scales each timed interval (a query or a set-up) by

    REFERENCE_S / median(reference times of the samples taken within
                         SAMPLE_EVERY_S of the interval, and at least
                         the last one before and the first one after it)

so every reported time reads as on a host that runs the reference in
REFERENCE_S.  The reference is this benchmark's own code (reference.py
enumerating the small models of a fixed sequent, as a decision procedure
does), so no change to mvmodal changes it; it runs with the garbage
collector off, so the size of mvmodal's heap does not change it either.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
from time import perf_counter

import reference as R

REFERENCE_S = 0.003  # about one reference computation on a 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.2
BURST = 5


class HostSpeed:
    def __init__(self):
        self.sig = R.lukasiewicz(3)
        x = ("v", "p")
        self.goal = ([(("B", x), 2)], [(("D", x), 2), (("D", x), 3)])
        self.ends: list[float] = []  # perf_counter() when each sample ended
        self.took: list[float] = []

    def reference(self) -> int:
        """Check the goal at every world of every model of up to two worlds."""
        satisfied = 0
        for world_count in (1, 2):
            pairs = [(u, v) for u in range(world_count) for v in range(world_count)]
            for mask in range(1 << len(pairs)):
                edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
                for vals in itertools.product((1, 2, 3), repeat=world_count):
                    model = R.make_model(world_count, edges, {
                        (w, "p"): vals[w] for w in range(world_count)})
                    memo: dict = {}
                    satisfied += sum(R.holds(self.sig, model, w, self.goal, memo)
                                     for w in range(world_count))
        return satisfied

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.reference()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.ends.append(end)
        self.took.append(end - start)

    def sample_if_due(self) -> None:
        due = 1 if not self.ends else int(
            (perf_counter() - self.ends[-1]) / SAMPLE_EVERY_S)
        for _ in range(min(due, BURST)):
            self.sample()

    def adjust(self, start: float, seconds: float) -> float:
        """`seconds` timed from `start`, scaled to a host of REFERENCE_S."""
        end = start + seconds
        first = min(bisect.bisect_left(self.ends, start - SAMPLE_EVERY_S),
                    bisect.bisect_left(self.ends, start) - 1)
        last = max(bisect.bisect_right(self.ends, end + SAMPLE_EVERY_S),
                   bisect.bisect_right(self.ends, end) + 1)
        near = self.took[max(0, first):last]
        return seconds * REFERENCE_S / statistics.median(near)
