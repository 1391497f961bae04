"""A fixed reference computation that tracks how fast a shared machine runs.

On a shared 2-core box the same pass can take 1.6 times longer from one
minute to the next, and the speed can change within a second, as other
tenants come and go.  The benchmark times this kernel every tenth of a
second of a pass, in the same process and in the middle of an operation
if need be, and reports every time scaled to a reference speed:

    reported seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are those sampled around each stretch of time.
The kernel mixes what chowfans spends its time on: Fraction elimination,
dicts keyed by tuples, and bitmask sets.  It never calls chowfans, so a
change to the program does not change it.  Raw times are kept in each run
record.
"""

import signal
import time
from fractions import Fraction

# About the time of one kernel call on the 2-core box the benchmark was
# defined on.
REFERENCE_S = 0.002
INTERVAL_S = 0.1


def kernel():
    acc = 0
    for rep in range(2):
        m = [[Fraction((i * 7 + j * 3 + rep) % 5 - 2, 1 + (i + j) % 3)
              for j in range(9)] for i in range(6)]
        r = 0
        for c in range(9):
            p = next((i for i in range(r, 6) if m[i][c] != 0), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            for i in range(r + 1, 6):
                f = m[i][c] / m[r][c]
                if f:
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        table = {}
        for i in range(200):
            table[(i, i * 3 % 17)] = tuple(range(i % 6))
        masks = {(i * 2654435761) & 0x3ff for i in range(300)}
        acc += r + len(table) + sum(bin(a & b).count("1")
                                   for a in list(masks)[:40] for b in (0x155, 0x2aa))
    return acc


def sample():
    """Seconds one kernel call takes now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class Sampler:
    """Samples the kernel on entry, on exit and every INTERVAL_S seconds in
    between, from a SIGALRM handler, so long operations are sampled too.
    Main thread only.  Time spent sampling is left out of every interval
    it measures."""

    def __init__(self):
        self.marks = []         # (start, end, kernel seconds) per sample
        self._busy = False
        self._previous = None

    def _take(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.marks.append((start, end, end - start))
        self._busy = False

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def seconds(self, a, b, scaled=True):
        """Time from perf_counter a to b without the sampling in it; scaled,
        each stretch between two samples counts at the speed their mean
        kernel time gives."""
        total = 0.0
        for (_, end0, k0), (start1, _, k1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(a, end0), min(b, start1)
            if hi > lo:
                total += (hi - lo) * (2 * REFERENCE_S / (k0 + k1) if scaled else 1)
        return total

    def kernel_median(self):
        times = sorted(k for _, _, k in self.marks)
        return times[len(times) // 2]
