"""The machine's speed at the moment, from a fixed reference computation.

On a shared machine the same computation runs up to about 1.8 times slower
for seconds at a time, whatever the program does.  The benchmark therefore
runs a small, fixed, pure-Python computation shaped like cmlink's inner
loops (a sparse product of dicts keyed by exponent tuples with Fraction
values) before and after every operation, and every SAMPLE_CPU_S of CPU
time during it, and scales the operation's wall time (less the time spent
in those samples) by REFERENCE_S / (mean reference time around it).  The result is the
operation's wall time at the speed at which the reference takes
REFERENCE_S.  The reference never calls cmlink, so a change to the program
moves only the operation's own time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# the reference's wall time at nominal speed (its median on the 2-core
# Xeon the baselines in README.md were measured on)
REFERENCE_S = 0.0033
# CPU time between two reference samples inside an operation
SAMPLE_CPU_S = 0.05

_TERMS = {
    (i, j, k): Fraction(i + 1, j + 2) for i in range(4) for j in range(4) for k in range(2)
}


def _reference():
    out = {}
    for e1, c1 in _TERMS.items():
        for e2, c2 in _TERMS.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            v = out.get(e)
            out[e] = c1 * c2 if v is None else v + c1 * c2
    return out


def reference_time():
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


def warm_up(rounds=20):
    for _ in range(rounds):
        _reference()


class Sampler:
    """Reference samples taken inside an operation, from a SIGPROF handler."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start

    def start(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def scaled(elapsed, refs, spent=0.0):
    """Wall time at nominal speed: less the sampling time, over the mean reference.

    `refs` are the reference times right before and after the operation and
    those sampled inside it.  The speed also changes within tens of
    milliseconds, so references further away (or a median over them) track
    it worse: that widened the spread of `op_gmean_ms` from 5% to 12%.
    """
    return (elapsed - spent) * REFERENCE_S * len(refs) / sum(refs)
