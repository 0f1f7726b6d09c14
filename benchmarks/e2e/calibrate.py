"""Machine-speed probe that makes timings comparable on a box whose speed swings.

The 2-core sandbox this benchmark runs in flips, every ten seconds or so,
between two speeds ~35 % apart (a fixed numpy loop measured 680 and 1080
iterations/s within one minute, CPU time rising with wall time) — wider
than any bound the benchmark fixes, and slower than a run, so medians over
segments do not remove it.  What does: a fixed reference kernel timed right
before and after every segment.  Its throughput relative to a frozen
reference is the speed the machine had *during that segment*, and every
time-derived end-to-end number is expressed at reference speed:

    rate / speed        time * speed

On a steady machine the factor is constant and cancels between two commits.
The kernel is the benchmark's own (a small matmul + tanh, a scatter/gather
and an interpreter-bound loop: the mix the workloads are made of); it calls
nothing from the program under test, so no change to the program moves it.

Cache-resident and memory-bound code do not slow down together here (a
50 000-row kernel was seen 30 % fast while a 2 000-row one was not), so each
workload probes with the array length its own hot loop works on.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter


class Probe:
    """``rows``: array length of the kernel; ``reference``: its iterations
    per second on the pipeline box in a typical state.  The reference is a
    unit choice, frozen with the workload: changing it rescales every
    time-derived metric of that workload."""

    def __init__(self, rows: int, reference: float) -> None:
        rng = np.random.default_rng(0)
        self.reference = float(reference)
        self.n_out = max(81, rows // 25)
        self.a = rng.normal(size=(rows, 24))
        self.w = rng.normal(size=(24, 32))
        self.idx = rng.integers(0, self.n_out, size=rows)

    def __call__(self, duration: float = 0.1) -> float:
        """Machine speed now, relative to the reference (1.0 = reference)."""
        n = 0
        t0 = _clock()
        while _clock() - t0 < duration:
            h = np.tanh(self.a @ self.w)
            out = np.zeros((self.n_out, 32))
            np.add.at(out, self.idx, h)
            h = out[self.idx] * h
            s = 0
            for i in range(200):
                s += i * i
            n += 1
        return n / (_clock() - t0) / self.reference


class InterpreterProbe:
    """Bytecode-only kernel (integer arithmetic, dict and tuple churn) for a
    workload whose time goes to the interpreter, not to array arithmetic.

    ``serve_mixed`` is one: the array kernel above swings *more* than the
    server does (inter-quartile spread 15-20 % against the rate's 10-18 % over
    sixty 0.5-1 s closed-loop slices) and over-corrects; this one swings as
    much as the server (correlation 0.8) and halves the spread of the rate.
    """

    def __init__(self, reference: float) -> None:
        self.reference = float(reference)

    def __call__(self, duration: float = 0.1) -> float:
        n = 0
        t0 = _clock()
        while _clock() - t0 < duration:
            s = 0
            for j in range(500):
                s += j * j
            d = {}
            for j in range(100):
                d[j] = (j, s)
            n += 1
        return n / (_clock() - t0) / self.reference


class Bracket:
    """Speed of each stretch of work from the probes on its two sides.

    Call it right after a segment: it probes once and returns the mean of
    that probe and the previous one, so adjacent segments share a probe.
    """

    def __init__(self, probe) -> None:
        self.probe = probe
        self.last = probe()

    def __call__(self) -> float:
        before, self.last = self.last, self.probe()
        return (before + self.last) / 2
