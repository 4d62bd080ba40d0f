"""Host-speed reference: scales host times to a fixed speed of the box.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 2x
within a second, on each CPU independently, which shows in every operation
alike.  So the benchmark times a short fixed reference loop just before each
operation, every ``SAMPLE_INTERVAL_S`` during it (from a SIGALRM handler, whose
time is taken out of the operation's), and once after the last, and reports
each operation's host time scaled by how much slower or faster than nominal
the reference ran around and during it:

    reported = host_s * REF_NOMINAL_S / mean(reference samples of the operation)

A change to the program moves the operation and not the reference, so it
shows in full; a change of the host's speed moves both and cancels.  The
reference mixes the kinds of work the program does: Python float arithmetic,
small numpy array operations, and float formatting and parsing.  The raw host
times and every reference time are kept in the run's record.

Set-up runs in fresh worker processes and is mostly importing, which the
host slows less than it slows the loop above (the logarithm of set-up time
rose by 0.66 per unit of the loop's, and by 0.96 per unit of an import's).
So set-up has a reference of its own: a fresh interpreter timing its import
of numpy and the standard modules stsbot imports, run before and after each
set-up worker:

    reported_setup = host_s * IMPORT_NOMINAL_S / mean(import before, import after)
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

REF_ITERATIONS = 200
REF_NOMINAL_S = 0.0016   # about the reference's median on a 2-vCPU Xeon (see README.md)
MARK_REFS = 10           # references averaged into one mark between operations
SAMPLE_INTERVAL_S = 0.05
IMPORT_NOMINAL_S = 0.10  # about the import reference's median on the same box
IMPORT_REF = ("import time; t = time.perf_counter(); "
              "import numpy, argparse, dataclasses, enum, json, pathlib; "
              "print(time.perf_counter() - t)")


def reference() -> float:
    """Run the reference loop once; returns its host seconds."""
    m = np.eye(4) * 1.01
    a = np.array([0.1, 0.2, 0.3, 0.4])
    x = 0.5
    parts = []
    t = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        x = x * 1.0000001 + 0.3 / (1.0 + x * x)
        a = m @ a
        a = a / np.linalg.norm(a)
        parts.append(f"{x:.17g},{a[0]:.17g}")
    x = sum(float(s.split(",", 1)[0]) for s in parts)
    return time.perf_counter() - t


def import_reference(env: dict) -> float:
    """Time the import reference in a fresh interpreter; returns its host seconds."""
    out = subprocess.run([sys.executable, "-c", IMPORT_REF], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return float(out)


@dataclass
class Timed:
    """One timed operation: host seconds without the samples taken inside it."""

    host_s: float = 0.0
    inside: list[float] = field(default_factory=list)


class Speedometer:
    """Reference samples between and during operations.

    A disabled meter (for traced passes, whose spans must not contain the
    sampler) only times operations.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.refs: list[float] = []   # one per mark

    def mark(self) -> int:
        """Time the reference now; returns the mark's index."""
        if self.enabled:
            self.refs.append(statistics.fmean(reference() for _ in range(MARK_REFS)))
        return len(self.refs) - 1

    @contextmanager
    def timing(self):
        """Time the body, sampling the reference inside it; yields a ``Timed``."""
        rec = Timed()
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            rec.inside.append(reference())
            spent += time.perf_counter() - t0

        if self.enabled:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t = time.perf_counter()
        try:
            yield rec
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            rec.host_s = time.perf_counter() - t - spent

    def scale(self, before: int, inside: list[float] = ()) -> float:
        """Scale for an operation between marks ``before`` and ``before + 1``."""
        return REF_NOMINAL_S / statistics.fmean([*self.refs[before:before + 2], *inside])


class ScaledTimes:
    """Host seconds of one kind of operation, with the reference samples of each."""

    def __init__(self):
        self.host_s: list[float] = []
        self.marks: list[int] = []
        self.inside: list[list[float]] = []

    def add(self, timed: Timed, mark: int) -> None:
        self.host_s.append(timed.host_s)
        self.marks.append(mark)
        self.inside.append(timed.inside)

    def __len__(self) -> int:
        return len(self.host_s)

    def scaled(self, speed: Speedometer) -> list[float]:
        return [h * speed.scale(m, i) for h, m, i in zip(self.host_s, self.marks, self.inside)]
