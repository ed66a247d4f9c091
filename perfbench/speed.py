"""Host-speed probe: the time a run would have taken on an idle host.

The benchmark runs on a shared host whose cores slow this process down
by a factor of 1.1 to 3 for stretches of seconds to minutes, whatever
the process does; the same pass of the same code can take 4 s in one
minute and 8 s in the next.  Raw wall time then measures the neighbours
as much as the program.

``SpeedProbe`` measures that slowdown while the program runs.  A SIGALRM
timer interrupts the process every ``interval_s`` seconds, and the
handler times a fixed kernel, the same code on every run and in every
version of the library.  ``scaled_seconds`` takes the program time
between two probes (probe time left out), multiplies it by the kernel's
reference duration over its duration at that moment (a running median
of a few probes), and sums.  The result is in seconds of a host on which
the kernel takes its reference duration: a constant factor away from
raw seconds on an idle host, but steady while the host's load swings.

Nothing in the program is wrapped or changed; the handler runs between
two bytecodes of whatever the program is doing.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

# Probes per running median: a single probe can be hit by an interrupt.
SMOOTH = 5

# Reference kernel durations, close to the fastest running median seen on
# the host the benchmark was written on (x86_64, Python 3.11).  They only
# fix the unit of the scaled seconds.
REFERENCE_S = {"mixed": 250e-6, "python": 90e-6}


def python_kernel():
    """Interpreter work without numpy, for probes taken while numpy is
    being imported: float math, tuples, dicts, strings and a sort."""
    acc = {}
    total = 0.0
    for i in range(120):
        v = (math.sqrt(i + 0.5) * 1.5, i / 3.0, math.exp(-i * 1e-3))
        key = i % 13
        acc[key] = acc.get(key, 0.0) + sum(v) / (1.0 + len(acc))
        total += v[0] * v[1] - v[2]
    words = sorted((f"{k}:{val:.6g}" for k, val in acc.items()), key=len)
    return total + len(words)


def mixed_kernel():
    """Small-array numpy work like the library's own (products, norms,
    column copies, diagonals, clipping), then ``python_kernel``.  Call
    once to build it, outside a signal handler."""
    import numpy as np

    base = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    start = np.array([0.5, -0.25, 1.0])

    def kernel():
        m = base.copy()
        x = start
        total = 0.0
        for i in range(8):
            y = m @ x
            x = np.clip(y / float(np.linalg.norm(y)), -0.9, 0.9)
            j = i % 3
            col = m[:, j].copy()
            m[:, j] = 0.5 * col + 0.1 * x
            off = m - np.diag(np.diag(m))
            total += float(np.sum(np.maximum(off, 0.0))) + math.sqrt(abs(x[0]) + 1.0)
        return total + python_kernel()

    return kernel


# Kernel name -> function that builds it.
KERNELS = {"python": lambda: python_kernel, "mixed": mixed_kernel}


class SpeedProbe:
    """Context manager that times ``KERNELS[name]`` every ``interval_s`` seconds."""

    def __init__(self, name, interval_s=0.02):
        self.name = name
        self.interval_s = interval_s
        self.kernel = KERNELS[name]()
        self.start = array("d")
        self.duration = array("d")
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.duration.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def record(self):
        return {"kernel": self.name, "start": list(self.start), "duration": list(self.duration)}


def running_median(values):
    half = SMOOTH // 2
    n = len(values)
    out = []
    for i in range(n):
        window = sorted(values[max(0, i - half):i + half + 1])
        out.append(window[len(window) // 2])
    return out


def scaled_seconds(record, begin, end):
    """Program time in [begin, end] in reference seconds.  Each stretch
    is scaled by the running median at the probe that ends it, or at the
    last probe of the run if none does.  Probe time is left out."""
    reference = REFERENCE_S[record["kernel"]]
    speeds = [reference / d for d in running_median(record["duration"])]
    total = 0.0
    cursor = begin
    speed = 1.0
    for s, d, speed in zip(record["start"], record["duration"], speeds):
        if s + d <= begin:
            continue
        if s >= end:
            break
        total += max(0.0, s - cursor) * speed
        cursor = max(cursor, s + d)
    return total + max(0.0, end - cursor) * speed


def slowdown(record):
    """Median probe duration over the reference: how loaded the host was."""
    durations = sorted(record["duration"])
    if not durations:
        return math.nan
    return durations[len(durations) // 2] / REFERENCE_S[record["kernel"]]
