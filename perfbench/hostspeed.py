"""Host-speed normalization of the benchmark's timed intervals.

The speed of the 2-CPU VM the ledger was measured on drifts by about
±20% over seconds: a fixed pure-Python loop, timed back to back for 90 s
and averaged over 10-s windows, ranged from 0.35 to 0.52 s per loop with
no CPU steal reported. Raw host seconds of two runs of the same code
therefore differ by more than the regressions the benchmark must catch.

So every timed interval is cut by short calibration probes, and each
segment between two probes is rescaled by the host speed the probes
around it saw::

    slowness = (local_probe_s / REFERENCE_PROBE_S) ** SENSITIVITY
    normalized = Σ segment_seconds / slowness

The package's work slows less than the probe when the host slows
(``SENSITIVITY`` below), so the probe's slowdown is damped accordingly.

The benchmark's times thus read as seconds on a host where one probe
takes ``REFERENCE_PROBE_S``. A probe is a fixed unit of the benchmark's
own work — stdlib JSON, regular expressions, a heap of small objects,
sorting — that runs no code of the package under test. It runs once to
warm the caches and ``UNITS`` times timed, with the garbage collector off
so that the package's heap size does not leak into it. Probe time is
never counted in an interval.

A probe reads the CPU time of its own thread, not wall time. Fleet
workers compute in other processes while the coordinator probes; time
the probe spends waiting for a CPU they hold is not CPU time, so how busy
a change keeps the workers stays out of the reading, short of what they
do to the shared caches. No change to the package's code can move a
probe otherwise.
"""

from __future__ import annotations

import gc
import heapq
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Probe seconds that define the normalized time scale. A fixed unit: in
#: the ledger runs (perfbench/README.md) normalized seconds read 1.02 to
#: 1.07 times the raw host seconds.
REFERENCE_PROBE_S = 6e-4
#: How the package's work follows the probe: host slowdowns that made a
#: probe take k times as long made the work take k ** SENSITIVITY as long.
#: Fitted on the ledger's 2-vCPU KVM guest (perfbench/README.md) by timing
#: a Fig. 6 cell (exponent 0.82) and a 1.4 MB JSON round trip (0.72)
#: between probes, back to back for 60 s.
SENSITIVITY = 0.75
#: Probes on each side of a segment whose median sets its speed.
WINDOW = 2
#: Timed units per probe; their median is the probe's reading.
UNITS = 3

#: Modules a start-up probe imports: numpy and stdlib modules, no package
#: code, so no change to the package can move it.
STARTUP_IMPORTS = ("numpy, json, re, heapq, statistics, argparse, "
                   "dataclasses, pathlib, tempfile, resource, decimal, typing")
#: Start-up probe seconds that define the normalized set-up time scale.
#: In the ledger runs (perfbench/README.md) normalized set-up seconds read
#: about 0.85 times the raw ones.
REFERENCE_STARTUP_S = 0.15

_DOC = json.dumps({f"k{i}": [i, i * 0.5, f"v{i}", {"x": i}] for i in range(60)})
_PATTERN = re.compile(r'"v(\d+)"')


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a, self.b = a, b


def _probe_unit() -> float:
    doc = json.loads(_DOC)
    _PATTERN.sub(lambda m: m.group(1), json.dumps(doc, sort_keys=True))
    heap: list = []
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 101 * 0.1, i, _Node(i, i * 0.5)))
    acc = 0.0
    while heap:
        t, _, node = heapq.heappop(heap)
        acc += t * node.b + node.a
    sorted(doc.items(), key=lambda kv: kv[1][1])
    return acc


def probe() -> float:
    """CPU seconds of one probe unit: the median of ``UNITS`` timed units,
    after one that warms the caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_unit()
        times = []
        for _ in range(UNITS):
            t0 = time.thread_time()
            _probe_unit()
            times.append(time.thread_time() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def startup_probe(env: dict, cwd: Path) -> float:
    """Wall seconds of a fresh interpreter that imports ``STARTUP_IMPORTS``.

    The set-up counterpart of a probe: process start, imports and
    extension loading scale with the host differently from pure Python
    work, so set-up time is normalized by a start-up of its own kind.
    """
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", f"import {STARTUP_IMPORTS}"],
                   env=env, cwd=cwd, check=True, timeout=60)
    return time.monotonic() - t0


class HostClock:
    """Marks on a timeline, each a calibration probe unless ``probe=False``.

    Without probes (traced passes, whose wrappers would time the probes
    too) every segment keeps its raw length.
    """

    def __init__(self, probe: bool = True) -> None:
        self.probing = probe
        #: (start, end, probe seconds) of every mark, in order.
        self.marks: list[tuple[float, float, float]] = []

    def mark(self) -> int:
        """Cut the timeline here; returns the mark's index."""
        start = time.perf_counter()
        seconds = probe() if self.probing else REFERENCE_PROBE_S
        self.marks.append((start, time.perf_counter(), seconds))
        return len(self.marks) - 1

    def _factor(self, i: int) -> float:
        """Host slowness over segment ``i`` (mark ``i`` to mark ``i+1``)."""
        lo, hi = max(0, i + 1 - WINDOW), min(len(self.marks), i + 1 + WINDOW)
        probes = [m[2] for m in self.marks[lo:hi]]
        return (statistics.median(probes) / REFERENCE_PROBE_S) ** SENSITIVITY

    def segment(self, i: int, raw: float | None = None) -> float:
        """Normalized seconds of segment ``i``, or of ``raw`` seconds
        spent inside it (a worker-side duration reported at mark i+1)."""
        if raw is None:
            raw = self.marks[i + 1][0] - self.marks[i][1]
        return raw / self._factor(i)

    def interval(self, i: int, j: int) -> tuple[float, float]:
        """(raw, normalized) seconds from mark ``i`` to mark ``j``,
        probe time excluded."""
        raw = sum(self.marks[k + 1][0] - self.marks[k][1] for k in range(i, j))
        return raw, sum(self.segment(k) for k in range(i, j))
