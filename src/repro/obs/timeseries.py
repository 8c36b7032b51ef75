"""Time-resolved instruments: windowed timeseries and quantile digests.

End-of-run aggregates (counters, fixed-bucket histograms) cannot tell a
fault-throttled run from a healthy one whose totals happen to match —
the paper's asymmetry effects are precisely *when* work lands on big vs
little cores. This module adds the two instruments that carry the time
axis through the snapshot pipeline:

* :class:`TimeSeries` — a deterministic windowed sampler over simulated
  time. Observations land in fixed-width windows aligned at t=0; when
  the run outgrows ``capacity`` windows the series coalesces (window
  width doubles, adjacent windows fold pairwise), so memory stays
  bounded while the window width remains an exact power-of-two multiple
  of the base width. ``mode="sample"`` records point observations (the
  per-window mean is ``sum/count``); ``mode="busy"`` records busy
  *spans*, distributing the overlap into each window it crosses (the
  per-window utilization is ``sum / (window * norm)``).
* :class:`QuantileDigest` — a streaming, mergeable, fixed-relative-
  precision quantile sketch (DDSketch-style logarithmic buckets). Two
  digests fed the same values are byte-identical; merging sums bucket
  counts, so p50/p99/p999 survive the fleet's per-job snapshot merge
  with bounded relative error (``gamma - 1``, ~2% by default).

Both instruments are registered through
:class:`~repro.obs.registry.MetricsRegistry` (kinds ``timeseries`` and
``digest``), serialize deterministically into snapshots, and merge
pointwise — the jobs=1 == jobs=N byte-equality contract extends to them
unchanged.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ObsError

#: Base window width in simulated seconds: a power of two (exact in
#: binary floating point), fine enough to resolve individual dispatches
#: in the paper-scale loops (~1 microsecond).
DEFAULT_WINDOW = 2.0 ** -20

#: Windows kept before the series coalesces (doubles its window).
DEFAULT_CAPACITY = 256

#: Digest bucket growth factor: relative error is (gamma - 1) / 2.
DEFAULT_GAMMA = 1.02


def utilization(busy_seconds: float, span_seconds: float) -> float:
    """Fraction of ``span_seconds`` covered by ``busy_seconds``.

    The one shared definition behind
    :func:`repro.metrics.imbalance.thread_utilization` and the
    ``core_utilization`` timeseries renderer.
    """
    if span_seconds <= 0.0:
        raise ObsError(f"utilization over non-positive span {span_seconds}")
    return busy_seconds / span_seconds


class TimeSeries:
    """Windowed sampler over (simulated) time.

    Windows are ``[i * window, (i + 1) * window)``; each holds
    ``[sum, count, min, max]`` of what landed there. The window width
    adapts: exceeding ``capacity`` distinct windows doubles ``window``
    and folds indices pairwise (``i -> i // 2``), a deterministic
    function of the observation sequence alone.
    """

    __slots__ = ("name", "labels", "mode", "window0", "level", "capacity",
                 "norm", "points")
    kind = "timeseries"

    def __init__(
        self,
        name: str,
        labels: tuple,
        mode: str = "sample",
        window: float = DEFAULT_WINDOW,
        capacity: int = DEFAULT_CAPACITY,
        norm: float = 1.0,
    ) -> None:
        if mode not in ("sample", "busy"):
            raise ObsError(f"timeseries {name!r}: unknown mode {mode!r}")
        if window <= 0.0:
            raise ObsError(f"timeseries {name!r}: window must be > 0")
        if capacity < 2:
            raise ObsError(f"timeseries {name!r}: capacity must be >= 2")
        self.name = name
        self.labels = labels
        self.mode = mode
        self.window0 = float(window)
        self.level = 0  # current window = window0 * 2**level
        self.capacity = int(capacity)
        self.norm = float(norm)
        self.points: dict[int, list[float]] = {}

    @property
    def window(self) -> float:
        """Current window width in seconds."""
        return self.window0 * (2.0 ** self.level)

    # -- recording ---------------------------------------------------------

    def observe(self, t: float, value: float) -> None:
        """Record a point sample ``value`` at time ``t`` (sample mode)."""
        if self.mode != "sample":
            raise ObsError(
                f"timeseries {self.name!r} is busy-mode; use observe_span"
            )
        self._add(int(t // self.window), float(value))

    def observe_span(self, t0: float, t1: float) -> None:
        """Record a busy span ``[t0, t1)``, split across the windows it
        overlaps (busy mode)."""
        if self.mode != "busy":
            raise ObsError(
                f"timeseries {self.name!r} is sample-mode; use observe"
            )
        cur = float(t0)
        end = float(t1)
        while cur < end:
            # Re-read every iteration: _add may coalesce mid-span, and
            # the remaining tail must land in the new, wider windows.
            w = self.window
            i = int(cur // w)
            hi = (i + 1) * w
            part = min(end, hi) - cur
            if part > 0.0:
                self._add(i, part)
            cur = hi

    def observe_many(self, ts: Sequence[float], values: Sequence[float]) -> None:
        """Record a column of point samples (sample mode): exactly the
        state :meth:`observe` per element, in order, would leave."""
        if self.mode != "sample":
            raise ObsError(
                f"timeseries {self.name!r} is busy-mode; use observe_spans"
            )
        if len(ts) != len(values):
            raise ObsError(
                f"timeseries {self.name!r}: observe_many got "
                f"{len(ts)} times for {len(values)} values"
            )
        add = self._add
        level = self.level
        w = self.window
        for t, value in zip(ts, values):
            add(int(t // w), float(value))
            if self.level != level:
                level = self.level
                w = self.window

    def observe_spans(
        self, t0s: Sequence[float], t1s: Sequence[float]
    ) -> None:
        """Record a column of busy spans (busy mode): exactly the state
        :meth:`observe_span` per span, in order, would leave."""
        if self.mode != "busy":
            raise ObsError(
                f"timeseries {self.name!r} is sample-mode; use observe_many"
            )
        if len(t0s) != len(t1s):
            raise ObsError(
                f"timeseries {self.name!r}: observe_spans got "
                f"{len(t0s)} starts for {len(t1s)} ends"
            )
        observe_span = self.observe_span
        for t0, t1 in zip(t0s, t1s):
            observe_span(t0, t1)

    def _add(self, idx: int, value: float) -> None:
        slot = self.points.get(idx)
        if slot is None:
            self.points[idx] = [value, 1.0, value, value]
            if len(self.points) > self.capacity:
                self._coalesce()
        else:
            slot[0] += value
            slot[1] += 1.0
            if value < slot[2]:
                slot[2] = value
            if value > slot[3]:
                slot[3] = value

    def _coalesce(self) -> None:
        points = self.points
        n = len(points)
        if n > 48:
            # Bulk fold: group by idx >> 1 with grouped reductions. Each
            # folded key merges at most two windows (2k and 2k+1), so the
            # pairwise float adds are order-independent and the result is
            # identical to the sequential fold below.
            keys = np.fromiter(points.keys(), dtype=np.int64, count=n)
            vals = np.asarray(list(points.values()))
            half = keys >> 1
            order = np.argsort(half, kind="stable")
            sh = half[order]
            sv = vals[order]
            starts = np.flatnonzero(
                np.concatenate(([True], sh[1:] != sh[:-1]))
            )
            self.points = dict(zip(
                sh[starts].tolist(),
                np.column_stack((
                    np.add.reduceat(sv[:, 0], starts),
                    np.add.reduceat(sv[:, 1], starts),
                    np.minimum.reduceat(sv[:, 2], starts),
                    np.maximum.reduceat(sv[:, 3], starts),
                )).tolist(),
            ))
            self.level += 1
            return
        folded: dict[int, list[float]] = {}
        for idx, (s, c, lo, hi) in points.items():
            slot = folded.get(idx >> 1)
            if slot is None:
                folded[idx >> 1] = [s, c, lo, hi]
            else:
                slot[0] += s
                slot[1] += c
                if lo < slot[2]:
                    slot[2] = lo
                if hi > slot[3]:
                    slot[3] = hi
        self.points = folded
        self.level += 1

    # -- merging -----------------------------------------------------------

    def merge_doc(self, doc: Mapping) -> None:
        """Fold a serialized series (:meth:`as_dict` form) into this one.

        Both sides are rescaled to the coarser of the two window widths
        (every width is ``window0 * 2**k``, so folding is exact), then
        windows add pointwise. Mode, base window and norm must match.
        """
        if doc.get("mode") != self.mode:
            raise ObsError(
                f"timeseries {self.name!r} mode mismatch while merging: "
                f"{self.mode} vs {doc.get('mode')}"
            )
        if float(doc.get("window0", self.window0)) != self.window0:
            raise ObsError(
                f"timeseries {self.name!r} base-window mismatch while merging"
            )
        if float(doc.get("norm", self.norm)) != self.norm:
            raise ObsError(
                f"timeseries {self.name!r} norm mismatch while merging"
            )
        level = int(doc.get("level", 0))
        incoming = {
            int(k): [float(v[0]), float(v[1]), float(v[2]), float(v[3])]
            for k, v in (doc.get("points") or {}).items()
        }
        while self.level < level:
            self._coalesce()
        while level < self.level:
            folded: dict[int, list[float]] = {}
            for idx, (s, c, lo, hi) in incoming.items():
                slot = folded.get(idx >> 1)
                if slot is None:
                    folded[idx >> 1] = [s, c, lo, hi]
                else:
                    slot[0] += s
                    slot[1] += c
                    slot[2] = min(slot[2], lo)
                    slot[3] = max(slot[3], hi)
            incoming = folded
            level += 1
        for idx, (s, c, lo, hi) in incoming.items():
            slot = self.points.get(idx)
            if slot is None:
                self.points[idx] = [s, c, lo, hi]
            else:
                slot[0] += s
                slot[1] += c
                slot[2] = min(slot[2], lo)
                slot[3] = max(slot[3], hi)
        while len(self.points) > self.capacity:
            self._coalesce()

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "mode": self.mode,
            "window0": self.window0,
            "window": self.window,
            "level": self.level,
            "capacity": self.capacity,
            "norm": self.norm,
            "points": {
                str(idx): list(self.points[idx])
                for idx in sorted(self.points)
            },
        }


class QuantileDigest:
    """Streaming quantile sketch with fixed relative precision.

    Positive values land in logarithmic buckets
    ``idx = ceil(log(v) / log(gamma))`` (so bucket ``idx`` covers
    ``(gamma**(idx-1), gamma**idx]``); non-positive values count in a
    dedicated zero bucket. Quantile queries walk the cumulative counts
    and return the matched bucket's upper bound, clamped to the observed
    extrema — relative error is bounded by ``gamma - 1``.
    """

    __slots__ = ("name", "labels", "gamma", "_log_gamma", "counts", "zero",
                 "sum", "count", "min", "max")
    kind = "digest"

    def __init__(
        self, name: str, labels: tuple, gamma: float = DEFAULT_GAMMA
    ) -> None:
        if gamma <= 1.0:
            raise ObsError(f"digest {name!r}: gamma must be > 1")
        self.name = name
        self.labels = labels
        self.gamma = float(gamma)
        self._log_gamma = math.log(self.gamma)
        self.counts: dict[int, int] = {}
        self.zero = 0
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        idx = math.ceil(math.log(value) / self._log_gamma)
        self.counts[idx] = self.counts.get(idx, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a column of observations: exactly the state
        :meth:`observe` per element, in order, would leave."""
        log, ceil, log_gamma = math.log, math.ceil, self._log_gamma
        counts = self.counts
        total, n, zero = self.sum, self.count, self.zero
        lo, hi = self.min, self.max
        for value in values:
            value = float(value)
            total += value
            n += 1
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            if value <= 0.0:
                zero += 1
                continue
            idx = ceil(log(value) / log_gamma)
            counts[idx] = counts.get(idx, 0) + 1
        self.sum, self.count, self.zero = total, n, zero
        self.min, self.max = lo, hi

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of everything observed so far."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"digest {self.name!r}: quantile {q} out of [0,1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero:
            return min(0.0, self.max) if self.max < 0.0 else 0.0
        seen = self.zero
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                return max(self.min, min(self.gamma ** idx, self.max))
        return self.max  # pragma: no cover - rank <= count always matches

    # -- merging -----------------------------------------------------------

    def merge_doc(self, doc: Mapping) -> None:
        """Fold a serialized digest (:meth:`as_dict` form) into this one."""
        if float(doc.get("gamma", self.gamma)) != self.gamma:
            raise ObsError(
                f"digest {self.name!r} gamma mismatch while merging: "
                f"{self.gamma} vs {doc.get('gamma')}"
            )
        for k, c in (doc.get("buckets") or {}).items():
            idx = int(k)
            self.counts[idx] = self.counts.get(idx, 0) + int(c)
        self.zero += int(doc.get("zero", 0))
        self.sum += float(doc.get("sum", 0.0))
        n = int(doc.get("count", 0))
        self.count += n
        if n > 0:
            self.min = min(self.min, float(doc["min"]))
            self.max = max(self.max, float(doc["max"]))

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "gamma": self.gamma,
            "zero": self.zero,
            "buckets": {
                str(idx): self.counts[idx] for idx in sorted(self.counts)
            },
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


def digest_quantile(doc: Mapping, q: float) -> float:
    """Quantile query over a *serialized* digest (dict form).

    The diff tool and the report CLI read snapshots, not live
    instruments; this reconstructs the walk :meth:`QuantileDigest.quantile`
    performs, bucket-exact.
    """
    count = int(doc.get("count", 0))
    if count == 0:
        return 0.0
    gamma = float(doc.get("gamma", DEFAULT_GAMMA))
    zero = int(doc.get("zero", 0))
    vmin = float(doc.get("min", 0.0))
    vmax = float(doc.get("max", 0.0))
    rank = max(1, math.ceil(q * count))
    if rank <= zero:
        return min(0.0, vmax) if vmax < 0.0 else 0.0
    seen = zero
    buckets = doc.get("buckets") or {}
    for idx, c in sorted((int(k), int(v)) for k, v in buckets.items()):
        seen += c
        if seen >= rank:
            return max(vmin, min(gamma ** idx, vmax))
    return vmax


def series_values(doc: Mapping) -> list[tuple[int, float]]:
    """Per-window rendered values of a *serialized* timeseries.

    Busy-mode windows render as utilization
    (``sum / (window * norm)``); sample-mode windows as the in-window
    mean (``sum / count``). Returned sorted by window index.
    """
    mode = doc.get("mode", "sample")
    window = float(doc.get("window", DEFAULT_WINDOW))
    norm = float(doc.get("norm", 1.0)) or 1.0
    out: list[tuple[int, float]] = []
    for k, (s, c, _lo, _hi) in sorted(
        (int(k), v) for k, v in (doc.get("points") or {}).items()
    ):
        if mode == "busy":
            out.append((k, utilization(float(s), window * norm)))
        else:
            out.append((k, float(s) / float(c) if c else 0.0))
    return out
