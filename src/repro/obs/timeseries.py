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

Publication only appends: every ``observe*`` call extends a pending
column. Each read (``points``, ``level``, ``as_dict``, ``quantile``,
``merge_doc``, the digest fields) first folds that column with numpy,
leaving exactly the floats a per-sample replay in call order would
leave. A non-finite time or value is therefore reported (as
:class:`~repro.errors.ObsError`) by the read that folds it, not by the
append.

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

#: Pending samples (or spans) an instrument holds before an append folds
#: them early. The fold is exact wherever a column is cut, so this only
#: bounds memory.
PENDING_LIMIT = 1 << 16

#: First lookahead of the series fold, in samples (or span parts); it
#: doubles while no coalesce cuts a block short, and after a coalesce
#: restarts at twice the segment that coalesce ended (at least
#: ``_LOOKAHEAD_MIN``).
_LOOKAHEAD = 1 << 12
_LOOKAHEAD_MIN = 1 << 8


def utilization(busy_seconds: float, span_seconds: float) -> float:
    """Fraction of ``span_seconds`` covered by ``busy_seconds``.

    The one shared definition behind
    :func:`repro.metrics.imbalance.thread_utilization` and the
    ``core_utilization`` timeseries renderer.
    """
    if span_seconds <= 0.0:
        raise ObsError(f"utilization over non-positive span {span_seconds}")
    return busy_seconds / span_seconds


def _folded(attr: str, doc: str) -> property:
    """A read-only view of ``attr`` that folds pending samples first."""

    def get(self):
        self._fold()
        return getattr(self, attr)

    return property(get, doc=doc)


# -- series state as sorted arrays --------------------------------------------
#
# A fold holds the windows as ``keys`` (sorted int64 window indices) and
# ``vals`` (one ``[sum, count, min, max]`` row per key); at rest they
# are the instrument's ``{index: [sum, count, min, max]}`` dict.


def _arrays(points: Mapping) -> tuple[np.ndarray, np.ndarray]:
    keys = sorted(points)
    vals = np.array([points[k] for k in keys], dtype=np.float64)
    return np.array(keys, dtype=np.int64), vals.reshape(len(keys), 4)


def _coalesce(keys: np.ndarray, vals: np.ndarray):
    """Double the window: fold windows ``2k`` and ``2k+1`` into ``k``.

    Each group holds at most two rows, so every reduction is one
    (order-independent) float operation — exactly the pairwise fold.
    """
    if not len(keys):
        return keys, vals
    half = keys >> 1
    start = np.flatnonzero(np.concatenate(([True], half[1:] != half[:-1])))
    return half[start], np.column_stack((
        np.add.reduceat(vals[:, 0], start),
        np.add.reduceat(vals[:, 1], start),
        np.minimum.reduceat(vals[:, 2], start),
        np.maximum.reduceat(vals[:, 3], start),
    ))


def _coalesced(points: Mapping) -> dict:
    """:func:`_coalesce` of an at-rest ``{index: row}`` dict."""
    keys, vals = _coalesce(*_arrays(points))
    return dict(zip(keys.tolist(), vals.tolist()))


def _fold_block(keys, vals, ks, vs, capacity: int):
    """Add samples ``(ks[i], vs[i])`` in order until one opens a window
    that takes the series past ``capacity``.

    Returns ``(keys, vals, cut)``: ``cut`` is the index of that sample
    (folded in, the coalesce it triggers not yet applied), or -1 if the
    whole block fitted. A new window starts from ``[-0.0, 0, inf, -inf]``
    (``-0.0 + v`` is exactly ``v``), so it takes its first value as-is.
    The samples are grouped by a stable sort, which keeps each window's
    samples in call order, and ``np.add.at`` applies them one by one in
    that order: every sum is the sequential one.
    """
    if not len(ks):
        return keys, vals, -1
    order = ks.argsort(kind="stable")
    sk = ks[order]
    head = np.empty(len(sk), dtype=bool)
    head[0] = True
    np.not_equal(sk[1:], sk[:-1], out=head[1:])
    uk = sk[head]
    first = order[head]
    pos = keys.searchsorted(uk)
    if len(keys):
        fresh = keys.take(pos, mode="clip") != uk
    else:
        fresh = np.ones(len(uk), dtype=bool)
    room = max(capacity - len(keys), 0)
    cut = -1
    if np.count_nonzero(fresh) > room:
        cut = int(np.partition(first[fresh], room)[room])
        fresh &= first <= cut
    # Each distinct key's row in the grown state: its old row (or
    # insertion point) shifted past the fresh keys sorted before it.
    shift = np.cumsum(fresh)
    row = pos + shift - fresh
    new_rows = row[fresh]
    keep = np.ones(len(keys) + len(new_rows), dtype=bool)
    keep[new_rows] = False
    grown = np.empty(len(keep), dtype=np.int64)
    grown[keep] = keys
    grown[new_rows] = uk[fresh]
    state = np.empty((len(keep), 4))
    state[keep] = vals
    state[new_rows] = (-0.0, 0.0, np.inf, -np.inf)
    at = row[np.cumsum(head) - 1]
    sv = vs[order]
    if cut >= 0:
        taken = order <= cut
        at, sv = at[taken], sv[taken]
    np.add.at(state[:, 0], at, sv)
    state[:, 1] += np.bincount(at, minlength=len(keep))
    np.minimum.at(state[:, 2], at, sv)
    np.maximum.at(state[:, 3], at, sv)
    return grown, state, cut


def _span_parts(t0, t1, w: float, limit: int, budget: int):
    """Split spans into their per-window parts, the scalar way.

    Span ``[t0, t1)`` starts in window ``i = t0 // w``; each part is
    ``min(t1, (i + 1) * w) - cur`` with ``cur`` the previous window's
    upper edge, and only positive parts count. Each span yields at most
    ``limit`` parts (a span that long must trigger a coalesce, after
    which its tail is split again); whole spans are taken while the
    running part count stays within ``budget`` (at least one span).

    Returns ``(keys, parts, upper edges, span index, spans taken)``.
    """
    i0 = np.floor_divide(t0, w)
    n = np.floor_divide(t1, w) - i0 + 2  # one spare: filtered below
    n = np.where(t0 < t1, np.minimum(n, limit), 0).astype(np.int64)
    total = np.cumsum(n)
    taken = max(1, int(np.searchsorted(total, budget, side="right")))
    n = n[:taken]
    span = np.repeat(np.arange(taken), n)
    k = np.arange(int(total[taken - 1])) - np.repeat(total[:taken] - n, n)
    keys = i0[:taken].astype(np.int64)[span] + k
    cur = np.where(k == 0, t0[span], keys * w)
    hi = (keys + 1) * w
    part = np.minimum(t1[span], hi) - cur
    keep = part > 0.0
    return keys[keep], part[keep], hi[keep], span[keep], taken


class TimeSeries:
    """Windowed sampler over (simulated) time.

    Windows are ``[i * window, (i + 1) * window)``; each holds
    ``[sum, count, min, max]`` of what landed there. The window width
    adapts: exceeding ``capacity`` distinct windows doubles ``window``
    and folds indices pairwise (``i -> i // 2``), a deterministic
    function of the observation sequence alone.
    """

    __slots__ = ("name", "labels", "mode", "window0", "_level", "capacity",
                 "norm", "_points", "_pa", "_pb")
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
        self._level = 0  # current window = window0 * 2**level
        self.capacity = int(capacity)
        self.norm = float(norm)
        self._points: dict[int, list[float]] = {}
        # Pending column: sample times and values, or span starts and ends.
        self._pa: list = []
        self._pb: list = []

    level = _folded("_level", "Coalesces so far (window = window0 * 2**level).")
    points = _folded("_points", "``{window index: [sum, count, min, max]}``.")

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
        self._pa.append(t)
        self._pb.append(value)
        if len(self._pa) >= PENDING_LIMIT:
            self._fold()

    def observe_span(self, t0: float, t1: float) -> None:
        """Record a busy span ``[t0, t1)``, split across the windows it
        overlaps (busy mode)."""
        if self.mode != "busy":
            raise ObsError(
                f"timeseries {self.name!r} is sample-mode; use observe"
            )
        self._pa.append(t0)
        self._pb.append(t1)
        if len(self._pa) >= PENDING_LIMIT:
            self._fold()

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
        self._pa.extend(ts)
        self._pb.extend(values)
        if len(self._pa) >= PENDING_LIMIT:
            self._fold()

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
        self._pa.extend(t0s)
        self._pb.extend(t1s)
        if len(self._pa) >= PENDING_LIMIT:
            self._fold()

    def _fold(self) -> None:
        """Replay the pending column into the windows.

        The result is what adding each sample (or span part) in order
        would leave, coalescing the moment a new window takes the series
        past ``capacity`` and carrying on at the doubled width: a cut
        span resumes at its old window's upper edge.
        """
        if not self._pa:
            return
        busy = self.mode == "busy"
        a = np.asarray(self._pa, dtype=np.float64)
        b = np.asarray(self._pb, dtype=np.float64)
        # Window indices must stay exact integers in float64.
        limit = self.window0 * 2.0 ** 52
        ok = (np.abs(a) < limit).all() and (
            (np.abs(b) < limit).all() if busy else not np.isnan(b).any()
        )
        if not ok:
            raise ObsError(
                f"timeseries {self.name!r}: non-finite or out-of-range "
                f"time (or NaN value) among {len(a)} pending samples"
            )
        self._pa, self._pb = [], []
        keys, vals = _arrays(self._points)
        cap, level = self.capacity, self._level
        w = self.window0 * (2.0 ** level)
        p, m = 0, _LOOKAHEAD
        while p < len(a):
            if busy:
                ks, vs, his, spans, taken = _span_parts(
                    a[p:p + m], b[p:p + m], w,
                    max(cap, len(keys)) + 1, m,
                )
            else:
                ks = np.floor_divide(a[p:p + m], w).astype(np.int64)
                vs = b[p:p + m]
                taken = len(ks)
            keys, vals, cut = _fold_block(keys, vals, ks, vs, cap)
            if cut < 0:
                p += taken
                m *= 2
                continue
            keys, vals = _coalesce(keys, vals)
            level += 1
            w = self.window0 * (2.0 ** level)
            m = max(_LOOKAHEAD_MIN, 2 * (cut + 1))
            if busy:
                p += int(spans[cut])
                a[p] = his[cut]
            else:
                p += cut + 1
        self._level = level
        self._points = dict(zip(keys.tolist(), vals.tolist()))

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
        self._fold()
        level = int(doc.get("level", 0))
        incoming = {
            int(k): [float(v[0]), float(v[1]), float(v[2]), float(v[3])]
            for k, v in (doc.get("points") or {}).items()
        }
        if not self._points:
            self._level = max(self._level, level)
        while self._level < level:
            self._points = _coalesced(self._points)
            self._level += 1
        while level < self._level:
            incoming = _coalesced(incoming)
            level += 1
        points = self._points
        for idx, (s, c, lo, hi) in incoming.items():
            slot = points.get(idx)
            if slot is None:
                points[idx] = [s, c, lo, hi]
            else:
                slot[0] += s
                slot[1] += c
                slot[2] = min(slot[2], lo)
                slot[3] = max(slot[3], hi)
        while len(points) > self.capacity:
            points = _coalesced(points)
            self._level += 1
        self._points = points

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        points = self.points
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "mode": self.mode,
            "window0": self.window0,
            "window": self.window,
            "level": self._level,
            "capacity": self.capacity,
            "norm": self.norm,
            "points": {str(idx): list(points[idx]) for idx in sorted(points)},
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

    __slots__ = ("name", "labels", "gamma", "_log_gamma", "_counts", "_zero",
                 "_sum", "_count", "_min", "_max", "_pending")
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
        self._counts: dict[int, int] = {}
        self._zero = 0
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._pending: list = []

    counts = _folded("_counts", "``{bucket index: count}`` of positive values.")
    zero = _folded("_zero", "Count of non-positive values.")
    sum = _folded("_sum", "Left-to-right sum of every value.")
    count = _folded("_count", "Number of values.")
    min = _folded("_min", "Smallest value (``inf`` while empty).")
    max = _folded("_max", "Largest value (``-inf`` while empty).")

    def observe(self, value: float) -> None:
        self._pending.append(value)
        if len(self._pending) >= PENDING_LIMIT:
            self._fold()

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a column of observations: exactly the state
        :meth:`observe` per element, in order, would leave."""
        self._pending.extend(values)
        if len(self._pending) >= PENDING_LIMIT:
            self._fold()

    def _fold(self) -> None:
        """Fold the pending values, exactly as one scalar update each.

        The sum is a sequential ``cumsum`` (never a pairwise reduction),
        and a bucket index whose ``log`` ratio lies within 1e-9 of an
        integer is recomputed with :func:`math.log`, since numpy's
        ``log`` may differ from libm's by an ulp.
        """
        if not self._pending:
            return
        v = np.asarray(self._pending, dtype=np.float64)
        if not np.isfinite(v).all():
            raise ObsError(
                f"digest {self.name!r}: non-finite value among "
                f"{len(v)} pending values"
            )
        self._pending = []
        self._sum = float(np.cumsum(np.concatenate(([self._sum], v)))[-1])
        self._count += len(v)
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        pos = v[v > 0.0]
        self._zero += len(v) - len(pos)
        if not len(pos):
            return
        ratio = np.log(pos) / self._log_gamma
        idx = np.ceil(ratio)
        near = np.abs(ratio - np.rint(ratio)) < 1e-9
        if near.any():
            edge, inverse = np.unique(pos[near], return_inverse=True)
            idx[near] = np.array([
                math.ceil(math.log(x) / self._log_gamma) for x in edge.tolist()
            ])[inverse]
        counts = self._counts
        keys, hits = np.unique(idx.astype(np.int64), return_counts=True)
        for k, c in zip(keys.tolist(), hits.tolist()):
            counts[k] = counts.get(k, 0) + c

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of everything observed so far."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"digest {self.name!r}: quantile {q} out of [0,1]")
        self._fold()
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        if rank <= self._zero:
            return min(0.0, self._max) if self._max < 0.0 else 0.0
        seen = self._zero
        for idx in sorted(self._counts):
            seen += self._counts[idx]
            if seen >= rank:
                return max(self._min, min(self.gamma ** idx, self._max))
        return self._max  # pragma: no cover - rank <= count always matches

    # -- merging -----------------------------------------------------------

    def merge_doc(self, doc: Mapping) -> None:
        """Fold a serialized digest (:meth:`as_dict` form) into this one."""
        if float(doc.get("gamma", self.gamma)) != self.gamma:
            raise ObsError(
                f"digest {self.name!r} gamma mismatch while merging: "
                f"{self.gamma} vs {doc.get('gamma')}"
            )
        self._fold()
        for k, c in (doc.get("buckets") or {}).items():
            idx = int(k)
            self._counts[idx] = self._counts.get(idx, 0) + int(c)
        self._zero += int(doc.get("zero", 0))
        self._sum += float(doc.get("sum", 0.0))
        n = int(doc.get("count", 0))
        self._count += n
        if n > 0:
            self._min = min(self._min, float(doc["min"]))
            self._max = max(self._max, float(doc["max"]))

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        self._fold()
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "gamma": self.gamma,
            "zero": self._zero,
            "buckets": {
                str(idx): self._counts[idx] for idx in sorted(self._counts)
            },
            "sum": self._sum,
            "count": self._count,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
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
