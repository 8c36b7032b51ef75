"""Bulk instrument paths vs their scalar twins.

The simulated engine buffers each instrument's samples into a column
and publishes it once per loop through ``observe_many`` /
``observe_spans``; the timeseries and digests only append it, and fold
the pending column with numpy when read. Byte-identity of the
observability snapshots depends on that fold landing exactly where a
per-sample replay would, so the replay itself is kept here
(:class:`ScalarSeries`, :class:`ScalarDigest`) as the reference every
fold is compared against with ``==``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ObsError
from repro.obs import timeseries
from repro.obs.merge import summarize_decisions
from repro.obs.registry import MetricsRegistry, label_key
from repro.obs.timeseries import QuantileDigest, TimeSeries

SEED = 20260808


def _hist_pair():
    reg = MetricsRegistry()
    bounds = (0.001, 0.01, 0.1, 1.0)
    return (
        reg.histogram("a", buckets=bounds),
        reg.histogram("b", buckets=bounds),
    )


class TestHistogramBulk:
    def test_matches_sequential_observe(self):
        rng = np.random.default_rng(SEED)
        values = rng.lognormal(mean=-4.0, sigma=2.0, size=500)
        bulk, scalar = _hist_pair()
        bulk.observe_many(values)
        for v in values:
            scalar.observe(float(v))
        assert bulk.counts == scalar.counts
        assert bulk.count == scalar.count
        # The cumsum chain reproduces left-to-right += rounding exactly.
        assert bulk.sum == scalar.sum

    def test_values_on_bucket_edges(self):
        # searchsorted side="left" must agree with bisect_left: a value
        # exactly equal to a bound lands in the bucket *at* that bound.
        bulk, scalar = _hist_pair()
        edges = [0.001, 0.01, 0.1, 1.0, 0.0, 2.0]
        bulk.observe_many(edges)
        for v in edges:
            scalar.observe(v)
        assert bulk.counts == scalar.counts

    def test_empty_column_is_a_noop(self):
        bulk, _ = _hist_pair()
        bulk.observe_many([])
        assert bulk.count == 0 and bulk.sum == 0.0


class ScalarSeries:
    """The per-sample replay a :class:`TimeSeries` fold must reproduce.

    One ``_add`` per sample (or span part), in call order; a new window
    that takes the series past ``capacity`` coalesces it once, right
    there, and the rest of the column (or span) lands at the doubled
    width.
    """

    def __init__(self, mode="sample", window=1.0, capacity=256, norm=1.0):
        self.mode = mode
        self.window0 = float(window)
        self.capacity = capacity
        self.norm = float(norm)
        self.level = 0
        self.points: dict[int, list[float]] = {}

    @property
    def window(self):
        return self.window0 * (2.0 ** self.level)

    def observe(self, t, value):
        self._add(int(t // self.window), float(value))

    def observe_span(self, t0, t1):
        cur = float(t0)
        end = float(t1)
        while cur < end:
            w = self.window
            i = int(cur // w)
            hi = (i + 1) * w
            part = min(end, hi) - cur
            if part > 0.0:
                self._add(i, part)
            cur = hi

    def _add(self, idx, value):
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

    def _coalesce(self):
        self.points = pairwise_fold(self.points)
        self.level += 1

    def as_dict(self):
        return {
            "name": "s", "labels": {}, "mode": self.mode,
            "window0": self.window0, "window": self.window,
            "level": self.level, "capacity": self.capacity,
            "norm": self.norm,
            "points": {
                str(idx): list(self.points[idx])
                for idx in sorted(self.points)
            },
        }


def pairwise_fold(points):
    """Windows ``2k`` and ``2k+1`` folded into ``k``, in dict order."""
    folded: dict[int, list[float]] = {}
    for idx, (s, c, lo, hi) in points.items():
        slot = folded.get(idx >> 1)
        if slot is None:
            folded[idx >> 1] = [s, c, lo, hi]
        else:
            slot[0] += s
            slot[1] += c
            slot[2] = min(slot[2], lo)
            slot[3] = max(slot[3], hi)
    return folded


class ScalarDigest:
    """The per-value update a :class:`QuantileDigest` fold must reproduce."""

    def __init__(self, gamma=timeseries.DEFAULT_GAMMA):
        self.gamma = gamma
        self.log_gamma = math.log(gamma)
        self.counts: dict[int, int] = {}
        self.zero = 0
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
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
        idx = math.ceil(math.log(value) / self.log_gamma)
        self.counts[idx] = self.counts.get(idx, 0) + 1

    def as_dict(self):
        return {
            "name": "d", "labels": {}, "gamma": self.gamma,
            "zero": self.zero,
            "buckets": {
                str(idx): self.counts[idx] for idx in sorted(self.counts)
            },
            "sum": self.sum, "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class TestDigestBulk:
    def test_matches_sequential_observe(self):
        rng = np.random.default_rng(SEED)
        values = np.concatenate([
            rng.lognormal(mean=-6.0, sigma=3.0, size=400),
            np.zeros(7),
            [-1e-9, 5.0],
        ])
        rng.shuffle(values)
        bulk = QuantileDigest("d", ())
        scalar = QuantileDigest("d", ())
        ref = ScalarDigest()
        bulk.observe_many(values)
        for v in values:
            scalar.observe(float(v))
            ref.observe(float(v))
        assert bulk.counts == scalar.counts == ref.counts
        assert bulk.zero == scalar.zero == ref.zero
        assert bulk.count == scalar.count == ref.count
        assert bulk.min == ref.min and bulk.max == ref.max
        assert bulk.sum == scalar.sum == ref.sum
        assert bulk.as_dict() == scalar.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("ulp", [0, -1, 1])
    def test_bucket_boundaries(self, rng, monkeypatch, ulp):
        # log(v)/log(gamma) lands on (or an ulp off) an integer at
        # gamma**k; numpy's log may disagree with libm's there (``ulp``
        # makes it do so), and the fold must still bucket exactly like
        # math.log does.
        if ulp:
            log = np.log
            toward = np.inf if ulp > 0 else -np.inf
            monkeypatch.setattr(
                np, "log", lambda x: np.nextafter(log(x), toward)
            )
        gamma = timeseries.DEFAULT_GAMMA
        edges = [gamma ** k for k in range(-400, 401, 7)]
        values = []
        for v in edges:
            values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        values += [0.0] * 5 + [-1.0, -gamma, -1e-300, 1.0, 5e-324]
        values = np.array(values)
        rng.shuffle(values)
        bulk, ref = QuantileDigest("d", ()), ScalarDigest()
        bulk.observe_many(values.tolist())
        for v in values:
            ref.observe(v)
        assert bulk.as_dict() == ref.as_dict()

    def test_integer_values_and_interleaved_reads(self, rng):
        bulk, ref = QuantileDigest("d", ()), ScalarDigest()
        for _ in range(30):
            column = rng.integers(-3, 2000, size=int(rng.integers(0, 50)))
            bulk.observe_many(column.tolist())
            bulk.observe(int(column.sum()))
            for v in column.tolist() + [int(column.sum())]:
                ref.observe(v)
            assert bulk.as_dict() == ref.as_dict()

    def test_folds_split_at_the_pending_bound(self, rng, monkeypatch):
        monkeypatch.setattr(timeseries, "PENDING_LIMIT", 7)
        values = rng.lognormal(mean=-3.0, sigma=2.0, size=500)
        bulk, ref = QuantileDigest("d", ()), ScalarDigest()
        for chunk in np.array_split(values, 40):
            bulk.observe_many(chunk)
            assert len(bulk._pending) < 7 + len(chunk)
        for v in values:
            ref.observe(v)
        assert bulk.as_dict() == ref.as_dict()


def _series(mode="sample", window=1.0, capacity=256, norm=1.0):
    return TimeSeries("s", (), mode=mode, window=window,
                      capacity=capacity, norm=norm)


class TestTimeSeriesBulk:
    @pytest.mark.parametrize("n", [5, 23, 24, 200])
    def test_observe_many_matches_scalar(self, n):
        rng = np.random.default_rng(SEED + n)
        ts = np.sort(rng.uniform(0.0, 40.0, size=n))
        vals = rng.uniform(0.0, 1.0, size=n)
        bulk, scalar = _series(), _series()
        bulk.observe_many(ts, vals)
        for t, v in zip(ts, vals):
            scalar.observe(float(t), float(v))
        assert bulk.as_dict() == scalar.as_dict()

    @pytest.mark.parametrize("n", [5, 23, 24, 200])
    def test_observe_spans_matches_scalar(self, n):
        rng = np.random.default_rng(SEED + n)
        t0 = np.sort(rng.uniform(0.0, 40.0, size=n))
        t1 = t0 + rng.uniform(0.0, 3.0, size=n)
        bulk = _series(mode="busy", norm=4.0)
        scalar = _series(mode="busy", norm=4.0)
        bulk.observe_spans(t0, t1)
        for a, b in zip(t0, t1):
            scalar.observe_span(float(a), float(b))
        assert bulk.as_dict() == scalar.as_dict()

    @pytest.mark.parametrize("mode", ["sample", "busy"])
    def test_coalescing_mid_column_matches_scalar(self, mode):
        # A capacity of 4 forces several coalesces inside one column;
        # the fold must re-read the window after each, like the replay.
        rng = np.random.default_rng(SEED)
        t0 = np.sort(rng.uniform(0.0, 40.0, size=300))
        t1 = t0 + rng.uniform(0.0, 3.0, size=300)
        bulk = _series(mode=mode, capacity=4, norm=2.0)
        ref = ScalarSeries(mode=mode, capacity=4, norm=2.0)
        if mode == "sample":
            bulk.observe_many(t0.tolist(), t1.tolist())
            for t, v in zip(t0, t1):
                ref.observe(t, v)
        else:
            bulk.observe_spans(t0.tolist(), t1.tolist())
            for a, b in zip(t0, t1):
                ref.observe_span(a, b)
        assert bulk.level > 0
        assert bulk.as_dict() == ref.as_dict()

    def test_zero_length_spans_are_dropped(self):
        bulk = _series(mode="busy")
        bulk.observe_spans([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert bulk.points == {}

    def test_mode_mismatch_raises(self):
        with pytest.raises(ObsError, match="busy-mode"):
            _series(mode="busy").observe_many([1.0], [1.0])
        with pytest.raises(ObsError, match="sample-mode"):
            _series().observe_spans([0.0], [1.0])

    def test_ragged_columns_raise(self):
        with pytest.raises(ObsError, match="observe_many"):
            _series().observe_many([1.0, 2.0], [1.0])
        with pytest.raises(ObsError, match="observe_spans"):
            _series(mode="busy").observe_spans([1.0], [])


def _times(rng, n):
    """Mostly increasing times with duplicates, a few negative ones and
    rare far jumps (sparse windows)."""
    steps = rng.exponential(0.3, size=n)
    steps[rng.random(n) < 0.15] = 0.0  # duplicate times
    jumps = rng.random(n) < 0.02
    steps[jumps] = rng.uniform(50.0, 5000.0, size=int(jumps.sum()))
    return (np.cumsum(steps) - 3.0).tolist()


def _ops(rng, mode, n_ops):
    """A random interleaving of scalar calls, bulk calls and reads."""
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(["scalar", "bulk", "read"], p=[0.3, 0.6, 0.1])
        if kind == "read":
            ops.append(("read",))
            continue
        n = 1 if kind == "scalar" else int(rng.integers(0, 60))
        a = _times(rng, n)
        if mode == "busy":
            length = rng.exponential(2.0, size=n)
            length[rng.random(n) < 0.1] = 0.0  # zero-length
            length[rng.random(n) < 0.1] *= -1.0  # reversed
            length[rng.random(n) < 0.05] *= 100.0  # many windows
            b = (np.array(a) + length).tolist()
        elif rng.random() < 0.3:
            b = rng.integers(-5, 100, size=n).tolist()  # integer values
        else:
            b = rng.normal(1.0, 2.0, size=n).tolist()
        ops.append((kind, a, b))
    return ops


def _apply(ops, mode, bulk, ref):
    observe = "observe" if mode == "sample" else "observe_span"
    observe_many = "observe_many" if mode == "sample" else "observe_spans"
    for op in ops:
        if op[0] == "read":
            bulk.as_dict()
            continue
        _, a, b = op
        if op[0] == "scalar":
            getattr(bulk, observe)(a[0], b[0])
        else:
            getattr(bulk, observe_many)(a, b)
        for x, y in zip(a, b):
            getattr(ref, observe)(x, y)


class TestFoldMatchesReplay:
    """Property tests: random call sequences through the fold and through
    the per-sample replay leave equal snapshots."""

    @pytest.mark.parametrize("capacity", [2, 3, 4, 256])
    @pytest.mark.parametrize("mode", ["sample", "busy"])
    def test_random_interleavings(self, rng, mode, capacity):
        for _ in range(4):
            bulk = _series(mode=mode, capacity=capacity, norm=2.0)
            ref = ScalarSeries(mode=mode, capacity=capacity, norm=2.0)
            _apply(_ops(rng, mode, 25), mode, bulk, ref)
            assert bulk.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("capacity", [2, 3, 4, 256])
    def test_coalescing_mid_span(self, rng, capacity):
        # Spans many windows long at the base width: each one coalesces
        # the series part-way through and resumes at the doubled width.
        t0 = np.sort(rng.uniform(0.0, 1000.0, size=40))
        t1 = t0 + rng.uniform(0.0, 600.0, size=40)
        bulk = _series(mode="busy", window=2.0 ** -6, capacity=capacity)
        ref = ScalarSeries(mode="busy", window=2.0 ** -6, capacity=capacity)
        bulk.observe_spans(t0.tolist(), t1.tolist())
        for a, b in zip(t0.tolist(), t1.tolist()):
            ref.observe_span(a, b)
        assert bulk.level >= 5
        assert bulk.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("mode", ["sample", "busy"])
    def test_sparse_keys_stay_over_capacity(self, mode):
        # Windows far apart survive a coalesce unmerged, so the series
        # stays over capacity and every further new window coalesces
        # again.
        times = [0.0, 1.0e6, 3.0e6, 5.0e6, 7.0e6, 2.5, 9.0e6, 4.0, 1.1e6]
        ends = [t + 0.5 for t in times]
        bulk = _series(mode=mode, capacity=2)
        ref = ScalarSeries(mode=mode, capacity=2)
        _apply([("bulk", times, ends)], mode, bulk, ref)
        assert len(bulk.points) > bulk.capacity
        assert bulk.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("capacity", [3, 256])
    @pytest.mark.parametrize("mode", ["sample", "busy"])
    def test_folds_split_at_the_pending_bound(
        self, rng, monkeypatch, mode, capacity
    ):
        monkeypatch.setattr(timeseries, "PENDING_LIMIT", 5)
        bulk = _series(mode=mode, capacity=capacity)
        ref = ScalarSeries(mode=mode, capacity=capacity)
        _apply(_ops(rng, mode, 40), mode, bulk, ref)
        assert len(bulk._pa) < 5 + 60
        assert bulk.as_dict() == ref.as_dict()

    def test_the_lookahead_gallops_past_its_first_block(self, rng):
        n = 3 * timeseries._LOOKAHEAD + 17
        ts = np.sort(rng.uniform(0.0, 300.0, size=n)).tolist()
        vs = rng.normal(size=n).tolist()
        bulk, ref = _series(capacity=64), ScalarSeries(capacity=64)
        bulk.observe_many(ts, vs)
        for t, v in zip(ts, vs):
            ref.observe(t, v)
        assert bulk.as_dict() == ref.as_dict()


class TestNonFinite:
    """A non-finite time (or digest value) fails the fold that reads it,
    naming the instrument; the instrument stays unreadable."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_series_time(self, bad):
        ts = _series()
        ts.observe(1.0, 2.0)
        ts.observe_many([2.0, bad], [1.0, 1.0])
        with pytest.raises(ObsError, match="timeseries 's'.*non-finite"):
            ts.as_dict()
        with pytest.raises(ObsError):
            ts.points

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_span_end(self, bad):
        ts = _series(mode="busy")
        ts.observe_span(0.0, bad)
        with pytest.raises(ObsError, match="timeseries 's'"):
            ts.as_dict()

    def test_sample_value_nan(self):
        ts = _series()
        ts.observe(0.0, math.nan)
        with pytest.raises(ObsError, match="NaN value"):
            ts.as_dict()

    def test_time_beyond_exact_window_indices(self):
        ts = _series()
        ts.observe(1e300, 1.0)
        with pytest.raises(ObsError, match="out-of-range"):
            ts.level

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_digest_value(self, bad):
        dg = QuantileDigest("lat", ())
        dg.observe_many([1.0, bad])
        with pytest.raises(ObsError, match="digest 'lat'.*non-finite"):
            dg.quantile(0.5)
        with pytest.raises(ObsError):
            dg.as_dict()

    def test_surfaces_at_the_append_that_reaches_the_bound(self, monkeypatch):
        monkeypatch.setattr(timeseries, "PENDING_LIMIT", 3)
        dg = QuantileDigest("lat", ())
        dg.observe(math.nan)
        dg.observe(1.0)
        with pytest.raises(ObsError, match="digest 'lat'"):
            dg.observe(2.0)


class TestCoalesceBulk:
    """The one coalesce (``_coalesce``) against its first-principles
    definition: windows ``2k`` and ``2k+1`` fold into ``k``."""

    @staticmethod
    def _points(rng, n_points):
        return {
            int(i): [
                float(rng.uniform(0, 10)), float(rng.integers(1, 5)),
                float(rng.uniform(0, 1)), float(rng.uniform(1, 2)),
            ]
            for i in rng.choice(np.arange(-2500, 2500), size=n_points,
                                replace=False)
        }

    @pytest.mark.parametrize("n_points", [1, 2, 40, 100])
    def test_bulk_fold_matches_sequential_fold(self, rng, n_points):
        points = self._points(rng, n_points)
        keys, vals = timeseries._coalesce(*timeseries._arrays(points))
        assert dict(zip(keys.tolist(), vals.tolist())) == pairwise_fold(points)

    @pytest.mark.parametrize("n_points", [3, 40, 100])
    def test_merging_a_finer_doc(self, rng, n_points):
        # The finer side is coalesced up to the coarser width, then the
        # two add pointwise.
        fine, coarse = self._points(rng, n_points), self._points(rng, 30)
        ts = _series(capacity=1 << 20)
        ts.merge_doc({"mode": "sample", "level": 1, "points": coarse})
        ts.merge_doc({"mode": "sample", "level": 0, "points": fine})
        expected = {k: list(v) for k, v in coarse.items()}
        for k, (s, c, lo, hi) in pairwise_fold(fine).items():
            slot = expected.get(k)
            if slot is None:
                expected[k] = [s, c, lo, hi]
            else:
                expected[k] = [slot[0] + s, slot[1] + c,
                               min(slot[2], lo), max(slot[3], hi)]
        assert ts.level == 1
        assert ts.points == expected

    def test_merge_into_empty_sets_the_level(self, rng):
        points = self._points(rng, 50)
        ts = _series(capacity=64)
        ts.merge_doc({"mode": "sample", "level": 12, "points": points})
        assert ts.level == 12
        assert ts.points == points

    def test_merge_past_capacity_coalesces_until_it_fits(self, rng):
        points = self._points(rng, 100)
        ts = _series(capacity=8)
        ts.merge_doc({"mode": "sample", "level": 0, "points": points})
        expected, level = points, 0
        while len(expected) > 8:
            expected, level = pairwise_fold(expected), level + 1
        assert (ts.level, ts.points) == (level, expected)

    def test_repeated_coalesce_reaches_capacity(self):
        ts = _series(capacity=4)
        for i in range(200):
            ts.observe(float(i), 1.0)
        assert len(ts.points) <= 4
        assert math.isclose(
            sum(s for s, _, _, _ in ts.points.values()), 200.0
        )

def _records(n=60):
    out = []
    for i in range(n):
        out.append({
            "scheduler": f"aid_{i % 3}",
            "event": ("dispatch", "adapt")[i % 2],
            "loop": f"loop{i % 4}",
            "payload": {"mean": i * 0.5},
        })
    return out


class TestSummarizeDecisionsPaths:
    def test_fast_path_equals_slow_path(self):
        complete = _records()
        fast = summarize_decisions(complete)
        # Forcing the slow path: drop a key from ONE record so the
        # comprehension raises, then restore semantics with the same
        # value via .get's default handling — instead, compare against
        # records where one has an extra missing field replaced by the
        # literal the slow path would synthesize.
        degraded = [dict(r) for r in complete]
        degraded.append({"event": "dispatch"})  # missing scheduler/loop
        slow = summarize_decisions(degraded)
        assert slow["total"] == fast["total"] + 1
        assert slow["schedulers"]["?"]["total"] == 1
        # The shared portion of the two summaries agrees.
        for name, entry in fast["schedulers"].items():
            assert slow["schedulers"][name] == entry

    def test_non_string_keys_fall_back_and_coerce(self):
        records = [
            {"scheduler": 7, "event": "dispatch", "loop": 1},
            {"scheduler": 7, "event": "dispatch", "loop": 1},
        ]
        doc = summarize_decisions(records)
        assert doc["schedulers"]["7"]["total"] == 2
        assert doc["loops"]["1"] == 2

    def test_empty_log(self):
        assert summarize_decisions([]) == {
            "total": 0, "schedulers": {}, "loops": {},
        }


class TestLabelKey:
    def test_order_independent(self):
        assert label_key({"b": 1, "a": 2}) == label_key({"a": 2, "b": 1})

    def test_values_stringify(self):
        assert label_key({"n": 3}) == (("n", "3"),)
