"""Bulk instrument paths vs their scalar twins.

The simulated engine buffers each instrument's samples into a column
and publishes it once per loop through ``observe_many`` /
``observe_spans``; byte-identity of its observability snapshots depends
on those folds landing exactly where per-element calls would. Each test
here feeds the same data down both paths and compares the resulting
instrument state exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

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
        bulk.observe_many(values)
        for v in values:
            scalar.observe(float(v))
        assert bulk.counts == scalar.counts
        assert bulk.zero == scalar.zero
        assert bulk.count == scalar.count
        assert bulk.min == scalar.min and bulk.max == scalar.max
        assert bulk.sum == scalar.sum
        assert bulk.as_dict() == scalar.as_dict()


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
        # the bulk path must re-read the window after each, like the
        # scalar path does.
        rng = np.random.default_rng(SEED)
        t0 = np.sort(rng.uniform(0.0, 40.0, size=300))
        t1 = t0 + rng.uniform(0.0, 3.0, size=300)
        bulk = _series(mode=mode, capacity=4, norm=2.0)
        scalar = _series(mode=mode, capacity=4, norm=2.0)
        if mode == "sample":
            bulk.observe_many(t0.tolist(), t1.tolist())
            for t, v in zip(t0, t1):
                scalar.observe(float(t), float(v))
        else:
            bulk.observe_spans(t0.tolist(), t1.tolist())
            for a, b in zip(t0, t1):
                scalar.observe_span(float(a), float(b))
        assert bulk.level > 0
        assert bulk.as_dict() == scalar.as_dict()

    def test_zero_length_spans_are_dropped(self):
        bulk = _series(mode="busy")
        bulk.observe_spans([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert bulk.points == {}

    def test_mode_mismatch_raises(self):
        from repro.errors import ObsError

        with pytest.raises(ObsError, match="busy-mode"):
            _series(mode="busy").observe_many([1.0], [1.0])
        with pytest.raises(ObsError, match="sample-mode"):
            _series().observe_spans([0.0], [1.0])

    def test_ragged_columns_raise(self):
        from repro.errors import ObsError

        with pytest.raises(ObsError, match="observe_many"):
            _series().observe_many([1.0, 2.0], [1.0])


class TestCoalesceBulk:
    @pytest.mark.parametrize("n_points", [40, 100])
    def test_bulk_fold_matches_sequential_fold(self, n_points):
        # n > 48 takes the numpy reduceat fold, n <= 48 the dict loop;
        # both must produce the same level-(k+1) windows. The expected
        # fold is recomputed here from first principles.
        rng = np.random.default_rng(SEED + n_points)
        ts = _series(capacity=1 << 20)
        for i in rng.choice(5000, size=n_points, replace=False):
            idx = int(i)
            ts.points[idx] = [
                float(rng.uniform(0, 10)), float(rng.integers(1, 5)),
                float(rng.uniform(0, 1)), float(rng.uniform(1, 2)),
            ]
        expected: dict[int, list[float]] = {}
        for idx, (s, c, lo, hi) in ts.points.items():
            slot = expected.get(idx >> 1)
            if slot is None:
                expected[idx >> 1] = [s, c, lo, hi]
            else:
                slot[0] += s
                slot[1] += c
                slot[2] = min(slot[2], lo)
                slot[3] = max(slot[3], hi)
        ts._coalesce()
        assert ts.level == 1
        assert set(ts.points) == set(expected)
        for k, slot in ts.points.items():
            assert slot == pytest.approx(expected[k], abs=0.0)

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
