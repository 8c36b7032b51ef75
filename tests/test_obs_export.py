"""Exporter tests: Chrome trace round-trip, snapshot determinism,
zero-perturbation of the null sink, and the report CLI."""

import json

import numpy as np
import pytest

from repro.amp.presets import dual_speed_platform
from repro.errors import ObsError
from repro.obs import Observability
from repro.obs.chrome_trace import export_chrome_trace, to_trace_events
from repro.obs.merge import job_snapshot, job_snapshot_json
from repro.obs.report import main as report_main
from repro.obs.snapshot import (
    SCHEMA,
    build_snapshot,
    completion_payload,
    load_snapshot,
    to_json,
    write_snapshot,
)
from repro.sched.aid_hybrid import AidHybridSpec
from repro.tracing.trace import Interval, ThreadState, Timeline, TraceRecorder

from tests.helpers import run_loop

PLATFORM = dual_speed_platform(2, 4, big_speedup=3.0)


def seeded_run(seed=13, n_iterations=400, obs=None, trace=None):
    rng = np.random.default_rng(seed)
    costs = rng.uniform(5e-5, 2e-4, n_iterations)
    return run_loop(
        PLATFORM,
        AidHybridSpec(),
        n_iterations=n_iterations,
        costs=costs,
        obs=obs,
        trace=trace,
    )


# -- Chrome trace -----------------------------------------------------------


class TestChromeTrace:
    def test_round_trip_parses_and_has_complete_events(self):
        obs = Observability()
        tr = TraceRecorder()
        seeded_run(obs=obs, trace=tr)
        text = export_chrome_trace(tr, decisions=obs.decisions.records)
        doc = json.loads(text)  # byte-for-byte valid JSON
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert xs and metas and instants
        for e in xs:
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert e["pid"] == 1
        # Complete events are time-sorted, as the viewers expect.
        assert [e["ts"] for e in xs] == sorted(e["ts"] for e in xs)

    def test_decision_instants_carry_args(self):
        obs = Observability()
        tr = TraceRecorder()
        seeded_run(obs=obs, trace=tr)
        events = to_trace_events(tr, decisions=obs.decisions.records)
        pubs = [
            e for e in events
            if e["ph"] == "i" and e["name"].endswith("publish_targets")
        ]
        assert len(pubs) == 1
        assert pubs[0]["cat"] == "decision"
        assert "sf" in pubs[0]["args"]
        assert "t" not in pubs[0]["args"]  # core fields not duplicated

    def test_trace_times_are_microseconds(self):
        tr = TraceRecorder()
        tr.record(0, ThreadState.COMPUTE, 0.5, 1.0)
        (event,) = [
            e for e in to_trace_events(tr) if e["ph"] == "X"
        ]
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.5e6)

    def test_export_accepts_timeline_too(self):
        tr = TraceRecorder()
        tr.record(0, ThreadState.COMPUTE, 0.0, 1.0)
        assert json.loads(export_chrome_trace(tr.timeline())) == json.loads(
            export_chrome_trace(tr)
        )


class TestChromeTraceCounterLanes:
    def test_output_byte_unchanged_without_timeseries(self):
        # Satellite regression gate: adding the counter-lane feature
        # must not move a single byte of the duration-event output when
        # no timeseries is passed (the default).
        obs = Observability()
        tr = TraceRecorder()
        seeded_run(obs=obs, trace=tr)
        legacy = export_chrome_trace(tr, decisions=obs.decisions.records)
        explicit = export_chrome_trace(
            tr, decisions=obs.decisions.records, timeseries=()
        )
        assert legacy == explicit
        assert '"ph":"C"' not in legacy

    def test_busy_series_becomes_a_utilization_counter_lane(self):
        from repro.obs.timeseries import TimeSeries

        tr = TraceRecorder()
        tr.record(0, ThreadState.COMPUTE, 0.0, 2.0)
        ts = TimeSeries(
            "core_utilization", (("core_type", "big"),), mode="busy",
            window=1.0, norm=2.0,
        )
        ts.observe_span(0.0, 1.5)
        events = to_trace_events(tr, timeseries=[ts])
        lanes = [e for e in events if e["ph"] == "C"]
        assert len(lanes) == 2
        assert all(e["cat"] == "timeseries" for e in lanes)
        assert lanes[0]["name"] == "core_utilization{core_type=big}"
        assert lanes[0]["ts"] == pytest.approx(0.0)
        assert lanes[0]["args"]["value"] == pytest.approx(0.5)  # 1s of 2
        assert lanes[1]["ts"] == pytest.approx(1e6)
        assert lanes[1]["args"]["value"] == pytest.approx(0.25)

    def test_serialized_docs_work_like_live_instruments(self):
        from repro.obs.timeseries import TimeSeries

        tr = TraceRecorder()
        tr.record(0, ThreadState.COMPUTE, 0.0, 1.0)
        ts = TimeSeries("rate", (), mode="sample", window=1.0)
        ts.observe(0.5, 4.0)
        live = to_trace_events(tr, timeseries=[ts])
        doc = json.loads(json.dumps(ts.as_dict()))
        serialized = to_trace_events(tr, timeseries=[doc])
        assert live == serialized
        (lane,) = [e for e in live if e["ph"] == "C"]
        assert lane["args"]["value"] == pytest.approx(4.0)  # in-window mean

    def test_instrumented_run_exports_counter_lanes(self):
        obs = Observability()
        tr = TraceRecorder()
        seeded_run(obs=obs, trace=tr)
        snap = obs.registry.snapshot()
        events = to_trace_events(tr, timeseries=snap["timeseries"])
        lanes = {e["name"] for e in events if e["ph"] == "C"}
        assert any(n.startswith("core_utilization") for n in lanes)


class TestChromeTraceEdgeCases:
    """Degenerate inputs must still export valid, viewer-loadable JSON."""

    @staticmethod
    def assert_non_overlapping(events):
        """Per tid, complete events must not overlap in (ts, ts+dur)."""
        by_tid: dict[int, list] = {}
        for e in events:
            if e["ph"] == "X":
                by_tid.setdefault(e["tid"], []).append(e)
        for tid, evs in by_tid.items():
            evs.sort(key=lambda e: e["ts"])
            for a, b in zip(evs, evs[1:]):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-6, (
                    f"tid {tid}: events overlap"
                )

    def test_empty_timeline_exports_valid_json(self):
        doc = json.loads(export_chrome_trace(Timeline()))
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["M"]  # just process_name
        assert events[0]["args"] == {"name": "repro"}
        assert not [e for e in events if e["ph"] in ("X", "i")]

    def test_single_thread_timeline(self):
        tl = Timeline(intervals=[
            Interval(0, ThreadState.SERIAL, 0.0, 0.5),
            Interval(0, ThreadState.COMPUTE, 0.5, 2.0),
            Interval(0, ThreadState.BARRIER, 2.0, 2.25),
        ])
        doc = json.loads(export_chrome_trace(tl))
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        assert {e["tid"] for e in xs} == {0}
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "worker-0" in names
        self.assert_non_overlapping(events)

    def test_decisions_only_export(self):
        decisions = [
            {"seq": 0, "t": 0.0, "tid": -1, "loop": "L",
             "scheduler": "aid_static", "event": "publish_targets",
             "sf": {"0": 1.0, "1": 1.7}},
            {"seq": 1, "t": 0.002, "tid": 3, "loop": "L",
             "scheduler": "aid_static", "event": "aid_allotment"},
        ]
        doc = json.loads(export_chrome_trace(Timeline(), decisions=decisions))
        events = doc["traceEvents"]
        assert not [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 2
        # Pre-thread decisions (tid -1) are pinned to track 0.
        assert instants[0]["tid"] == 0
        assert instants[0]["name"] == "aid_static:publish_targets"
        assert instants[1]["tid"] == 3

    def test_real_run_timeline_has_no_overlaps_per_tid(self):
        obs = Observability()
        tr = TraceRecorder()
        seeded_run(obs=obs, trace=tr)
        events = to_trace_events(tr, decisions=obs.decisions.records)
        self.assert_non_overlapping(events)


# -- snapshots ---------------------------------------------------------------


class TestSnapshot:
    def test_write_and_load_round_trip(self, tmp_path):
        obs = Observability()
        seeded_run(obs=obs)
        path = tmp_path / "metrics.json"
        text = write_snapshot(path, obs, meta={"note": "test"})
        doc = load_snapshot(path)
        assert doc["schema"] == SCHEMA
        assert doc["meta"] == {"note": "test"}
        assert to_json(doc) == text
        assert doc["metrics"]["counters"]
        assert doc["decisions"] == obs.decisions.records
        # The file form is pinned: sorted keys, no whitespace, one final
        # newline — and the per-job encoder is the same encoder.
        nested = {"b": [1, 2.5, {"z": None, "a": "x y"}], "a": {"c": True}}
        assert to_json(nested) == (
            '{"a":{"c":true},"b":[1,2.5,{"a":"x y","z":null}]}\n'
        )
        assert to_json(job_snapshot(obs)) == job_snapshot_json(obs) + "\n"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ObsError, match="snapshot"):
            load_snapshot(path)

    def test_two_identical_seeded_runs_snapshot_identically(self):
        texts = []
        for _ in range(2):
            obs = Observability()
            seeded_run(seed=29, obs=obs)
            texts.append(to_json(build_snapshot(obs, meta={"seed": 29})))
        assert texts[0] == texts[1]  # byte-identical

    def test_different_seeds_snapshot_differently(self):
        texts = []
        for seed in (29, 31):
            obs = Observability()
            seeded_run(seed=seed, obs=obs)
            texts.append(to_json(build_snapshot(obs)))
        assert texts[0] != texts[1]

    def test_completion_payload_matches_stats(self):
        from repro.metrics.stats import normalized_performance

        row = completion_payload("dynamic(BS)", "Platform A", 0.5, 1.0)
        assert row["normalized_performance"] == normalized_performance(1.0, 0.5)
        assert row["scheme"] == "dynamic(BS)"
        assert row["completion_time"] == 0.5


# -- null sink perturbs nothing ---------------------------------------------


class TestNullSinkNeutrality:
    def test_instrumented_run_matches_uninstrumented_bitwise(self):
        plain = seeded_run(seed=17)
        observed = seeded_run(seed=17, obs=Observability())
        disabled = seeded_run(seed=17, obs=Observability.disabled())
        for other in (observed, disabled):
            assert other.finish_times == plain.finish_times  # exact floats
            assert other.iterations == plain.iterations
            assert other.ranges == plain.ranges


# -- report CLI --------------------------------------------------------------


class TestReportCli:
    def test_report_smoke(self, tmp_path, capsys):
        obs = Observability()
        seeded_run(obs=obs)
        path = tmp_path / "metrics.json"
        write_snapshot(path, obs, meta={"scheme": "aid_hybrid,80"})
        assert report_main([str(path), "--threads"]) == 0
        out = capsys.readouterr().out
        assert "test.loop400" in out
        assert "tid" in out
        assert "SF convergence" in out

    def test_report_loop_filter(self, tmp_path, capsys):
        obs = Observability()
        seeded_run(obs=obs)
        path = tmp_path / "metrics.json"
        write_snapshot(path, obs)
        assert report_main([str(path), "--loop", "test.loop400"]) == 0
        assert "test.loop400" in capsys.readouterr().out

    def test_empty_snapshot_prints_null_obs_hint(self, tmp_path, capsys):
        # An Observability that observed nothing — the signature of a
        # run that accidentally used NULL_OBS.
        path = tmp_path / "empty.json"
        write_snapshot(path, Observability(), meta={"program": "EP"})
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "no metrics recorded (was NULL_OBS used?)" in out
        assert "hint:" in out
