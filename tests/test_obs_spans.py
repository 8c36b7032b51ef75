"""Causal span tracing: recorder invariants, backend byte-identity,
fleet propagation (jobs=1 ≡ jobs=N ≡ warm cache), nesting properties on
fuzz-style cases, and the Chrome-trace span/flow export."""

import json

import pytest

from repro.amp.presets import odroid_xu4
from repro.check.generators import FuzzCase, case_costs, case_rng
from repro.experiments.harness import default_configs, grid_specs
from repro.faults.model import FaultPlan, ThrottleEvent
from repro.fleet import FleetConfig, FleetProgress, ResultCache, run_jobs
from repro.obs import Observability, SpanRecorder, comparable_snapshot
from repro.obs.chrome_trace import export_chrome_trace, to_trace_events
from repro.obs.snapshot import build_snapshot
from repro.obs.spans import (
    SPANS_SCHEMA,
    TILING_CATS,
    load_span_doc,
    span_violations,
)
from repro.runtime.env import OmpEnv
from repro.runtime.program_runner import ProgramRunner
from repro.sched.registry import parse_schedule
from repro.tracing.trace import TraceRecorder
from repro.workloads.registry import get_program

from .helpers import preset_platform, run_loop

SCHEDULES = (
    "static", "dynamic,8", "guided", "aid_static", "aid_hybrid",
    "aid_dynamic", "aid_auto", "aid_steal",
)


def traced_run(schedule: str, platform: str = "odroid_xu4", **kw):
    """One run_loop with span recording on; returns (result, doc, obs)."""
    obs = Observability(spans=SpanRecorder(context="test"))
    result = run_loop(
        preset_platform(platform), parse_schedule(schedule), obs=obs, **kw
    )
    return result, obs.spans.as_doc(), obs


class TestSpanDocument:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_schedule_produces_a_valid_span_tree(self, schedule):
        _, doc, _ = traced_run(schedule)
        assert doc["schema"] == SPANS_SCHEMA
        assert doc["spans"], "no spans recorded"
        assert span_violations(doc) == []

    def test_spans_do_not_perturb_the_simulation(self):
        plain = run_loop(preset_platform("odroid_xu4"),
                         parse_schedule("aid_hybrid"))
        traced, _, _ = traced_run("aid_hybrid")
        assert traced.duration == plain.duration
        assert traced.ranges == plain.ranges

    def test_document_is_deterministic(self):
        _, doc_a, _ = traced_run("aid_dynamic")
        _, doc_b, _ = traced_run("aid_dynamic")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )

    @pytest.mark.parametrize(
        "schedule", ("static", "dynamic,4", "aid_hybrid", "aid_auto")
    )
    def test_backends_serialize_byte_identical_documents(self, schedule):
        # A trace recorder forces the engine's heap path; dynamic would
        # otherwise run the closed-form drain. Both emit one document.
        from repro.tracing.trace import TraceRecorder

        _, ref, _ = traced_run(schedule)
        _, vec, _ = traced_run(schedule, trace=TraceRecorder())
        assert json.dumps(ref, sort_keys=True) == json.dumps(
            vec, sort_keys=True
        )

    def test_steal_edges_materialized(self):
        # A steep ramp defeats the SF-proportional partition, so the
        # early finishers must steal from the loaded victims.
        case = FuzzCase(seed=9, schedule="aid_steal", platform="odroid_xu4",
                        n_iterations=1024, cost=("ramp", 1e-4, 8.0))
        obs = Observability(spans=SpanRecorder())
        run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), obs=obs,
        )
        doc = obs.spans.as_doc()
        kinds = {e["kind"] for e in doc["edges"]}
        assert "steal" in kinds
        # Steal endpoints are thread-scoped paths (victim thread ->
        # thief thread): each must prefix at least one concrete span id.
        ids = {s["id"] for s in doc["spans"]}
        for e in doc["edges"]:
            for end in (e["src"], e["dst"]):
                assert end in ids or any(
                    sid.startswith(end + "/") for sid in ids
                ), end

    def test_fault_windows_and_resample_edge(self):
        platform = preset_platform("odroid_xu4")
        baseline = run_loop(
            platform, parse_schedule("aid_auto"), n_iterations=2048,
            work=1e-5,
        )
        big = platform.cores_of_type(platform.core_types[-1])
        plan = FaultPlan(tuple(
            ThrottleEvent(cpu=c.cpu_id, t0=0.3 * baseline.duration,
                          t1=10.0, factor=0.25)
            for c in big
        ))
        obs = Observability(spans=SpanRecorder())
        run_loop(
            platform, parse_schedule("aid_auto"), n_iterations=2048,
            work=1e-5, obs=obs, faults=plan,
        )
        doc = obs.spans.as_doc()
        assert span_violations(doc) == []
        cats = {s["cat"] for s in doc["spans"]}
        assert "fault" in cats
        assert any(e["kind"] == "fault_resample" for e in doc["edges"])

    def test_program_runner_emits_program_and_serial_spans(self):
        obs = Observability(spans=SpanRecorder())
        runner = ProgramRunner(
            odroid_xu4(), OmpEnv(schedule="aid_hybrid"), obs=obs
        )
        result = runner.run(get_program("EP"))
        doc = obs.spans.as_doc()
        assert span_violations(doc) == []
        cats = {s["cat"] for s in doc["spans"]}
        assert "program" in cats and "loop" in cats
        program = next(s for s in doc["spans"] if s["cat"] == "program")
        assert program["t1"] == pytest.approx(
            result.completion_time, rel=0, abs=1e-12
        )


class TestNestingProperties:
    """Satellite: chunk spans nest inside phase/loop spans on fuzz cases."""

    CASES = [
        FuzzCase(seed=s, schedule=sched, platform=plat,
                 n_iterations=ni, cost=cost)
        for s, sched, plat, ni, cost in (
            (1, "aid_hybrid", "odroid_xu4", 384, ("jittered", 1e-4, 0.3, 0.1)),
            (2, "aid_dynamic,1,5", "xeon_emulated", 512, ("ramp", 1e-4, 3.0)),
            (3, "aid_auto", "odroid_xu4", 256, ("bimodal", 1e-4, 5.0, 0.2)),
            (4, "aid_steal,8", "xeon_emulated", 640, ("lognormal", 1e-4, 0.6)),
            (5, "guided,4", "odroid_xu4", 300, ("uniform", 1e-4)),
        )
    ]

    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: f"seed{c.seed}-{c.schedule}"
    )
    def test_chunks_nest_inside_phase_and_loop(self, case):
        obs = Observability(spans=SpanRecorder())
        run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), rng=case_rng(case), obs=obs,
        )
        doc = obs.spans.as_doc()
        assert span_violations(doc) == []
        spans = {s.span_id: s for s in load_span_doc(doc)}
        loops = [s for s in spans.values() if s.cat == "loop"]
        assert loops
        eps = 1e-12
        checked = 0
        for s in spans.values():
            if not s.span_id.rpartition("/")[2].startswith("c"):
                continue
            if s.cat not in ("compute-big", "compute-small"):
                continue
            checked += 1
            # Walk up: every chunk has an ancestor chain ending at a
            # loop span, and nests inside each ancestor's interval.
            cur, seen_loop = s, False
            while cur.parent:
                parent = spans[cur.parent]
                assert parent.t0 <= s.t0 + eps and s.t1 <= parent.t1 + eps, (
                    f"{s.span_id} escapes {parent.span_id}"
                )
                seen_loop = seen_loop or parent.cat == "loop"
                cur = parent
            assert seen_loop, f"{s.span_id} has no loop ancestor"
        assert checked > 0, "no chunk spans found"

    @pytest.mark.parametrize(
        "case", CASES[:3], ids=lambda c: f"seed{c.seed}-{c.schedule}"
    )
    def test_tiling_spans_carry_known_categories(self, case):
        obs = Observability(spans=SpanRecorder())
        run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), rng=case_rng(case), obs=obs,
        )
        cats = {s.cat for s in load_span_doc(obs.spans.as_doc())}
        structural = {"program", "loop", "phase", "fault", "worker"}
        assert cats - structural <= TILING_CATS


class TestFleetPropagation:
    """Satellite: span-bearing merged snapshots are byte-identical for
    jobs=1, jobs=4 and warm-cache replays."""

    @pytest.fixture()
    def traced_specs(self):
        return grid_specs(
            odroid_xu4(),
            [get_program("EP"), get_program("IS")],
            default_configs()[:2],
            trace_context="fleet-test",
        )

    @staticmethod
    def comparable(progress, strip_cache=False):
        doc = comparable_snapshot(progress.obs_snapshot())
        if strip_cache:
            strip = {
                "fleet_cache_hits", "fleet_cache_misses",
                "fleet_jobs_computed", "fleet_heartbeats_total",
            }
            doc["metrics"]["counters"] = [
                c for c in doc["metrics"]["counters"]
                if c["name"] not in strip
            ]
        return json.dumps(doc, sort_keys=True)

    def test_jobs1_and_jobs4_merge_identical_span_sections(
        self, traced_specs
    ):
        inline, pooled = FleetProgress(), FleetProgress()
        run_jobs(traced_specs, FleetConfig(jobs=1), progress=inline)
        run_jobs(traced_specs, FleetConfig(jobs=4), progress=pooled)
        snap = inline.obs_snapshot()
        assert len(snap["spans"]) == len(traced_specs)
        for entry in snap["spans"]:
            assert set(entry["labels"]) == {"program", "config", "platform"}
            assert span_violations(entry["doc"]) == []
        assert self.comparable(inline) == self.comparable(pooled)

    def test_warm_cache_replays_identical_span_sections(
        self, traced_specs, tmp_path
    ):
        cache = ResultCache(tmp_path)
        cold, warm = FleetProgress(), FleetProgress()
        run_jobs(traced_specs, FleetConfig(jobs=2), cache=cache,
                 progress=cold)
        run_jobs(traced_specs, FleetConfig(jobs=2), cache=cache,
                 progress=warm)
        assert warm.count("fleet_cache_hits") == len(traced_specs)
        assert self.comparable(cold, strip_cache=True) == self.comparable(
            warm, strip_cache=True
        )

    def test_no_trace_context_means_no_span_section(self):
        specs = grid_specs(
            odroid_xu4(), [get_program("EP")], default_configs()[:1]
        )
        progress = FleetProgress()
        run_jobs(specs, FleetConfig(jobs=1), progress=progress)
        assert "spans" not in progress.obs_snapshot()


class TestSnapshotCarriage:
    def test_snapshot_without_recorder_is_byte_unchanged(self):
        obs = Observability()
        run_loop(preset_platform("odroid_xu4"), parse_schedule("static"),
                 obs=obs)
        doc = build_snapshot(obs, meta={"k": "v"})
        assert "spans" not in doc

    def test_snapshot_with_recorder_carries_the_span_doc(self):
        _, span_doc, obs = traced_run("aid_hybrid")
        doc = build_snapshot(obs, meta={"k": "v"})
        assert doc["spans"] == span_doc


class TestChromeTraceExport:
    def recorded(self, schedule="aid_hybrid"):
        tr = TraceRecorder()
        obs = Observability(spans=SpanRecorder())
        run_loop(
            preset_platform("odroid_xu4"), parse_schedule(schedule),
            trace=tr, obs=obs,
        )
        return tr, obs.spans.as_doc()

    def test_no_spans_is_byte_identical_to_the_pre_span_exporter(self):
        tr, _ = self.recorded()
        assert export_chrome_trace(tr) == export_chrome_trace(
            tr, spans=(), edges=()
        )

    def test_spans_export_as_complete_events_with_categories(self):
        tr, doc = self.recorded()
        events = to_trace_events(tr, spans=doc["spans"], edges=doc["edges"])
        xs = [e for e in events if e.get("cat", "").startswith("span:")]
        assert len(xs) == len(doc["spans"])
        for e in xs:
            assert e["ph"] == "X" and e["dur"] >= 0.0
            assert e["args"]["id"]

    def test_causal_edges_export_as_flow_pairs(self):
        case = FuzzCase(seed=9, schedule="aid_steal", platform="odroid_xu4",
                        n_iterations=1024, cost=("ramp", 1e-4, 8.0))
        obs = Observability(spans=SpanRecorder())
        run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), obs=obs,
        )
        doc = obs.spans.as_doc()
        tr = TraceRecorder()
        events = to_trace_events(tr, spans=doc["spans"], edges=doc["edges"])
        starts = [e for e in events if e.get("ph") == "s"]
        ends = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(ends) == len(doc["edges"]) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        assert all(e["id"] > 0 for e in starts)
        assert all(e.get("bp") == "e" for e in ends)
