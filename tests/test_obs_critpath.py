"""Critical-path extraction: exact attribution, sim-time reconciliation,
backend byte-identity on the grid, the timeline lane, and the diff
gate's critical-path regression class."""

import copy
import json

import pytest

from repro.amp.presets import odroid_xu4
from repro.check.generators import FuzzCase, case_costs
from repro.faults.model import FaultPlan, ThrottleEvent
from repro.obs import Observability, SpanRecorder, diff_snapshots
from repro.obs.critpath import (
    CRITPATH_SCHEMA,
    critpath_violations,
    extract_critical_path,
    format_critpath,
    ordering_edges,
    reconcile,
    span_category_totals,
)
from repro.obs.diff import DiffThresholds
from repro.obs.report import critpath_lane, timeline
from repro.obs.snapshot import build_snapshot
from repro.runtime.env import OmpEnv
from repro.runtime.program_runner import ProgramRunner
from repro.sched.registry import parse_schedule
from repro.workloads.registry import get_program

from .helpers import preset_platform, run_loop

SCHEDULES = (
    "static", "dynamic,8", "guided", "aid_static", "aid_hybrid",
    "aid_dynamic", "aid_auto", "aid_steal",
)


def traced_snapshot(schedule: str, platform: str = "odroid_xu4", **kw):
    """(snapshot with spans, LoopResult) for one traced run_loop."""
    obs = Observability(spans=SpanRecorder(context="test"))
    result = run_loop(
        preset_platform(platform), parse_schedule(schedule), obs=obs, **kw
    )
    return build_snapshot(obs, meta={"schedule": schedule}), result


class TestExtraction:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_attribution_sums_to_the_makespan(self, schedule):
        snap, result = traced_snapshot(schedule)
        cp = extract_critical_path(snap["spans"])
        assert cp["schema"] == CRITPATH_SCHEMA
        total = sum(cp["attribution"].values())
        assert abs(total - cp["makespan"]) <= 1e-9 * max(1.0, cp["makespan"])
        # The path ends at loop completion.
        assert cp["t1"] == pytest.approx(result.duration, rel=0, abs=1e-12)
        assert critpath_violations(snap["spans"]) == []

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_reconciles_against_sim_time_counters(self, schedule):
        snap, _ = traced_snapshot(schedule)
        assert reconcile(snap["spans"], snap) == []

    def test_degenerate_serial_path_is_the_whole_run(self):
        snap, result = traced_snapshot("static", n_threads=1)
        cp = extract_critical_path(snap["spans"])
        # One thread: the critical path is the thread's entire tiling.
        assert cp["makespan"] == pytest.approx(
            result.duration, rel=0, abs=1e-12
        )
        assert critpath_violations(snap["spans"]) == []

    def test_empty_document_extracts_an_empty_path(self):
        cp = extract_critical_path(
            {"schema": "repro.obs.spans/v1", "spans": [], "edges": []}
        )
        assert cp["makespan"] == 0.0 and cp["steps"] == []

    def test_steps_are_contiguous_and_monotone(self):
        snap, _ = traced_snapshot("aid_hybrid")
        steps = extract_critical_path(snap["spans"])["steps"]
        assert steps
        for a, b in zip(steps, steps[1:]):
            assert b["t0"] == pytest.approx(a["t1"], abs=1e-12)
            assert b["t1"] >= b["t0"]

    def test_faulted_run_still_telescopes(self):
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
        assert critpath_violations(doc) == []
        snap = build_snapshot(obs, meta={})
        assert reconcile(doc, snap) == []

    def test_ordering_edges_follow_pool_order(self):
        snap, _ = traced_snapshot("dynamic,4")
        edges = ordering_edges(snap["spans"])
        assert edges
        spans = {s["id"]: s for s in snap["spans"]["spans"]}
        for e in edges:
            assert e["kind"] == "pool_order"
            a, b = spans[e["src"]], spans[e["dst"]]
            assert int(b["attrs"]["lo"]) >= int(a["attrs"]["hi"])

    def test_format_critpath_renders_every_category(self):
        snap, _ = traced_snapshot("aid_hybrid")
        cp = extract_critical_path(snap["spans"])
        text = format_critpath(cp)
        assert "critical path:" in text
        for cat in cp["attribution"]:
            assert cat in text


class TestFuzzStyleCases:
    CASES = [
        FuzzCase(seed=s, schedule=sched, platform=plat,
                 n_iterations=ni, cost=cost)
        for s, sched, plat, ni, cost in (
            (11, "aid_static", "odroid_xu4", 384, ("jittered", 1e-4, 0.3, 0.2)),
            (12, "aid_dynamic,1,5", "xeon_emulated", 512, ("ramp", 1e-4, 4.0)),
            (13, "aid_steal,8", "odroid_xu4", 640, ("ramp", 1e-4, 8.0)),
            (14, "dynamic,2", "xeon_emulated", 256, ("bimodal", 1e-4, 5.0, 0.2)),
        )
    ]

    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: f"seed{c.seed}-{c.schedule}"
    )
    def test_no_violations_and_exact_reconcile(self, case):
        obs = Observability(spans=SpanRecorder())
        run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), obs=obs,
        )
        doc = obs.spans.as_doc()
        snap = build_snapshot(obs, meta={})
        assert critpath_violations(doc) == []
        assert reconcile(doc, snap) == []


class TestGridAcceptance:
    """Fig. 6-style acceptance: per-program attribution sums to the
    makespan within 1e-9, agrees with the sim-time counters, and is
    byte-identical across the engine's drain and heap paths."""

    PROGRAMS = ("EP", "CG")
    CONFIGS = ("static", "aid_hybrid")

    def run_program(self, program, schedule, trace=False):
        obs = Observability(spans=SpanRecorder(context="grid"))
        runner = ProgramRunner(
            odroid_xu4(), OmpEnv(schedule=schedule, num_threads=8),
            obs=obs, trace=trace,
        )
        result = runner.run(get_program(program))
        return build_snapshot(obs, meta={}), result

    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("schedule", CONFIGS)
    def test_attribution_matches_makespan_and_counters(
        self, program, schedule
    ):
        snap, result = self.run_program(program, schedule)
        doc = snap["spans"]
        cp = extract_critical_path(doc)
        total = sum(cp["attribution"].values())
        assert abs(total - cp["makespan"]) <= 1e-9 * max(1.0, cp["makespan"])
        assert cp["t1"] == pytest.approx(
            result.completion_time, rel=0, abs=1e-12
        )
        assert reconcile(doc, snap) == []
        # The full span tree accounts every sim-time category per loop.
        assert span_category_totals(doc)

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_backends_agree_byte_for_byte(self, program):
        # Tracing forces the heap path; dynamic otherwise drains.
        ref, _ = self.run_program(program, "dynamic,1")
        vec, _ = self.run_program(program, "dynamic,1", trace=True)
        assert json.dumps(ref, sort_keys=True) == json.dumps(
            vec, sort_keys=True
        )
        assert extract_critical_path(ref["spans"]) == extract_critical_path(
            vec["spans"]
        )


class TestTimelineLane:
    def test_lane_uses_category_glyphs_and_fills_the_width(self):
        snap, _ = traced_snapshot("aid_hybrid")
        cp = extract_critical_path(snap["spans"])
        lane = critpath_lane(cp, width=40)
        assert len(lane) == 40
        assert set(lane) <= set("#=dsSx. ")
        assert set(lane) != {" "}

    def test_timeline_report_includes_the_critpath_section(self):
        snap, _ = traced_snapshot("aid_hybrid")
        text = timeline(snap)
        assert "critical path" in text
        assert "makespan=" in text

    def test_timeline_without_spans_has_no_critpath_section(self):
        obs = Observability()
        run_loop(preset_platform("odroid_xu4"), parse_schedule("static"),
                 obs=obs)
        text = timeline(build_snapshot(obs, meta={}))
        assert "critical path" not in text


class TestDiffCriticalPathClass:
    def test_identical_snapshots_do_not_flag(self):
        snap, _ = traced_snapshot("aid_hybrid")
        diff = diff_snapshots(snap, copy.deepcopy(snap))
        assert not [e for e in diff.entries if e.kind == "critical-path"]
        assert not diff.regressions

    def test_slower_critical_path_regresses(self):
        snap, _ = traced_snapshot("aid_hybrid")
        slower = copy.deepcopy(snap)
        for s in slower["spans"]["spans"]:
            s["t0"] *= 1.5
            s["t1"] *= 1.5
        entries = [
            e for e in diff_snapshots(
                snap, slower, DiffThresholds(metric_rel=1e9, hist_dist=1e9)
            ).entries
            if e.kind == "critical-path"
        ]
        assert any(e.severity == "regression" for e in entries)
        assert any(e.name == "makespan" for e in entries)

    def test_faster_critical_path_is_informational(self):
        snap, _ = traced_snapshot("aid_hybrid")
        faster = copy.deepcopy(snap)
        for s in faster["spans"]["spans"]:
            s["t0"] *= 0.5
            s["t1"] *= 0.5
        entries = [
            e for e in diff_snapshots(
                snap, faster, DiffThresholds(metric_rel=1e9, hist_dist=1e9)
            ).entries
            if e.kind == "critical-path"
        ]
        assert entries
        assert all(e.severity in ("info", "change") for e in entries)

    def test_job_traced_on_one_side_only_regresses(self):
        snap, _ = traced_snapshot("aid_hybrid")
        doc = snap["spans"]
        merged_a = copy.deepcopy(snap)
        merged_a["spans"] = [{"labels": {"program": "EP"}, "doc": doc}]
        merged_b = copy.deepcopy(snap)
        merged_b["spans"] = [{"labels": {"program": "CG"}, "doc": doc}]
        entries = [
            e for e in diff_snapshots(merged_a, merged_b).entries
            if e.kind == "critical-path"
        ]
        assert entries and all(e.severity == "regression" for e in entries)
        assert all(
            "only one snapshot" in e.detail for e in entries
        )

    def test_span_free_snapshots_diff_exactly_as_before(self):
        obs = Observability()
        run_loop(preset_platform("odroid_xu4"), parse_schedule("static"),
                 obs=obs)
        snap = build_snapshot(obs, meta={})
        diff = diff_snapshots(snap, copy.deepcopy(snap))
        assert not diff.regressions
        assert not [e for e in diff.entries if e.kind == "critical-path"]
