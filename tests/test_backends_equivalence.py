"""The simulated engine's two paths agree byte for byte.

The engine plays a loop out either on the simulator heap (one event per
dispatch) or, for pure fixed-chunk pools with nothing observing the
per-dispatch call sites, through the closed-form drain. Both must give
the same :class:`LoopResult`, decision log, observability snapshot and
span document. A trace recorder changes none of those but forces the
heap, so every test here runs a case twice — plain (drain where it
applies) and traced (heap) — and compares. The engine corpus
(``tests/test_check_corpus.py``) pins the outputs themselves.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.amp.presets import odroid_xu4, xeon_emulated
from repro.backends import reference
from repro.check.corpus import decision_bytes, result_key
from repro.check.generators import (
    FuzzCase,
    case_costs,
    case_rng,
    generate_case,
    preset_platform,
    run_loop,
)
from repro.faults.model import plan_from_tuples
from repro.obs import Observability, SpanRecorder
from repro.obs.snapshot import build_snapshot, to_json
from repro.sched.registry import parse_schedule
from repro.sim.rng import stable_seed
from repro.tracing.trace import TraceRecorder

#: Every schedule kind the experiment grids run, incl. all five AID
#: variants.
ALL_SCHEDULES = (
    "static",
    "static,7",
    "dynamic,1",
    "dynamic,4",
    "guided,1",
    "aid_static",
    "aid_hybrid,80",
    "aid_dynamic,1,5",
    "aid_auto,1,5",
    "aid_steal,8",
)


def _run(heap, platform, schedule, ni, costs, rng_seed=None, faults=None,
         overhead=None):
    """Everything observable about one run; ``heap`` forces the heap."""
    obs = Observability(spans=SpanRecorder())
    rng = (
        np.random.default_rng(rng_seed) if rng_seed is not None else None
    )
    result = run_loop(
        platform, parse_schedule(schedule), n_iterations=ni, costs=costs,
        obs=obs, rng=rng, faults=faults, overhead=overhead,
        trace=TraceRecorder() if heap else None,
    )
    snapshot = build_snapshot(obs)
    spans = snapshot.pop("spans")
    return (
        result_key(result), decision_bytes(obs), to_json(snapshot),
        json.dumps(spans, sort_keys=True),
    )


def _both(*args, **kw):
    return _run(False, *args, **kw), _run(True, *args, **kw)


@pytest.fixture
def drain_calls(monkeypatch):
    """Count the engine's entries into the closed-form drain."""
    calls = []
    real = reference._drain

    def spy(*args, **kw):
        calls.append(args[1].spec.name)
        return real(*args, **kw)

    monkeypatch.setattr(reference, "_drain", spy)
    return calls


class TestByteIdentity:
    @pytest.mark.parametrize("schedule", ALL_SCHEDULES)
    def test_odroid_nonuniform_costs(self, schedule):
        rng = np.random.default_rng(42)
        ni = 197  # odd on purpose: uneven remainders everywhere
        costs = rng.lognormal(mean=np.log(1e-4), sigma=0.6, size=ni)
        plain, heap = _both(odroid_xu4(), schedule, ni, costs)
        assert plain == heap

    @pytest.mark.parametrize(
        "schedule", ["dynamic,1", "aid_dynamic,1,5", "aid_steal,8"]
    )
    def test_xeon_with_wake_jitter(self, schedule):
        # A wake-jitter RNG draws once per run in prepare_run; both
        # paths must consume the stream identically.
        costs = np.full(256, 1e-4)
        plain, heap = _both(xeon_emulated(), schedule, 256, costs,
                            rng_seed=7)
        assert plain == heap

    @pytest.mark.parametrize("ni", [1, 2, 7, 8, 9])
    def test_tiny_trip_counts(self, ni):
        costs = np.full(ni, 1e-4)
        for schedule in ("dynamic,1", "aid_dynamic,1,5"):
            plain, heap = _both(odroid_xu4(), schedule, ni, costs)
            assert plain == heap, schedule


class TestFallbacks:
    """Which path runs: the drain only where nothing needs the heap."""

    def test_faulted_run_delegates_and_matches(self, drain_calls):
        platform = preset_platform("dual:2:2")
        costs = np.full(64, 1e-4)
        plan = plan_from_tuples((("throttle", 0, 0.001, 0.004, 0.25),))
        plain, heap = _both(platform, "dynamic,1", 64, costs, faults=plan)
        assert drain_calls == []
        assert plain == heap
        fault_free = _run(False, platform, "dynamic,1", 64, costs)
        assert plain[0] != fault_free[0]

    def test_empty_fault_plan_does_not_delegate(self, drain_calls):
        platform = preset_platform("dual:2:2")
        costs = np.full(32, 1e-4)
        empty = _run(False, platform, "dynamic,1", 32, costs,
                     faults=plan_from_tuples(()))
        assert drain_calls == ["dynamic,1"]
        assert empty == _run(False, platform, "dynamic,1", 32, costs)

    def test_traced_run_delegates(self, drain_calls):
        recorder = TraceRecorder()
        run_loop(
            odroid_xu4(), parse_schedule("dynamic,1"), n_iterations=32,
            trace=recorder,
        )
        assert drain_calls == []
        assert recorder.intervals


class TestRealBackendSmoke:
    def test_real_threads_execute_every_iteration(self):
        # Wall-clock execution: non-deterministic timing, but the
        # iteration accounting must still be exact.
        result = run_loop(
            preset_platform("dual:1:1"), parse_schedule("dynamic,2"),
            n_iterations=24, work=1e-5, backend="real",
        )
        assert sum(result.iterations) == 24
        assert result.dispatches > 0


def _case_both(case: FuzzCase):
    plan = None
    if case.faults:
        probe = run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), n_threads=case.n_threads,
            rng=case_rng(case),
        )
        plan = plan_from_tuples(case.faults).scaled(max(probe.duration, 1e-9))
    out = []
    for heap in (False, True):
        obs = Observability(spans=SpanRecorder())
        result = run_loop(
            case.build_platform(), case.build_spec(),
            n_iterations=case.n_iterations, costs=case_costs(case),
            overhead=case.overhead_model(), n_threads=case.n_threads,
            rng=case_rng(case), faults=plan, obs=obs,
            trace=TraceRecorder() if heap else None,
        )
        out.append((result_key(result), decision_bytes(obs),
                    to_json(build_snapshot(obs))))
    return out


class TestDiffTools:
    def test_diff_case_clean(self):
        case = FuzzCase(
            seed=11, schedule="dynamic,4", platform="odroid_xu4",
            n_iterations=120,
        )
        plain, heap = _case_both(case)
        assert plain == heap

    def test_diff_case_detects_a_lying_backend(self, monkeypatch):
        # Sabotage: the engine doubles its reported dispatch count; the
        # corpus replay must name the result digest.
        from repro.backends import ReferenceBackend
        from repro.check import corpus

        real = ReferenceBackend.run_scheduled

        def liar(self, executor, req):
            result = real(self, executor, req)
            result.dispatches *= 2
            return result

        monkeypatch.setattr(ReferenceBackend, "run_scheduled", liar)
        mismatches = corpus.check_corpus(indices=range(3))
        assert [m.field_name for m in mismatches] == ["result"] * 3

    def test_diff_fuzz_small_campaign_clean(self):
        pool = ("dynamic,1", "dynamic,4", "dynamic,7")
        for i in range(12):
            case = generate_case(stable_seed("fuzz", 9, i), pool, None)
            plain, heap = _case_both(case)
            assert plain == heap, case.describe()

    def test_diff_fuzz_faulted_campaign_clean(self):
        pool = ("dynamic,1", "dynamic,4", "aid_dynamic,1,5")
        for i in range(6):
            case = generate_case(
                stable_seed("fuzz", 13, i), pool, None, faults="sim"
            )
            plain, heap = _case_both(case)
            assert plain == heap, case.describe()


class TestResultTypes:
    def test_drain_with_wake_jitter_returns_plain_floats(self, drain_calls):
        # The wake-jitter draw is a numpy scalar; it must not leak into
        # result times through the drain (the heap launders it through
        # the virtual clock).
        from repro.perfmodel.overhead import OverheadModel
        from repro.runtime.env import OmpEnv
        from repro.runtime.program_runner import ProgramRunner
        from repro.workloads.registry import get_program

        result = run_loop(
            xeon_emulated(), parse_schedule("dynamic,4"), n_iterations=256,
            overhead=OverheadModel(), rng=np.random.default_rng(7),
        )
        assert drain_calls == ["dynamic,4"]
        assert type(result.end_time) is float
        assert all(type(t) is float for t in result.finish_times)

        program = ProgramRunner(
            xeon_emulated(), OmpEnv(schedule="dynamic,1"), root_seed=3
        ).run(get_program("EP"))
        assert len(drain_calls) > 1
        assert type(program.completion_time) is float
