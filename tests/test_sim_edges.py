"""Edge cases of the simulation core: zero-length chunks, simultaneous
event ties, and fault windows landing exactly on chunk boundaries.

These are the boundaries where the simulated engine's two paths — the
heap step and the closed-form pool drain — could most plausibly drift
apart, so each scenario that touches scheduling is asserted
byte-identical across both paths on top of its own invariant. A trace
recorder forces the heap without changing any result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amp.presets import odroid_xu4
from repro.check.corpus import decision_bytes, result_key
from repro.check.generators import preset_platform, run_loop
from repro.errors import WorkShareError
from repro.faults.model import plan_from_tuples
from repro.obs import Observability
from repro.runtime.workshare import WorkShare
from repro.sched.registry import parse_schedule
from repro.sim.events import EventQueue
from repro.tracing.trace import ThreadState, TraceRecorder


# -- zero-length chunks -------------------------------------------------------


class TestZeroLengthChunks:
    def test_final_take_clamps_to_end(self):
        ws = WorkShare(0, 10)
        assert ws.take(8) == (0, 8)
        # Only 2 iterations left: the take is clamped, not zero-length.
        assert ws.take(8) == (8, 10)
        assert ws.take(8) is None
        assert ws.dispatch_count == 2
        assert ws.empty_take_count == 1
        assert ws.attempt_count == 3

    def test_empty_pool_is_immediately_exhausted(self):
        ws = WorkShare(5, 5)
        assert ws.n_iterations == 0
        assert ws.exhausted
        assert ws.take(1) is None
        assert ws.dispatch_count == 0

    def test_zero_length_requeue_rejected(self):
        ws = WorkShare(0, 8)
        with pytest.raises(WorkShareError):
            ws.requeue(3, 3)

    def test_take_never_returns_zero_length_range(self):
        # Adversarial draining: whatever the request size, a successful
        # take always removes at least one iteration.
        ws = WorkShare(0, 7)
        sizes = []
        while (r := ws.take(3)) is not None:
            sizes.append(r[1] - r[0])
        assert min(sizes) >= 1
        assert sum(sizes) == 7

    @pytest.mark.parametrize("schedule", ["dynamic,8", "aid_dynamic,1,5"])
    def test_chunk_larger_than_loop_identical_across_backends(
        self, schedule
    ):
        # ni=1 with chunk 8: the very first dispatch clamps to a single
        # iteration and every other thread's take comes up empty.
        spec = parse_schedule(schedule)
        obs_ref, obs_vec = Observability(), Observability()
        ref = run_loop(odroid_xu4(), spec, n_iterations=1, obs=obs_ref)
        vec = run_loop(
            odroid_xu4(), spec, n_iterations=1, obs=obs_vec,
            trace=TraceRecorder(),
        )
        assert sum(ref.iterations) == 1
        assert result_key(ref) == result_key(vec)
        assert decision_bytes(obs_ref) == decision_bytes(obs_vec)


# -- simultaneous-event tie-breaking ------------------------------------------


class TestSimultaneousEventTies:
    def test_cancelling_inside_a_tie_group_preserves_fifo(self):
        q = EventQueue()
        hits = []
        q.push(1.0, lambda: hits.append("a"))
        b = q.push(1.0, lambda: hits.append("b"))
        q.push(1.0, lambda: hits.append("c"))
        q.cancel(b)
        while (ev := q.pop()) is not None:
            ev.action()
        assert hits == ["a", "c"]

    def test_same_time_event_scheduled_during_tie_fires_last(self):
        # An event scheduled *at the current time* from within a
        # same-time group gets the next sequence number, so it fires
        # after every event already queued for that instant — the FIFO
        # rule the thread-wakeup ordering relies on.
        q = EventQueue()
        hits = []
        q.push(2.0, lambda: (hits.append("first"),
                             q.push(2.0, lambda: hits.append("nested"))))
        q.push(2.0, lambda: hits.append("second"))
        while (ev := q.pop()) is not None:
            ev.action()
        assert hits == ["first", "second", "nested"]

    def test_tied_dispatches_are_deterministic_and_backend_identical(self):
        # Uniform costs on a flat dual:2:2 platform make same-type
        # threads finish chunks at exactly equal times; tie-breaking
        # (FIFO by wakeup order) must be reproducible run-over-run and
        # identical between the drain and the heap.
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,1")
        costs = np.full(64, 1e-4)

        def one(trace):
            obs = Observability()
            r = run_loop(
                platform, spec, n_iterations=64, costs=costs, obs=obs,
                trace=trace,
            )
            return result_key(r), decision_bytes(obs)

        ref1, ref2 = one(None), one(None)
        vec = one(TraceRecorder())
        assert ref1 == ref2
        assert ref1 == vec


# -- fault boundaries exactly on chunk boundaries -----------------------------


def _chunk_boundaries(platform, spec, ni, costs):
    """Exact chunk-completion times of the fault-free run."""
    trace = TraceRecorder()
    run_loop(
        platform, spec, n_iterations=ni, costs=costs, trace=trace,
        backend="reference",
    )
    return sorted({
        iv.t1 for iv in trace.intervals if iv.state is ThreadState.COMPUTE
    })


class TestFaultBoundaryOnChunkBoundary:
    @pytest.mark.parametrize("kind", ["throttle", "offline"])
    def test_window_starting_exactly_at_chunk_end(self, kind):
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,2")
        ni = 48
        costs = np.full(ni, 2e-4)
        ends = _chunk_boundaries(platform, spec, ni, costs)
        assert len(ends) > 4
        # The window opens at the *exact float* a mid-run chunk ends on.
        t_b = ends[len(ends) // 2]
        if kind == "throttle":
            events = (("throttle", 0, t_b, t_b * 2.0, 0.25),)
        else:
            events = (("offline", 0, t_b),)
        plan = plan_from_tuples(events)

        def one(trace):
            obs = Observability()
            r = run_loop(
                platform, spec, n_iterations=ni, costs=costs,
                faults=plan, obs=obs, trace=trace,
            )
            return r, decision_bytes(obs)

        ref, ref_log = one(None)
        vec, vec_log = one(TraceRecorder())
        # Every iteration still executes exactly once, the fault made
        # the run no faster, and a traced rerun tells the same story.
        assert sum(ref.iterations) == ni
        assert ref.end_time >= ends[-1]
        assert result_key(ref) == result_key(vec)
        assert ref_log == vec_log

    def test_window_closing_exactly_at_chunk_end(self):
        platform = preset_platform("dual:2:2")
        spec = parse_schedule("dynamic,2")
        ni = 48
        costs = np.full(ni, 2e-4)
        ends = _chunk_boundaries(platform, spec, ni, costs)
        t_b = ends[len(ends) // 2]
        # Throttle from loop start until exactly a chunk boundary.
        plan = plan_from_tuples((("throttle", 1, 0.0, t_b, 0.5),))
        ref = run_loop(
            platform, spec, n_iterations=ni, costs=costs, faults=plan,
        )
        vec = run_loop(
            platform, spec, n_iterations=ni, costs=costs, faults=plan,
            trace=TraceRecorder(),
        )
        assert sum(ref.iterations) == ni
        assert result_key(ref) == result_key(vec)
