"""The real backend: loops run on actual Python threads.

Wraps :class:`repro.exec_real.team.ThreadTeam` behind the backend
protocol, so an experiment configured for the simulator can be pointed
at real threads with ``--backend real`` (or ``REPRO_BACKEND=real``).
Each simulated iteration becomes a fixed busy-sleep, so the *schedule*
(dispatch order, chunk sizes, pool contention) is genuine OS-thread
behaviour while per-iteration cost stays controlled.

This backend is experimental and intentionally coarse:

* results are wall-clock, not virtual-time: ``end_time``/``duration``
  measure the host machine, not the modeled AMP, and vary run to run
  non-deterministic;
* per-thread finish times are not individually tracked by the real
  team, so every thread reports the loop's wall-clock end;
* locality, ownership and wake jitter are simulator concepts and are
  ignored (the request's rng is still consumed exactly as the simulated
  engine consumes it, keeping downstream stream alignment intact).

Its purpose is cross-validation — comparing decision *behaviour*
against the simulator, as the differential harness in ``repro.check``
does — not performance projection.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.backends.common import LoopRunRequest, prepare_run
from repro.backends.core import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import LoopExecutor, LoopResult

#: Busy-sleep per simulated iteration, matching the conformance
#: harness's real-thread probes: long enough that chunk execution
#: dominates Python dispatch overhead, short enough for smoke runs.
BODY_SLEEP_SECONDS = 3e-4


class RealBackend(ExecutionBackend):
    """Execute the schedule on real threads via ``repro.exec_real``."""

    name = "real"

    def __init__(self) -> None:
        self._team = None
        self._team_key = None

    def _thread_team(self, executor: "LoopExecutor"):
        from repro.exec_real.team import ThreadTeam

        key = (executor.team.n_threads, id(executor.team.platform))
        if self._team is None or self._team_key != key:
            self._team = ThreadTeam(
                executor.team.n_threads, platform=executor.team.platform
            )
            self._team_key = key
        return self._team

    def run_scheduled(
        self, executor: "LoopExecutor", req: LoopRunRequest
    ) -> "LoopResult":
        from repro.errors import BackendError
        from repro.runtime.executor import LoopResult

        if req.faults is not None and not getattr(req.faults, "is_empty", True):
            raise BackendError(
                "the real backend cannot apply simulator fault plans; "
                "use --backend reference for faulted runs"
            )
        # Shared prologue for stream alignment (the wake-jitter draw) and
        # the conformance hello; the scheduler it builds is discarded —
        # the real team creates its own against the live work share.
        setup = prepare_run(executor, req)
        team = self._thread_team(executor)

        def body(tid: int, lo: int, hi: int) -> None:
            for _ in range(lo, hi):
                time.sleep(BODY_SLEEP_SECONDS)

        t0 = time.perf_counter()
        stats = team.parallel_for(
            req.loop.n_iterations,
            body,
            req.spec,
            default_chunk=req.default_chunk,
            offline_sf=req.offline_sf,
            check=req.check,
            obs=executor.obs if executor.obs.enabled else None,
        )
        wall = stats.wall_time if stats.wall_time > 0 else (
            time.perf_counter() - t0
        )
        end = setup.start_time + wall
        nt = executor.team.n_threads
        result = LoopResult(
            loop_name=req.loop.name,
            start_time=setup.start_time,
            end_time=end,
            finish_times=[end] * nt,
            iterations=list(stats.iterations_per_thread),
            dispatches=stats.dispatches,
            scheduler_calls=stats.dispatches + nt,
            estimated_sf=None,
            ranges=list(stats.ranges),
            extra={"real_stats": stats},
        )
        if req.check is not None:
            req.check.on_loop_end(result)
        if executor.obs.enabled:
            reg = executor.obs.registry
            reg.counter("loop_invocations_total", loop=req.loop.name).inc()
            reg.gauge(
                "loop_last_duration_seconds", loop=req.loop.name
            ).set(result.duration)
        return result
