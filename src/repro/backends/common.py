"""Request/setup plumbing for the simulated engine.

Every backend receives the same :class:`LoopRunRequest` (the arguments
of :meth:`repro.runtime.executor.LoopExecutor.run`, bundled). Both paths
of the simulated engine share one prologue, one publication path and
one epilogue:

* :func:`prepare_run` — validation, conformance hello, per-thread entry
  and wake times, the cost prefix sum, rates, the
  :class:`~repro.runtime.context.LoopContext` and the scheduler
  instance.
* :class:`LoopColumns` — the run's instrument samples, one flat column
  per instrument in call order, published once at loop end.
* :func:`finish_run` — the executed-iteration-count self-check, the
  :class:`~repro.runtime.executor.LoopResult`, the conformance goodbye
  and the metrics publication.

The epilogue takes the pool attempt counters *explicitly* rather than
reading the work-share structure: the closed-form pool drain never
touches the shared structure's atomics, yet must publish the same
``workshare_take_attempts_total`` a stepped run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.runtime.context import LoopContext
from repro.sched.base import LoopScheduler, ScheduleSpec
from repro.workloads.loopspec import LoopSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perfmodel.locality import LoopOwnership
    from repro.runtime.executor import LoopExecutor, LoopResult


@dataclass
class LoopRunRequest:
    """One runtime-scheduled loop execution, as handed to a backend.

    Field semantics match
    :meth:`repro.runtime.executor.LoopExecutor.run` exactly; the
    executor builds one of these and delegates.
    """

    loop: LoopSpec
    costs: np.ndarray
    spec: ScheduleSpec
    start_time: float = 0.0
    offline_sf: Mapping[int, float] | None = None
    default_chunk: int = 1
    ownership: "LoopOwnership | None" = None
    rng: np.random.Generator | None = None
    start_times: Sequence[float] | None = None
    check: object = None
    faults: object = None


@dataclass
class RunSetup:
    """Backend-independent state prepared for one loop execution."""

    nt: int
    start_time: float
    entry: list[float]
    prefix: np.ndarray
    rates: list[float]
    core_types: list
    pending_overhead: list[float]
    ctx: LoopContext
    scheduler: LoopScheduler
    #: Per-tid time at which the thread finishes the loop-start call and
    #: issues its first dispatch (entry + wake stagger + jitter +
    #: loop_start), as plain floats.
    wake_begin: list[float] = field(default_factory=list)
    dec_mark: int = 0
    track_obs: bool = False
    #: The causal span recorder (``executor.obs.spans``), or ``None``
    #: when span tracing is off; ``span_loop`` is this run's loop span
    #: path and ``big_of`` flags threads on the fastest core type.
    spans: object = None
    span_loop: str | None = None
    big_of: list[bool] = field(default_factory=list)


def prepare_run(executor: "LoopExecutor", req: "LoopRunRequest") -> RunSetup:
    """Validate the request and build the shared per-run state.

    Mirrors the historical prologue of ``LoopExecutor.run`` verbatim —
    including the single ``rng.uniform`` wake-jitter draw, so every run
    given the same request consumes the random stream identically.
    """
    loop, costs, spec = req.loop, req.costs, req.spec
    if len(costs) != loop.n_iterations:
        raise SimulationError(
            f"cost vector length {len(costs)} != trip count {loop.n_iterations}"
        )
    if spec.requires_bs_mapping:
        executor.team.assert_bs_convention()
    check = req.check
    if check is not None:
        check.on_loop_begin(
            loop_name=loop.name,
            n_iterations=loop.n_iterations,
            spec_name=spec.name,
        )
        check.on_team(executor.team.conformance_info())

    nt = executor.team.n_threads
    start_time = req.start_time
    if req.start_times is not None:
        if len(req.start_times) != nt:
            raise SimulationError(
                f"{len(req.start_times)} start times for {nt} threads"
            )
        start_time = min(req.start_times)
    entry = (
        list(req.start_times)
        if req.start_times is not None
        else [start_time] * nt
    )
    prefix = np.concatenate(([0.0], np.cumsum(costs)))
    rates = executor.rates_for(loop)
    core_types = [executor.team.core_type_of(tid) for tid in range(nt)]

    pending_overhead = [0.0] * nt

    def charge_timestamp(tid: int) -> None:
        pending_overhead[tid] += executor.overhead.timestamp(core_types[tid])

    ctx = LoopContext(
        team=executor.team,
        n_iterations=loop.n_iterations,
        default_chunk=req.default_chunk,
        lock=None,
        offline_sf=req.offline_sf,
        charge_timestamp=charge_timestamp,
        obs=executor.obs,
        loop_name=loop.name,
        check=check,
    )
    scheduler = spec.create(ctx)

    jitter = (
        req.rng.uniform(0.0, executor.overhead.wake_jitter, size=nt)
        if req.rng is not None and executor.overhead.wake_jitter > 0.0
        else np.zeros(nt)
    )
    wake_begin = []
    for tid in range(nt):
        wake = (
            executor.overhead.wake_stagger * executor.team.cpu_of(tid)
            + jitter[tid]
        )
        # float(): the jitter draw is a numpy scalar, which must not
        # leak into result times.
        wake_begin.append(float(
            entry[tid] + wake + executor.overhead.loop_start(core_types[tid])
        ))

    track_obs = executor.obs.enabled
    srec = getattr(executor.obs, "spans", None)
    span_loop = None
    big_of: list[bool] = []
    if srec is not None:
        span_loop = srec.begin_loop(loop.name)
        fastest = executor.team.n_types - 1
        big_of = [
            executor.team.type_index_of(tid) == fastest for tid in range(nt)
        ]
    return RunSetup(
        nt=nt,
        start_time=start_time,
        entry=entry,
        prefix=prefix,
        rates=rates,
        core_types=core_types,
        pending_overhead=pending_overhead,
        ctx=ctx,
        scheduler=scheduler,
        wake_begin=wake_begin,
        dec_mark=(
            len(executor.obs.decisions.records) if track_obs else 0
        ),
        track_obs=track_obs,
        spans=srec,
        span_loop=span_loop,
        big_of=big_of,
    )


@dataclass
class LoopInstruments:
    """The per-run time-resolved instruments (fed through
    :class:`LoopColumns`)."""

    util_of: list
    rate_of: list
    runnable_ts: object
    chunk_ts: object
    dispatch_digest: object
    compute_digest: object
    size_digest: object


def make_instruments(
    executor: "LoopExecutor", loop: LoopSpec, core_types: Sequence
) -> LoopInstruments:
    """Create/fetch the run's timeseries and digests from the registry.

    Cached per loop name on the executor: iterative programs run the
    same loop hundreds of times, and the handles (registry-owned,
    get-or-create) are identical on every invocation.
    """
    cached = executor._instrument_cache.get(loop.name)
    if cached is not None:
        return cached
    reg = executor.obs.registry
    type_names = [ct.name for ct in core_types]
    util_by_type = {
        tname: reg.timeseries(
            "core_utilization", mode="busy", loop=loop.name,
            core_type=tname, norm=float(type_names.count(tname)),
        )
        for tname in dict.fromkeys(type_names)
    }
    rate_by_type = {
        tname: reg.timeseries("worker_rate", loop=loop.name, core_type=tname)
        for tname in dict.fromkeys(type_names)
    }
    inst = LoopInstruments(
        util_of=[util_by_type[tname] for tname in type_names],
        rate_of=[rate_by_type[tname] for tname in type_names],
        runnable_ts=reg.timeseries("runnable_iterations", loop=loop.name),
        chunk_ts=reg.timeseries("chunk_size", loop=loop.name),
        dispatch_digest=reg.digest("dispatch_overhead_seconds", loop=loop.name),
        compute_digest=reg.digest("chunk_compute_seconds", loop=loop.name),
        size_digest=reg.digest("chunk_size_iters", loop=loop.name),
    )
    executor._instrument_cache[loop.name] = inst
    return inst


class LoopColumns:
    """One run's instrument samples, a flat column per instrument.

    The engine appends each sample where a scalar ``observe`` call
    would go, in the same order; :meth:`flush` hands every column to its
    instrument's bulk entry point once, at loop end. The result is the
    state the scalar calls would leave: only the engine feeds a loop's
    instruments during a run, and each bulk call replays its column in
    order. Threads of one core type share their instruments, so
    ``util_of[tid]``/``rate_of[tid]`` are the shared ``(times, values)``
    column pairs of the thread's instrument.
    """

    __slots__ = ("util_of", "rate_of", "runnable", "chunk", "dispatch",
                 "compute", "size", "_inst", "_util", "_rate")

    def __init__(self, inst: LoopInstruments) -> None:
        self._inst = inst
        self._util: dict = {}
        self._rate: dict = {}
        self.util_of = [
            self._util.setdefault(ts, ([], [])) for ts in inst.util_of
        ]
        self.rate_of = [
            self._rate.setdefault(ts, ([], [])) for ts in inst.rate_of
        ]
        self.runnable: tuple[list, list] = ([], [])
        self.chunk: tuple[list, list] = ([], [])
        self.dispatch: list[float] = []
        self.compute: list[float] = []
        self.size: list[int] = []

    def flush(self) -> None:
        inst = self._inst
        for ts, (t0s, t1s) in self._util.items():
            ts.observe_spans(t0s, t1s)
        for ts, (times, rates) in self._rate.items():
            ts.observe_many(times, rates)
        inst.runnable_ts.observe_many(*self.runnable)
        inst.chunk_ts.observe_many(*self.chunk)
        inst.dispatch_digest.observe_many(self.dispatch)
        inst.compute_digest.observe_many(self.compute)
        inst.size_digest.observe_many(self.size)


def finish_run(
    executor: "LoopExecutor",
    req: "LoopRunRequest",
    setup: RunSetup,
    finish: list[float],
    iters: list[int],
    calls: Sequence[int],
    assigned: list[tuple[int, int, int]],
    dispatches: int,
    attempts: int,
    empty_takes: int,
    overhead_acc: Sequence[float],
    compute_acc: Sequence[float],
    engine=None,
) -> "LoopResult":
    """Shared epilogue: self-check, result, conformance, metrics."""
    from repro.runtime.executor import LoopResult

    loop, spec = req.loop, req.spec
    total_iters = sum(iters)
    if total_iters != loop.n_iterations:
        raise SimulationError(
            f"schedule {spec.name!r} executed {total_iters} of "
            f"{loop.n_iterations} iterations in loop {loop.name!r}"
        )
    result = LoopResult(
        loop_name=loop.name,
        start_time=setup.start_time,
        end_time=max(finish),
        finish_times=finish,
        iterations=iters,
        dispatches=dispatches,
        scheduler_calls=sum(calls),
        estimated_sf=setup.scheduler.estimated_sf(),
        ranges=assigned,
        extra={"scheduler": setup.scheduler},
    )
    if req.check is not None:
        req.check.on_loop_end(result)
    if engine is not None:
        engine.publish()
    if setup.spans is not None:
        dec_slice = (
            executor.obs.decisions.records[setup.dec_mark:]
            if setup.track_obs
            else ()
        )
        setup.spans.end_loop(
            setup.span_loop,
            t0=setup.start_time,
            t1=result.end_time,
            decisions=dec_slice,
            loop_name=loop.name,
        )
    if executor.obs.enabled:
        executor._publish_sf_drift(loop, setup.dec_mark)
        executor._publish_loop_metrics(
            loop, result, calls, overhead_acc, compute_acc,
            attempts=attempts, empty_takes=empty_takes, engine=engine,
        )
    return result
