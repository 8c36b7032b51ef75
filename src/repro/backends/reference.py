"""The simulated engine (registry name ``reference``).

One engine plays out every runtime-scheduled loop in virtual time. It
has two paths and one publication path:

* **The heap step.** One simulator event per dispatch on the
  :class:`~repro.sim.events.Simulator` heap, through a single step
  function for plain and faulted runs. The
  :class:`~repro.faults.engine.SimFaultEngine` hooks sit behind
  ``engine is not None``; the fault engine needs the heap to schedule,
  cancel and restart blocks.
* **The fixed-chunk drain.** When the scheduler declares a
  :class:`~repro.sched.base.PoolAdvancement` (a pure fixed-chunk pool
  drain, e.g. ``schedule(dynamic)``) and the run has no fault plan,
  trace recorder or conformance recorder — nothing that needs the
  per-dispatch call sites — the whole drain runs in closed form
  (:func:`_drain`).
* **Columnar publication.** Instrument samples go into flat
  per-instrument columns in call order and are published once at loop
  end (:class:`~repro.backends.common.LoopColumns`).

``tests/golden/engine-corpus.json`` pins the engine's results, decision
logs, snapshots and span documents (``python -m repro.check corpus``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.common import (
    LoopColumns,
    LoopRunRequest,
    RunSetup,
    finish_run,
    make_instruments,
    prepare_run,
)
from repro.backends.core import ExecutionBackend
from repro.errors import SimulationError
from repro.tracing.trace import ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import LoopExecutor, LoopResult


class ReferenceBackend(ExecutionBackend):
    """The simulated engine: heap step or closed-form drain."""

    name = "reference"

    def run_scheduled(
        self, executor: "LoopExecutor", req: LoopRunRequest
    ) -> "LoopResult":
        setup = prepare_run(executor, req)
        faulted = req.faults is not None and not req.faults.is_empty
        adv = setup.scheduler.advancement()
        if (
            adv is not None
            and not faulted
            and executor.recorder is None
            and req.check is None
        ):
            return _drain(executor, req, setup, adv.chunk)
        return _heap(executor, req, setup, faulted)


def _heap(
    executor: "LoopExecutor", req: LoopRunRequest, setup: RunSetup,
    faulted: bool,
) -> "LoopResult":
    """One simulator event per dispatch."""
    from repro.runtime.executor import _EVENT_BUDGET_SLACK
    from repro.sim.clock import VirtualClock
    from repro.sim.events import Simulator

    loop, check, ownership = req.loop, req.check, req.ownership
    nt = setup.nt
    start_time = setup.start_time
    entry = setup.entry
    prefix = setup.prefix
    rates = setup.rates
    core_types = setup.core_types
    pending_overhead = setup.pending_overhead
    ctx = setup.ctx
    scheduler = setup.scheduler

    sim = Simulator(VirtualClock(start_time))
    engine = None
    if faulted:
        from repro.faults.engine import SimFaultEngine

        engine = SimFaultEngine(
            plan=req.faults,
            sim=sim,
            scheduler=scheduler,
            prefix=prefix,
            cpu_of_tid=[executor.team.cpu_of(t) for t in range(nt)],
            loop_name=loop.name,
            obs=executor.obs,
            check=check,
        )
    finish = list(entry)
    iters = [0] * nt
    calls = [0] * nt
    # The work-share cache line is a serialization point: each
    # fetch-and-add occupies it for atomic_service seconds, and a
    # thread arriving while it is busy queues behind it.
    pool_free_at = [start_time]
    svc = executor.overhead.atomic_service
    assigned: list[tuple[int, int, int]] = []
    # Per-tid time accounting and instrument columns, published once at
    # loop end; every touch sits behind track_obs.
    track_obs = setup.track_obs
    overhead_acc = [0.0] * nt
    compute_acc = [0.0] * nt
    cols = None
    if track_obs:
        cols = LoopColumns(make_instruments(executor, loop, core_types))
        util_of, rate_of = cols.util_of, cols.rate_of
        run_t, run_v = cols.runnable
        chunk_t, chunk_v = cols.chunk
        ovh_col, cmp_col, size_col = cols.dispatch, cols.compute, cols.size
    recorder = executor.recorder
    locality = executor.locality
    overhead = executor.overhead
    # Causal span recorder (None when tracing is off).
    srec = setup.spans
    span_loop = setup.span_loop
    big_of = setup.big_of

    def step(tid: int) -> None:
        now = sim.now
        if engine is not None:
            engine.on_wake(tid)
            if engine.is_parked(tid):
                return
        dispatch_cost = overhead.dispatch(core_types[tid], nt)
        takes_before = ctx.workshare.dispatch_count
        got = scheduler.next_range(tid, now)
        calls[tid] += 1
        extra = pending_overhead[tid]
        pending_overhead[tid] = 0.0
        overhead_dt = dispatch_cost + extra
        if svc > 0.0:
            # Serialize only genuine pool accesses: successful
            # removals, plus the final fetch-and-add that finds the
            # pool empty. Policies serving thread-local ranges (e.g.
            # AID-steal) never queue on the work-share line.
            takes = ctx.workshare.dispatch_count - takes_before
            if got is None:
                takes += 1
            if takes > 0:
                begin = max(now, pool_free_at[0])
                pool_free_at[0] = begin + takes * svc
                overhead_dt += (begin - now) + takes * svc
        if engine is not None:
            overhead_dt = engine.adjust_overhead(tid, now, overhead_dt)
        if track_obs:
            overhead_acc[tid] += overhead_dt
            ovh_col.append(overhead_dt)
            run_t.append(now)
            run_v.append(ctx.workshare.remaining)
        if got is None:
            end = now + overhead_dt
            finish[tid] = end
            if track_obs:
                t0s, t1s = util_of[tid]
                t0s.append(now)
                t1s.append(end)
            if srec is not None:
                srec.record_empty(span_loop, tid, now, end)
            if check is not None:
                check.on_dispatch(tid, now, None)
            if recorder is not None:
                recorder.record(tid, ThreadState.RUNTIME, now, end, loop.name)
            if engine is not None:
                engine.worker_retired(tid)
            return
        lo, hi = got
        t_overhead_end = now + overhead_dt
        scheduler.note_execution_start(tid, t_overhead_end)
        slowdown = locality.slowdown(loop.kernel, ownership, tid, lo, hi)
        if track_obs:
            chunk_t.append(now)
            chunk_v.append(hi - lo)
            size_col.append(hi - lo)
        if engine is not None:
            # A fault may truncate the chunk, so the per-chunk accounting
            # (conformance record, executed range, counters, trace
            # segments) waits for block completion or preemption
            # (record_exec below); the record keeps the original dispatch
            # time so per-thread clock monotonicity holds.
            engine.begin_block(
                tid,
                dispatch_t=now,
                compute_start=t_overhead_end,
                lo=lo,
                hi=hi,
                speed0=rates[tid] / slowdown,
            )
            return
        if check is not None:
            check.on_dispatch(tid, now, got)
        assigned.append((tid, lo, hi))
        work = float(prefix[hi] - prefix[lo])
        compute_dt = slowdown * work / rates[tid]
        iters[tid] += hi - lo
        t_done = t_overhead_end + compute_dt
        if track_obs:
            compute_acc[tid] += compute_dt
            cmp_col.append(compute_dt)
            if compute_dt > 0.0:
                times, values = rate_of[tid]
                times.append(t_overhead_end)
                values.append(work / compute_dt)
            t0s, t1s = util_of[tid]
            t0s.append(now)
            t1s.append(t_done)
        if srec is not None:
            srec.record_chunk(
                span_loop, tid, now, t_overhead_end, t_done,
                lo, hi, big_of[tid],
            )
        if recorder is not None:
            recorder.record(
                tid, ThreadState.RUNTIME, now, t_overhead_end, loop.name
            )
            recorder.record(
                tid, ThreadState.COMPUTE, t_overhead_end, t_done, loop.name
            )
        sim.at(t_done, lambda: step(tid), tag=f"t{tid}")

    if engine is not None:

        def restart(tid: int, t: float) -> None:
            sim.at(t, (lambda w: lambda: step(w))(tid), tag=f"t{tid}")

        def record_exec(
            tid: int, dispatch_t: float, lo: int, hi: int,
            t0: float, t1: float,
        ) -> None:
            if track_obs:
                compute_acc[tid] += max(0.0, t1 - t0)
                t0s, t1s = util_of[tid]
                t0s.append(dispatch_t)
                t1s.append(t1)
                if hi > lo and t1 > t0:
                    cmp_col.append(t1 - t0)
                    # Effective rate over the executed sub-range: fault
                    # throttles show up as steps here.
                    times, values = rate_of[tid]
                    times.append(t0)
                    values.append(float(prefix[hi] - prefix[lo]) / (t1 - t0))
            if srec is not None:
                srec.record_chunk(
                    span_loop, tid, dispatch_t, t0, t1, lo, hi, big_of[tid],
                )
            if recorder is not None:
                if t0 > dispatch_t:
                    recorder.record(
                        tid, ThreadState.RUNTIME, dispatch_t, t0, loop.name
                    )
                if t1 > t0:
                    recorder.record(
                        tid, ThreadState.COMPUTE, t0, t1, loop.name
                    )
            if hi > lo:
                if check is not None:
                    check.on_dispatch(tid, dispatch_t, (lo, hi))
                assigned.append((tid, lo, hi))
                iters[tid] += hi - lo

        def set_finish(tid: int, t: float) -> None:
            finish[tid] = t

        engine.bind(restart, record_exec, set_finish)
        # Plan firings are scheduled before the worker wake events so
        # that at equal times the fault fires first (lower seq) —
        # deterministic tie-breaking, per the sim's FIFO contract.
        engine.schedule(start_time)

    # Every thread pays the loop-start call, then begins dispatching.
    # The barrier release wakes cores in CPU-number order, so threads
    # on low-numbered (small) cores reach the pool slightly earlier —
    # harmless for most schedules, decisive for guided's large early
    # chunks.
    for tid in range(nt):
        t_begin = setup.wake_begin[tid]
        if track_obs:
            overhead_acc[tid] += t_begin - entry[tid]
            t0s, t1s = util_of[tid]
            t0s.append(entry[tid])
            t1s.append(t_begin)
        if srec is not None:
            srec.record_wake(span_loop, tid, entry[tid], t_begin)
        if recorder is not None:
            recorder.record(
                tid, ThreadState.RUNTIME, entry[tid], t_begin, loop.name
            )
        sim.at(t_begin, (lambda t: lambda: step(t))(tid), tag=f"t{tid}")

    budget = (loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
    if engine is not None:
        # The fault path schedules a separate restart event after each
        # completed block, and every fault boundary can preempt (and
        # thus re-dispatch) up to one chunk per thread.
        budget = (2 * loop.n_iterations + nt * _EVENT_BUDGET_SLACK) * 2
        budget += (nt + 2) * (engine.n_plan_events + 2) * 4
    sim.run(max_events=budget)
    if cols is not None:
        cols.flush()

    return finish_run(
        executor, req, setup,
        finish=finish,
        iters=iters,
        calls=calls,
        assigned=assigned,
        dispatches=ctx.workshare.dispatch_count,
        attempts=ctx.workshare.attempt_count,
        empty_takes=ctx.workshare.empty_take_count,
        overhead_acc=overhead_acc,
        compute_acc=compute_acc,
        engine=engine,
    )


def _drain(
    executor: "LoopExecutor", req: LoopRunRequest, setup: RunSetup, c: int
) -> "LoopResult":
    """Integrated fixed-chunk pool drain, in closed form.

    The work-share's fetch-and-add hands out chunk ``j`` to the ``j``-th
    successful dispatch, whoever makes it — so the drain's entire
    outcome is the *sequence of dispatching tids*. Everything else
    (chunk bounds, compute times, overheads, completion times) is a pure
    function of ``(tid, j, dispatch time)`` and is reconstructed
    vectorially after the loop. The loop itself only chains additions of
    floats precomputed in one numpy pass, recording ``(tid, time)``
    per dispatch.

    Fault-free runs have exactly one outstanding event per thread, so
    the heap collapses to a per-thread ``(time, seq)`` slot and a linear
    min-scan. The seq counter mirrors the simulator's push counter
    (wakes pushed in tid order, every completion re-push takes the next
    value), so FIFO tie-breaking is the heap's. Consecutive chunks of
    one thread fold into a single slot update while their completions
    precede the earliest other pending event. Dispatches therefore
    happen in chunk order, and every empty take after the last chunk:
    the instrument columns below are built in the heap's call order.

    Float-exactness notes (load-bearing, do not "simplify"):

    * The heap computes ``overhead_dt = dispatch_cost + extra`` then
      ``overhead_dt += (begin - now) + takes * svc``. With ``extra == 0``
      and ``begin == now`` this collapses to ``fl(dc + svc)`` — the
      per-thread drain constant ``C``. ``fl(dc + svc) >= svc`` for
      ``dc >= 0``, hence a thread's overhead end never precedes its own
      pool-release time and every in-drain dispatch sees a free pool,
      keeping ``begin == now`` exact throughout.
    * The drain folds only when ``now >= pool_free``, so the first
      ``max(now, pool_free)`` is exactly ``now``; the rare busy case runs
      a scalar step that replays the heap expression verbatim.
    * Chunk compute times are ``fl(fl(slowdown * work) / rate)``; numpy
      float64 elementwise arithmetic performs the identical roundings,
      and :meth:`~repro.perfmodel.locality.LocalityModel.slowdowns` is
      :meth:`~repro.perfmodel.locality.LocalityModel.slowdown` element
      for element.
    * Per-thread overhead and compute totals accumulate sequentially, in
      dispatch order, like the heap's running sums.
    """
    from repro.runtime.executor import _EVENT_BUDGET_SLACK

    loop = req.loop
    prefix = setup.prefix
    rates = setup.rates
    entry = setup.entry
    nt = setup.nt
    N = loop.n_iterations
    n_chunks = (N + c - 1) // c
    track_obs = setup.track_obs
    srec = setup.spans
    overhead = executor.overhead
    svc = overhead.atomic_service
    dc = [overhead.dispatch(setup.core_types[t], nt) for t in range(nt)]
    pool_free = setup.start_time
    finish = list(entry)
    calls = [0] * nt
    overhead_acc = [0.0] * nt
    compute_acc = [0.0] * nt

    # Per-thread event slots.
    times = list(setup.wake_begin)
    seqs = list(range(nt))
    active = [True] * nt
    live = nt
    seq_counter = nt
    if track_obs:
        for tid in range(nt):
            overhead_acc[tid] += times[tid] - entry[tid]
    budget = (N + nt * _EVENT_BUDGET_SLACK) * 2

    # Per-chunk work and per-tid chunk durations, one numpy pass.
    # cds[t][j] is exactly the heap's fl(fl(slowdown*work)/rate) for
    # thread t executing chunk j.
    los_all = c * np.arange(n_chunks)
    his_all = np.minimum(los_all + c, N)
    works_all = prefix[his_all] - prefix[los_all]
    locality = executor.locality
    warm = locality.active(req.ownership) and n_chunks > 0
    cds_rows = []
    for t in range(nt):
        if warm:
            sdns = locality.slowdowns(
                loop.kernel, req.ownership, t, los_all, his_all
            )
            cds_rows.append(sdns * works_all / rates[t])
        else:
            cds_rows.append(works_all / rates[t])
    cds_list = [row.tolist() for row in cds_rows]
    # Per-thread drain constant: overhead_dt collapses to fl(dc + svc)
    # when the pool is free at dispatch (see the docstring).
    C_of = [(dc[t] + svc) if svc > 0.0 else (dc[t] + 0.0) for t in range(nt)]

    # Dispatch times, one per dispatch; the owning tid is recorded per
    # *fold turn* as (tid, count) and expanded with np.repeat afterwards.
    # Preallocated: dispatch j consumes chunk j, so both are bounded by
    # n_chunks, and item assignment keeps the hot loop free of any
    # Python call.
    disp_nows: list[float] = [0.0] * n_chunks
    turn_tids: list[int] = [0] * n_chunks
    turn_runs: list[int] = [0] * n_chunks
    n_turns = 0
    #: dispatch index -> (overhead_dt, t_oe, t_done) for the rare
    #: pool-busy dispatches whose overhead differs from C.
    overrides: dict[int, tuple[float, float, float]] = {}
    e_tids: list[int] = []
    e_nows: list[float] = []
    e_ovhs: list[float] = []
    e_ends: list[float] = []

    nxc = 0
    events = 0
    inf = math.inf

    while live:
        # Fused scan: the earliest pending slot (FIFO tie-break on seq)
        # plus the earliest *other* pending time (the fold limit T2) in
        # one pass.
        best = -1
        bt = 0.0
        bs = 0
        t2 = inf
        for t in range(nt):
            if active[t]:
                ti = times[t]
                if best < 0:
                    best, bt, bs = t, ti, seqs[t]
                elif ti < bt or (ti == bt and seqs[t] < bs):
                    t2 = bt
                    best, bt, bs = t, ti, seqs[t]
                elif ti < t2:
                    t2 = ti
        tid = best
        now = bt
        events += 1
        if events > budget:
            raise SimulationError(
                f"simulation exceeded {budget} events; "
                "likely a livelocked scheduler"
            )

        if nxc >= n_chunks:
            # Empty take: the final fetch-and-add still occupies the
            # pool line for one service period.
            calls[tid] += 1
            overhead_dt = dc[tid] + 0.0
            if svc > 0.0:
                begin = max(now, pool_free)
                pool_free = begin + svc
                overhead_dt = overhead_dt + ((begin - now) + svc)
            end = now + overhead_dt
            finish[tid] = end
            active[tid] = False
            live -= 1
            e_tids.append(tid)
            e_nows.append(now)
            e_ovhs.append(overhead_dt)
            e_ends.append(end)
            continue

        cds_t = cds_list[tid]
        if svc > 0.0 and now < pool_free:
            # Pool line busy at dispatch time: replay the heap
            # expression verbatim for one chunk (rounding of the
            # queueing delay makes the drain constant invalid here).
            j = nxc
            nxc += 1
            calls[tid] += 1
            overhead_dt = dc[tid] + 0.0
            begin = pool_free
            pool_free = begin + svc
            overhead_dt = overhead_dt + ((begin - now) + svc)
            t_oe = now + overhead_dt
            t_done = t_oe + cds_t[j]
            turn_tids[n_turns] = tid
            turn_runs[n_turns] = 1
            n_turns += 1
            disp_nows[j] = now
            overrides[j] = (overhead_dt, t_oe, t_done)
            times[tid] = t_done
            seqs[tid] = seq_counter
            seq_counter += 1
            continue

        # Free pool: fold consecutive chunks of this thread into one
        # slot update while each completion strictly precedes the
        # earliest other pending event (on a tie the earlier-pushed
        # event fires first, so the fold must stop).
        T2 = t2
        Ct = C_of[tid]
        j0 = nxc
        d = now
        while True:
            t_done = (d + Ct) + cds_t[nxc]
            disp_nows[nxc] = d
            nxc += 1
            if t_done >= T2 or nxc >= n_chunks:
                break
            d = t_done
        k = nxc - j0
        turn_tids[n_turns] = tid
        turn_runs[n_turns] = k
        n_turns += 1
        calls[tid] += k
        events += k - 1
        if svc > 0.0:
            pool_free = d + svc
        times[tid] = t_done
        seqs[tid] = seq_counter
        seq_counter += 1

    # -- reconstruction ----------------------------------------------------
    n_disp = nxc
    del disp_nows[n_disp:]
    empty_takes = len(e_tids)

    j_arr = np.arange(n_disp)
    los = c * j_arr
    his = np.minimum(los + c, N)
    sizes = his - los
    tids_arr = np.repeat(
        np.asarray(turn_tids[:n_turns], dtype=np.int64),
        np.asarray(turn_runs[:n_turns], dtype=np.int64),
    )
    per_tid_iters = np.bincount(tids_arr, weights=sizes, minlength=nt)
    iters = [int(x) for x in per_tid_iters]
    assigned = list(zip(tids_arr.tolist(), los.tolist(), his.tolist()))

    if track_obs or srec is not None:
        nows_arr = np.asarray(disp_nows)
        C_arr = np.asarray(C_of)[tids_arr]
        cd_arr = (
            np.vstack(cds_rows)[tids_arr, j_arr] if n_disp else np.zeros(0)
        )
        ovh_arr = C_arr.copy()
        t_oe_arr = nows_arr + C_arr
        td_arr = t_oe_arr + cd_arr
        for j, (o, te, td) in overrides.items():
            ovh_arr[j] = o
            t_oe_arr[j] = te
            td_arr[j] = td

    if track_obs:
        # The appends the heap step makes, in its call order: wakes,
        # then the chunk dispatches in chunk order, then the empty
        # takes.
        cols = LoopColumns(make_instruments(executor, loop, setup.core_types))
        util_of, rate_of = cols.util_of, cols.rate_of
        run_t, run_v = cols.runnable
        chunk_t, chunk_v = cols.chunk
        for t in range(nt):
            t0s, t1s = util_of[t]
            t0s.append(entry[t])
            t1s.append(setup.wake_begin[t])
        works = works_all.tolist()
        rows = zip(
            tids_arr.tolist(), disp_nows, ovh_arr.tolist(), t_oe_arr.tolist(),
            td_arr.tolist(), cd_arr.tolist(), sizes.tolist(),
        )
        for j, (t, now, o, t_oe, t_done, cd, size) in enumerate(rows):
            overhead_acc[t] += o
            compute_acc[t] += cd
            cols.dispatch.append(o)
            run_t.append(now)
            run_v.append(max(N - c * (j + 1), 0))
            chunk_t.append(now)
            chunk_v.append(size)
            cols.size.append(size)
            cols.compute.append(cd)
            if cd > 0.0:
                times, values = rate_of[t]
                times.append(t_oe)
                values.append(works[j] / cd)
            t0s, t1s = util_of[t]
            t0s.append(now)
            t1s.append(t_done)
        for t, now, o, end in zip(e_tids, e_nows, e_ovhs, e_ends):
            overhead_acc[t] += o
            cols.dispatch.append(o)
            run_t.append(now)
            run_v.append(0)
            t0s, t1s = util_of[t]
            t0s.append(now)
            t1s.append(end)
        cols.flush()

    if srec is not None:
        e_tid_arr = np.asarray(e_tids, dtype=np.int64)
        for t in range(nt):
            srec.record_wake(setup.span_loop, t, entry[t], setup.wake_begin[t])
            mask = tids_arr == t
            srec.record_chunks_bulk(
                setup.span_loop, t, nows_arr[mask], t_oe_arr[mask],
                td_arr[mask], los[mask], his[mask], setup.big_of[t],
            )
            for i in np.flatnonzero(e_tid_arr == t):
                srec.record_empty(setup.span_loop, t, e_nows[i], e_ends[i])

    return finish_run(
        executor, req, setup,
        finish=finish,
        iters=iters,
        calls=calls,
        assigned=assigned,
        dispatches=n_disp,
        attempts=n_disp + empty_takes,
        empty_takes=empty_takes,
        overhead_acc=overhead_acc,
        compute_acc=compute_acc,
    )

