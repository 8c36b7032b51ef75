"""Layer tracing for the traced benchmark run, applied from outside the package.

The tracer wraps public functions of ``repro`` at the seams between its
layers. Coarse boundaries (a grid cell, a program run, a loop, a backend
run, a cache operation, a snapshot encode or merge, the merged snapshot)
become spans: name, start, end and parent, kept in memory and written out
when the run ends.
Per-dispatch calls (scheduler ``next_range``, perfmodel ``rate`` and
``slowdown``, fault-engine hooks, metric-instrument calls) are too many
for spans; they get an aggregated call count and inclusive time instead.

A span's self time is its duration minus the part covered by its child
spans and by the outermost aggregated calls made inside it, so the
per-layer split adds up to the traced wall time without double counting.
An aggregated seam re-entered through a subclass ``super()`` call counts
once.

Wrappers exist only in the process that installed them: a fork-started
fleet worker restores the original functions at once, so worker-side time
is only seen through ``JobResult.duration``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict


def _classes_defining(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    seen, out, todo = set(), [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """Spans plus aggregated counters over the package's layer seams."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._busy: dict[str, list[bool]] = {}
        self._agg_depth = [0]
        # key -> [calls, inclusive seconds]; wrappers mutate it in place.
        self.agg: dict[str, list] = {}
        self._fork_hook = False
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self.span_calls: dict[str, int] = defaultdict(int)
        self.span_self: dict[str, float] = defaultdict(float)
        self.span_total: dict[str, float] = defaultdict(float)
        for stat in self.agg.values():
            stat[0], stat[1] = 0, 0.0
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        rec = [len(self.spans) + len(self._stack), name, time.perf_counter(),
               0.0, parent]
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - rec[2]
        name = rec[1]
        self.span_calls[name] += 1
        self.span_total[name] += dur
        self.span_self[name] += dur - rec[3]
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((rec[0], rec[4], name, rec[2], t1))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            # A same-named span directly open (a backend delegating to
            # another backend) is one call of the layer, not two.
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _agg_wrapper(self, key, fn):
        stat = self.agg.setdefault(key, [0, 0.0])
        busy = self._busy.setdefault(key, [False])
        depth = self._agg_depth
        perf_counter = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            outer = depth[0] == 0
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[0] -= 1
                busy[0] = False
                stat[0] += 1
                stat[1] += dt
                stack = tracer._stack
                if outer and stack:
                    stack[-1][3] += dt

        return wrapper

    def _counting_wrapper(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[key] += result
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_methods(self, classes, attr, make) -> None:
        for cls in classes:
            self._patch(cls, attr, make(cls.__dict__[attr]))

    def _patch_function(self, module_attr: str, make) -> None:
        """Replace a module-level function everywhere ``repro`` bound it."""
        module_name, attr = module_attr.rsplit(".", 1)
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                module is not None and module.__dict__.get(attr) is original
            ):
                self._patch(module, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every seam (after the workload's imports); ``uninstall``
        restores the originals, so untraced passes run unwrapped."""
        import repro.backends  # noqa: F401 - registers every backend class
        import repro.experiments.harness  # noqa: F401 - binds run_jobs
        import repro.fleet
        import repro.obs.merge  # noqa: F401
        import repro.obs.snapshot  # noqa: F401
        import repro.sched.registry  # noqa: F401 - loads every scheduler
        from repro.backends.core import ExecutionBackend
        from repro.faults.engine import SimFaultEngine
        from repro.fleet.checkpoint import SweepCheckpoint
        from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
        from repro.obs.timeseries import QuantileDigest, TimeSeries
        from repro.perfmodel.locality import LocalityModel
        from repro.perfmodel.speed import PerfModel
        from repro.runtime.executor import LoopExecutor
        from repro.runtime.program_runner import ProgramRunner
        from repro.sched.base import LoopScheduler
        from repro.sim.events import Simulator

        span, agg = self._span_wrapper, self._agg_wrapper
        count = self.count

        def add_dispatches(result):
            count("runtime.dispatches", result.dispatches)

        def add_retries(outcomes):
            count("fleet.retries",
                  sum(max(0, o.attempts - 1) for o in outcomes))

        def add_hit(result):
            count("fleet.cache.get.hits", result is not None)

        def add_put_bytes(path):
            count("fleet.cache.put.bytes", os.path.getsize(path))

        def add_encode_bytes(text):
            count("obs.encode.bytes", len(text.encode("utf-8")))

        def add_snapshot_bytes(text):
            count("obs.snapshot.bytes", len(text.encode("utf-8")))

        self._patch(ProgramRunner, "run",
                    span("runtime.run", ProgramRunner.__dict__["run"]))
        for attr in ("run", "run_inline_static"):
            self._patch(LoopExecutor, attr, span(
                "runtime.loop", LoopExecutor.__dict__[attr], add_dispatches))
        self._patch_methods(
            _classes_defining(ExecutionBackend, "run_scheduled"),
            "run_scheduled", lambda fn: span("backends.run_scheduled", fn))
        self._patch(Simulator, "run", self._counting_wrapper(
            "sim.events", Simulator.__dict__["run"]))
        self._patch_methods(
            _classes_defining(LoopScheduler, "next_range"), "next_range",
            lambda fn: agg("sched.next_range", fn))
        self._patch(PerfModel, "rate",
                    agg("perfmodel.rate", PerfModel.__dict__["rate"]))
        self._patch(LocalityModel, "slowdown", agg(
            "perfmodel.slowdown", LocalityModel.__dict__["slowdown"]))
        for attr in ("schedule", "begin_block", "adjust_overhead"):
            self._patch(SimFaultEngine, attr,
                        agg("faults", SimFaultEngine.__dict__[attr]))
        # Instrument publication: get-or-create plus every update call of
        # the live instruments (the null sinks are separate classes and
        # stay unwrapped, so obs-off runs read zero).
        for cls, attrs in (
            (MetricsRegistry,
             ("counter", "gauge", "histogram", "timeseries", "digest")),
            (Counter, ("inc",)),
            (Gauge, ("set", "add")),
            (Histogram, ("observe", "observe_many")),
            (TimeSeries,
             ("observe", "observe_span", "observe_many", "observe_spans")),
            (QuantileDigest, ("observe", "observe_many")),
        ):
            for attr in attrs:
                self._patch(cls, attr, agg("obs.publish", cls.__dict__[attr]))
        self._patch_function("repro.obs.merge.job_snapshot_json",
                             lambda fn: span("obs.encode", fn, add_encode_bytes))
        self._patch(repro.fleet.FleetProgress, "job_obs", span(
            "obs.merge", repro.fleet.FleetProgress.__dict__["job_obs"]))
        # The merged fleet snapshot: building the document, then its JSON.
        self._patch(repro.fleet.FleetProgress, "obs_snapshot", span(
            "obs.snapshot", repro.fleet.FleetProgress.__dict__["obs_snapshot"]))
        self._patch_function("repro.obs.snapshot.to_json", lambda fn: span(
            "obs.snapshot", fn, add_snapshot_bytes))
        self._patch_function("repro.fleet.pool.run_jobs",
                             lambda fn: span("fleet.run_jobs", fn, add_retries))
        cache = repro.fleet.ResultCache
        self._patch(cache, "get",
                    span("fleet.cache.get", cache.__dict__["get"], add_hit))
        self._patch(cache, "put", span(
            "fleet.cache.put", cache.__dict__["put"], add_put_bytes))
        self._patch(SweepCheckpoint, "record", span(
            "fleet.checkpoint", SweepCheckpoint.__dict__["record"]))
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything recorded since the last reset."""
        calls, own, counts = self.span_calls, self.span_self, self.counts

        def agg(key):
            return self.agg.get(key, [0, 0.0])

        events = counts["sim.events"]
        backend_self = own["backends.run_scheduled"]
        return {
            "runtime.run.calls": calls["runtime.run"],
            "runtime.run.self_s": own["runtime.run"],
            "runtime.loops": calls["runtime.loop"],
            "runtime.dispatches": counts["runtime.dispatches"],
            "backends.run_scheduled.calls": calls["backends.run_scheduled"],
            "backends.run_scheduled.self_s": backend_self,
            "sim.events": events,
            "backends.us_per_event":
                1e6 * backend_self / events if events else 0.0,
            "sched.next_range.calls": agg("sched.next_range")[0],
            "sched.next_range.s": agg("sched.next_range")[1],
            "perfmodel.rate.calls": agg("perfmodel.rate")[0],
            "perfmodel.rate.s": agg("perfmodel.rate")[1],
            "perfmodel.slowdown.calls": agg("perfmodel.slowdown")[0],
            "perfmodel.slowdown.s": agg("perfmodel.slowdown")[1],
            "faults.calls": agg("faults")[0],
            "faults.s": agg("faults")[1],
            "obs.publish.calls": agg("obs.publish")[0],
            "obs.publish.s": agg("obs.publish")[1],
            "obs.encode.calls": calls["obs.encode"],
            "obs.encode.s": self.span_total["obs.encode"],
            "obs.encode.bytes": counts["obs.encode.bytes"],
            "obs.merge.calls": calls["obs.merge"],
            "obs.merge.s": self.span_total["obs.merge"],
            "obs.snapshot.s": self.span_total["obs.snapshot"],
            "obs.snapshot.bytes": counts["obs.snapshot.bytes"],
            "fleet.run_jobs.calls": calls["fleet.run_jobs"],
            "fleet.run_jobs.self_s": own["fleet.run_jobs"],
            "fleet.cache.get.calls": calls["fleet.cache.get"],
            "fleet.cache.get.hits": counts["fleet.cache.get.hits"],
            "fleet.cache.get.s": self.span_total["fleet.cache.get"],
            "fleet.cache.put.calls": calls["fleet.cache.put"],
            "fleet.cache.put.s": self.span_total["fleet.cache.put"],
            "fleet.cache.put.bytes": counts["fleet.cache.put.bytes"],
            "fleet.checkpoint.records": calls["fleet.checkpoint"],
            "fleet.checkpoint.s": self.span_total["fleet.checkpoint"],
            "fleet.retries": counts["fleet.retries"],
        }

    def span_records(self) -> list[dict]:
        """The recorded spans, parents before children, for writing out."""
        return [
            {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
            for sid, parent, name, t0, t1 in sorted(self.spans)
        ]


class NullTracer:
    """The untraced run's stand-in: the benchmark's own spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()
