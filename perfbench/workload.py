"""One benchmark workload in a fresh interpreter: set up, time, check.

``perfbench/run.py`` starts this script once per run with a scrubbed
environment (``PYTHONPATH`` at the checkout's ``src``). It sets the
workload up, runs timed passes over it, checks every simulated output
against the committed expectations and prints one JSON document as its
last line of standard output. ``--setup-only`` stops at the first timed
call, which is how ``run.py`` takes extra set-up samples.

Set-up time runs from ``--t0`` (a ``time.monotonic()`` stamp the parent
takes just before starting the interpreter; the clock is system-wide) to
the first timed call. Untraced passes time on a :class:`HostClock` that
normalizes for the host's speed drift; traced passes keep raw time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import expected
from hostspeed import HostClock
from tracer import NullTracer, Tracer

from repro.fleet import FleetProgress

#: Worker processes of the fleet workload (the paper box has 2 CPUs).
FLEET_JOBS = 2
#: Traced passes of a traced run: the determinism self-check compares them.
TRACED_PASSES = 2
#: ``fault_sweep`` marks the host clock after every this many loop runs.
SWEEP_PROBE_EVERY = 8


@dataclass
class PassResult:
    """What one timed pass measured and produced."""

    #: Phase name -> normalized seconds (see ``hostspeed``). One phase,
    #: or ``cold`` and ``warm``; ``raw_phases`` holds the host seconds.
    phases: dict[str, float]
    raw_phases: dict[str, float]
    #: Normalized seconds of each cell.
    cell_seconds: list[float] = field(default_factory=list)
    #: Checked outputs, and those that failed: a cell missing (its run
    #: raised) or different from the expected value, a bad snapshot.
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Exceptions raised during the pass (their cells fail as missing).
    errors: list[str] = field(default_factory=list)
    #: Fleet worker busy seconds (Σ JobResult.duration of computed jobs),
    #: the wall seconds of the phase that computed them, and its workers.
    worker_busy_s: float = 0.0
    computing_wall_s: float = 0.0
    workers: int = 1
    traced: bool = False
    #: Peak resident set (MiB) of this process and its reaped workers so
    #: far, read when the timed part ends (checking allocates too).
    peak_rss_mb: float = 0.0

    @property
    def worker_util(self) -> float:
        capacity = self.workers * self.computing_wall_s
        return self.worker_busy_s / capacity if capacity else 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class ProbingProgress(FleetProgress):
    """A fleet progress sink that marks the host clock after every job's
    completion, cache hit and snapshot merge.

    The marks cut a fleet phase into per-job segments for host-speed
    normalization; ``cell_seconds`` gives each job's ``JobResult.duration``
    the host speed seen around its completion, which suits jobs that ran
    inline, in this process. A probe reads its own CPU time (see
    ``hostspeed``), so probes taken while fleet workers compute do not
    count the time they wait for a CPU.
    """

    def __init__(self, clock: HostClock) -> None:
        super().__init__()
        self.clock = clock
        self.raw_durations: list[float] = []
        self.cell_seconds: list[float] = []

    def job_completed(self, spec, duration: float, attempts: int) -> None:
        super().job_completed(spec, duration, attempts)
        k = self.clock.mark()
        self.raw_durations.append(duration)
        self.cell_seconds.append(self.clock.segment(k - 1, duration))

    def cache_hit(self, spec) -> None:
        super().cache_hit(spec)
        self.clock.mark()

    def job_obs(self, spec, result) -> None:
        super().job_obs(spec, result)
        self.clock.mark()


def _close(actual: float | None, want: float) -> bool:
    # The simulator is deterministic: exact equality, no tolerance.
    return actual is not None and actual == want


def _check_grid(res: PassResult, times: dict, want: dict, where: str) -> None:
    for program, row in want.items():
        for label, value in row.items():
            got = times.get(program, {}).get(label)
            res.check(_close(got, value),
                      f"{where} {program}/{label}: {got!r} != {value!r}")


def _check_snapshot(res: PassResult, path: Path, cells: int,
                    where: str) -> None:
    try:
        merged = json.loads(path.read_text(encoding="utf-8"))["merged_jobs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        merged = f"unreadable: {exc!r}"
    res.check(merged == cells,
              f"{where} merged snapshot carries {merged!r} captures, "
              f"want {cells}")


class Workload:
    """Inputs built at set-up, and one timed pass over them."""

    def __init__(self, root_seed: int, scratch: Path) -> None:
        self.root_seed = root_seed
        self.scratch = scratch
        self.want = expected.load(root_seed)

    def run_pass(self, tracer, clock: HostClock) -> PassResult:
        raise NotImplementedError


class Fig6Engine(Workload):
    """Fig. 6 grid, serial, in process, observability off."""

    platform_name = "odroid_xu4"

    def __init__(self, root_seed: int, scratch: Path) -> None:
        super().__init__(root_seed, scratch)
        from repro.amp import presets
        from repro.experiments.harness import default_configs
        from repro.workloads.registry import all_programs

        self.platform = getattr(presets, self.platform_name)()
        self.programs = all_programs()
        self.configs = default_configs()

    def run_pass(self, tracer, clock: HostClock) -> PassResult:
        from repro.experiments.harness import run_one

        times: dict[str, dict[str, float]] = {}
        cell_seconds, errors = [], []
        first = k = clock.mark()
        for program in self.programs:
            row = times.setdefault(program.name, {})
            for config in self.configs:
                try:
                    with tracer.span("cell"):
                        row[config.label] = run_one(
                            self.platform, program, config,
                            root_seed=self.root_seed,
                        ).completion_time
                except Exception as exc:  # a raising cell is a failed cell
                    errors.append(f"{program.name}/{config.label}: {exc!r}")
                k = clock.mark()
                cell_seconds.append(clock.segment(k - 1))
        raw, norm = clock.interval(first, k)
        res = PassResult({"grid": norm}, {"grid": raw}, cell_seconds,
                         errors=errors, peak_rss_mb=_peak_rss_mb())
        _check_grid(res, times, self.want["grids"][self.platform_name],
                    self.platform_name)
        return res


class Fig6Observed(Fig6Engine):
    """The same cells through the inline fleet with live observability."""

    def run_pass(self, tracer, clock: HostClock) -> PassResult:
        from repro.experiments.harness import run_grid

        progress = ProbingProgress(clock)
        snapshot = self.scratch / "snapshot.json"
        grid, error = None, None
        first = clock.mark()
        try:
            grid = run_grid(self.platform, self.programs, self.configs,
                            root_seed=self.root_seed, progress=progress,
                            obs_snapshot_path=snapshot)
        except Exception as exc:
            error = repr(exc)
        raw, norm = clock.interval(first, clock.mark())
        res = PassResult({"grid": norm}, {"grid": raw}, progress.cell_seconds,
                         peak_rss_mb=_peak_rss_mb())
        res.worker_busy_s = sum(progress.raw_durations)
        res.computing_wall_s = raw
        if error:
            res.errors.append(error)
        del progress
        _check_grid(res, grid.times if grid else {},
                    self.want["grids"][self.platform_name], self.platform_name)
        _check_snapshot(res, snapshot, len(self.programs) * len(self.configs),
                        self.platform_name)
        snapshot.unlink(missing_ok=True)
        return res


class _Sweep(NamedTuple):
    """One fleet sweep of ``Fig7Fleet``: times and what the checks need."""

    raw: float
    norm: float
    grid: object
    snapshot: Path
    error: str | None
    cell_seconds: list[float]
    worker_busy_s: float
    cache_hits: float


class Fig7Fleet(Fig6Engine):
    """Fig. 7 grid on the process fleet: a cold sweep, then a warm replay."""

    platform_name = "xeon_emulated"

    def _sweep(self, tmp: Path, phase: str, clock: HostClock) -> _Sweep:
        """One sweep over the cache in ``tmp`` with a fresh journal."""
        from repro.experiments.harness import run_grid
        from repro.fleet import ResultCache, Supervisor, SweepCheckpoint

        progress = ProbingProgress(clock)
        checkpoint = SweepCheckpoint(tmp / f"{phase}.jsonl")
        snapshot = tmp / f"{phase}-snapshot.json"
        grid, error = None, None
        first = clock.mark()
        try:
            checkpoint.begin({"platform": self.platform_name,
                              "root_seed": self.root_seed})
            grid = run_grid(
                self.platform, self.programs, self.configs,
                root_seed=self.root_seed, jobs=FLEET_JOBS,
                cache=ResultCache(tmp / "cache"), progress=progress,
                checkpoint=checkpoint, dispatcher="process",
                supervisor=Supervisor(), obs_snapshot_path=snapshot,
            )
            checkpoint.finish()
        except Exception as exc:
            error = repr(exc)
        finally:
            checkpoint.close()
        raw, norm = clock.interval(first, clock.mark())
        # A worker computed each cell on either CPU, away from the probe
        # taken at its completion: rate it by the whole sweep's speed.
        cells = [d * norm / raw for d in progress.raw_durations]
        # Keep only what the checks need: the merged registry is large.
        return _Sweep(raw, norm, grid, snapshot, error, cells,
                      sum(progress.raw_durations),
                      progress.count("fleet_cache_hits"))

    def run_pass(self, tracer, clock: HostClock) -> PassResult:
        tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.scratch))
        try:
            cold = self._sweep(tmp, "cold", clock)
            warm = self._sweep(tmp, "warm", clock)
            res = PassResult({"cold": cold.norm, "warm": warm.norm},
                             {"cold": cold.raw, "warm": warm.raw},
                             cold.cell_seconds, peak_rss_mb=_peak_rss_mb())
            res.worker_busy_s = cold.worker_busy_s
            res.computing_wall_s = cold.raw
            res.workers = FLEET_JOBS
            want = self.want["grids"][self.platform_name]
            cells = len(self.programs) * len(self.configs)
            for phase, sweep in (("cold", cold), ("warm", warm)):
                where = f"{self.platform_name} {phase}"
                if sweep.error:
                    res.errors.append(f"{where}: {sweep.error}")
                _check_grid(res, sweep.grid.times if sweep.grid else {},
                            want, where)
                _check_snapshot(res, sweep.snapshot, cells, where)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        res.check(warm.cache_hits == cells,
                  f"warm replay hit the cache {warm.cache_hits:g} times, "
                  f"want {cells}")
        if cold.grid and warm.grid:
            res.check(cold.grid.times == warm.grid.times,
                      "warm replay differs from the cold sweep")
        return res


@contextlib.contextmanager
def _probing_loops(clock: HostClock):
    """Mark ``clock`` after every ``SWEEP_PROBE_EVERY``-th loop run of
    ``resilience.sweep``.

    ``sweep`` has no progress hook, so the benchmark wraps the ``run_loop``
    it calls, as the traced run wraps its seams. Where that seam is gone
    the sweep is still timed whole, only normalized more coarsely.
    """
    from repro.experiments import resilience

    original = resilience.__dict__.get("run_loop")
    if original is None:
        yield
        return
    calls = 0

    def run_loop(*args, **kwargs):
        nonlocal calls
        result = original(*args, **kwargs)
        calls += 1
        if calls % SWEEP_PROBE_EVERY == 0:
            clock.mark()
        return result

    resilience.run_loop = run_loop
    try:
        yield
    finally:
        resilience.run_loop = original


class FaultSweep(Workload):
    """Resilience sweep on both platforms, one ``sweep`` call each; the
    sweep of one platform is the workload's cell."""

    def run_pass(self, tracer, clock: HostClock) -> PassResult:
        from repro.experiments.resilience import sweep

        got, cell_seconds, errors = {}, [], []
        first = k = clock.mark()
        for platform in expected.SWEEP_PLATFORMS:
            start = k
            try:
                with tracer.span("cell"), _probing_loops(clock):
                    report = sweep(platform, seeds=expected.SWEEP_SEEDS,
                                   root_seed=self.root_seed)
                for cell in report.cells:
                    got[platform, cell.variant,
                        expected.intensity_key(cell.intensity)] = cell
            except Exception as exc:
                errors.append(f"{platform}: {exc!r}")
            k = clock.mark()
            cell_seconds.append(clock.interval(start, k)[1])
        raw, norm = clock.interval(first, k)
        res = PassResult({"sweep": norm}, {"sweep": raw}, cell_seconds,
                         errors=errors, peak_rss_mb=_peak_rss_mb())
        for platform, variants in self.want["resilience"].items():
            for variant, by_intensity in variants.items():
                for intensity, want in by_intensity.items():
                    cell = got.get((platform, variant, intensity))
                    for name in ("degradation", "recovery"):
                        value = getattr(cell, name, None)
                        res.check(_close(value, want[name]),
                                  f"{platform}/{variant}/{intensity} {name}: "
                                  f"{value!r} != {want[name]!r}")
        return res


WORKLOADS = {
    "fig6_engine": Fig6Engine,
    "fig6_observed": Fig6Observed,
    "fig7_fleet": Fig7Fleet,
    "fault_sweep": FaultSweep,
}


#: Work counts two traced passes of the same inputs must repeat exactly.
DETERMINISTIC_COUNTS = (
    "sim.events", "runtime.run.calls", "runtime.loops", "runtime.dispatches",
    "backends.run_scheduled.calls", "sched.next_range.calls",
    "perfmodel.rate.calls", "perfmodel.slowdown.calls", "faults.calls",
    "obs.publish.calls", "obs.encode.calls", "obs.encode.bytes",
    "obs.merge.calls", "fleet.run_jobs.calls", "fleet.cache.get.calls",
    "fleet.cache.get.hits", "fleet.cache.put.calls",
    "fleet.checkpoint.records",
)
#: Layers each workload must not touch at all (the predicted zeros).
PREDICTED_ZERO = {
    "fig6_engine": ("obs.publish.calls", "obs.encode.calls", "obs.merge.calls",
                    "fleet.run_jobs.calls", "fleet.cache.get.calls",
                    "fleet.cache.put.calls", "fleet.checkpoint.records",
                    "faults.calls"),
    "fig6_observed": ("faults.calls",),
    "fig7_fleet": ("faults.calls",),
    "fault_sweep": (),
}


def trace_checks(name: str, layers: list[dict]) -> dict:
    """The traced run's self-check: repeatable work counts, predicted zeros."""
    failures = []
    first = layers[0]
    for other in layers[1:]:
        for key in DETERMINISTIC_COUNTS:
            if other[key] != first[key]:
                failures.append(f"{key} differs between traced passes: "
                                f"{first[key]!r} != {other[key]!r}")
    for key in PREDICTED_ZERO[name]:
        for metrics in layers:
            if metrics[key]:
                failures.append(f"{key} is {metrics[key]!r} on {name}, "
                                f"predicted 0")
                break
    attempted = (len(layers) - 1) * len(DETERMINISTIC_COUNTS) + len(
        PREDICTED_ZERO[name])
    return {"attempted": attempted, "failures": failures}


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its (reaped) workers."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _run_passes(workload: Workload, seconds: float) -> list[PassResult]:
    """Untraced passes while another one fits in ``seconds`` (at least one)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(NullTracer(), HostClock()))
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def _run_traced(workload: Workload, tracer: Tracer) -> tuple[list, list]:
    """One untraced pass, then the traced ones; all in raw time, since the
    wrappers would time the host-speed probes too."""
    passes = [workload.run_pass(NullTracer(), HostClock(probe=False))]
    layers = []
    gc.collect()
    for _ in range(TRACED_PASSES):
        tracer.reset()
        tracer.install()
        try:
            traced = workload.run_pass(tracer, HostClock(probe=False))
        finally:
            tracer.uninstall()
        traced.traced = True
        passes.append(traced)
        gc.collect()
        metrics = tracer.layer_metrics()
        metrics["fleet.worker_busy_s"] = traced.worker_busy_s
        metrics["fleet.worker_util"] = traced.worker_util
        metrics["trace.wall_s"] = traced.wall_s
        layers.append(metrics)
    return passes, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--root-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.backends.core import resolve_backend_name

    workload = WORKLOADS[args.workload](args.root_seed, args.scratch)
    setup_s = time.monotonic() - args.t0
    doc: dict = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        doc["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "backend": resolve_backend_name(),
        }
        if args.trace:
            tracer = Tracer()
            passes, layers = _run_traced(workload, tracer)
            doc["layers"] = layers
            doc["trace_checks"] = trace_checks(args.workload, layers)
            if args.spans_out is not None:
                args.spans_out.write_text(json.dumps(
                    {"workload": args.workload, "root_seed": args.root_seed,
                     "spans": tracer.span_records()}), encoding="utf-8")
        else:
            passes = _run_passes(workload, args.seconds)
        doc["passes"] = [
            {"phases": p.phases, "raw_phases": p.raw_phases,
             "cell_seconds": p.cell_seconds, "attempted": p.attempted,
             "failures": p.failures, "errors": p.errors, "traced": p.traced}
            for p in passes
        ]
        doc["peak_rss_mb"] = passes[0].peak_rss_mb
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
