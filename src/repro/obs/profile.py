"""Profilers: sim-time cost attribution and wall-clock hotspots.

Two complementary views of where time goes:

* :func:`cost_attribution` is *deterministic*: it reads the
  ``sim_time_seconds_total{loop, core_type, category}`` counters the
  runtime publishes (compute / runtime overhead / fault stall from
  :class:`~repro.runtime.executor.LoopExecutor`, barrier idle from
  :class:`~repro.runtime.program_runner.ProgramRunner`) and renders the
  simulated-seconds split per loop and core type — the quantity the
  paper's overhead arguments are about.
* :class:`HotspotProfiler` is *wall-clock*: a :mod:`cProfile` wrapper
  producing a ranked self-time report of the DES hot path, keyed by a
  scenario digest (the SHA-256 of the profiled
  :class:`~repro.fleet.jobs.JobSpec` identities) so baselines from
  different grids are never confused. It finds hotspots; cProfile
  distorts the totals, so speed claims come from the ``perfbench/``
  benchmark instead.

``python -m repro.obs.report profile`` drives both over the Fig. 6 grid
and CI uploads the result as the standing baseline artifact.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import pstats
from typing import Mapping, Sequence

#: Schema of the JSON document ``report profile --json`` writes.
#: v2: the document carries the profiled execution backend and the
#: wall-clock seconds of the grid run.
PROFILE_SCHEMA = "repro.obs.profile/v2"

#: Attribution categories, in display order.
CATEGORIES = ("compute", "overhead", "stall", "idle")


def cost_attribution(snapshot: Mapping) -> list[dict]:
    """Per-(loop, core_type) sim-time split from a snapshot document.

    Values sum over any extra label dimensions (program/config/platform
    on fleet-merged snapshots), mirroring how the report CLI aggregates
    every other counter. Rows are sorted by (loop, core_type).
    """
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for m in (snapshot.get("metrics", {}) or {}).get("counters", []):
        if m.get("name") != "sim_time_seconds_total":
            continue
        labels = m.get("labels", {})
        key = (str(labels.get("loop", "?")), str(labels.get("core_type", "?")))
        slot = cells.setdefault(key, {c: 0.0 for c in CATEGORIES})
        category = str(labels.get("category", "?"))
        slot[category] = slot.get(category, 0.0) + float(m.get("value", 0.0))
    rows = []
    for (loop, core_type), split in sorted(cells.items()):
        total = sum(split.values())
        rows.append(
            {
                "loop": loop,
                "core_type": core_type,
                **{c: split.get(c, 0.0) for c in CATEGORIES},
                "total": total,
            }
        )
    return rows


def format_cost_attribution(snapshot: Mapping) -> str:
    """The attribution table as text (empty string when nothing to show)."""
    rows = cost_attribution(snapshot)
    if not rows:
        return ""
    header = (
        f"{'loop':<24s}{'core_type':<12s}"
        + "".join(f"{c + '_s':>12s}" for c in CATEGORIES)
        + f"{'total_s':>12s}{'compute%':>10s}"
    )
    lines = ["sim-time cost attribution (simulated seconds)", header,
             "-" * len(header)]
    for r in rows:
        pct = 100.0 * r["compute"] / r["total"] if r["total"] > 0 else 0.0
        lines.append(
            f"{r['loop']:<24s}{r['core_type']:<12s}"
            + "".join(f"{r[c]:>12.6f}" for c in CATEGORIES)
            + f"{r['total']:>12.6f}{pct:>9.1f}%"
        )
    return "\n".join(lines)


def scenario_digest(specs: Sequence) -> str:
    """Stable identity of a profiled scenario: the SHA-256 over the
    member :class:`~repro.fleet.jobs.JobSpec` digests, in grid order."""
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.key.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


class HotspotProfiler:
    """cProfile wrapper producing ranked self-time hotspot reports."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def run(self, fn, *args, **kwargs):
        """Run ``fn`` under the profiler; returns its result."""
        self._profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self._profile.disable()

    def hotspots(self, top: int = 20) -> list[dict]:
        """The ``top`` functions by self (tottime) wall-clock seconds."""
        stats = pstats.Stats(self._profile, stream=io.StringIO())
        rows = []
        for (path, lineno, func), (cc, nc, tt, ct, _callers) in (
            stats.stats.items()  # type: ignore[attr-defined]
        ):
            rows.append(
                {
                    "function": func,
                    "location": f"{path}:{lineno}",
                    "ncalls": int(nc),
                    "self_seconds": float(tt),
                    "cumulative_seconds": float(ct),
                }
            )
        rows.sort(key=lambda r: (-r["self_seconds"], r["location"]))
        return rows[:top]


def format_hotspots(rows: Sequence[Mapping], scenario: str = "") -> str:
    """The hotspot rows as a ranked text table."""
    lines = []
    title = "wall-clock hotspots (cProfile self time)"
    if scenario:
        title += f"  scenario={scenario[:12]}"
    lines.append(title)
    header = (
        f"{'#':>3s}  {'self_s':>9s}{'cum_s':>9s}{'calls':>10s}  function"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, r in enumerate(rows, 1):
        loc = r["location"]
        # Keep the repo-relative tail; site-packages noise stays short.
        if "/repro/" in loc:
            loc = "repro/" + loc.split("/repro/", 1)[1]
        lines.append(
            f"{i:>3d}  {r['self_seconds']:>9.4f}{r['cumulative_seconds']:>9.4f}"
            f"{r['ncalls']:>10d}  {r['function']}  ({loc})"
        )
    return "\n".join(lines)


def profile_grid(
    platform_name: str = "odroid_xu4",
    programs: Sequence[str] | None = None,
    top: int = 20,
    backend: str | None = None,
):
    """Run one experiment grid serially under the wall-clock profiler.

    Returns ``(hotspots, snapshot, scenario)``: the ranked hotspot rows,
    the merged observability snapshot of the profiled run (the input to
    :func:`cost_attribution`), and the scenario digest. The default is
    the paper's Fig. 6 grid (odroid_xu4, all programs, all configs) —
    the ROADMAP-item-1 baseline scenario. ``backend`` selects the
    execution backend for every cell (``None`` = environment override,
    then ``reference``); the scenario digest covers it, so baselines of
    the same grid on different backends never get confused.
    """
    from repro.amp import presets
    from repro.backends import resolve_backend_name
    from repro.experiments.harness import (
        default_configs,
        grid_specs,
        run_grid,
    )
    from repro.fleet.progress import FleetProgress
    from repro.workloads.registry import all_programs, get_program

    platform_factory = getattr(presets, platform_name)
    platform = platform_factory()
    progs = (
        [get_program(p) for p in programs] if programs else all_programs()
    )
    configs = default_configs()
    backend = resolve_backend_name(backend)
    scenario = scenario_digest(
        grid_specs(platform, progs, configs, backend=backend)
    )
    progress = FleetProgress()
    profiler = HotspotProfiler()
    profiler.run(
        run_grid,
        platform,
        programs=progs,
        configs=configs,
        progress=progress,
        backend=backend,
    )
    snapshot = progress.obs_snapshot(
        meta={
            "profiled": "grid",
            "platform": platform.name,
            "backend": backend,
        }
    )
    return profiler.hotspots(top), snapshot, scenario
