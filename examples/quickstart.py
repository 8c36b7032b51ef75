#!/usr/bin/env python3
"""Quickstart: run one benchmark under every schedule on both platforms.

This is the library's 5-minute tour: build the paper's two AMP
platforms, pick a workload, and compare the conventional OpenMP loop
schedules against the three AID methods.

Run::

    python examples/quickstart.py [program] [--obs [DIR]] [--jobs N]
                                  [--backend NAME]

With ``--obs``, the AID-hybrid run on Platform A additionally writes the
observability artifacts into DIR (default ``obs_out/``): a metrics
snapshot (``metrics.json``), the scheduler decision log
(``decisions.jsonl``) and a Chrome trace (``trace.json`` — open it at
chrome://tracing or https://ui.perfetto.dev). Summarize the snapshot
with ``python -m repro.obs.report DIR/metrics.json``.

With ``--jobs N``, the same grids regenerate through the
:mod:`repro.fleet` orchestration engine instead: cells fan out over N
worker processes and land in the content-addressed result cache
(``.fleet-cache/`` or ``$FLEET_CACHE_DIR``), so a second invocation is
pure cache hits. A cached-vs-computed summary is printed at the end —
the numbers themselves are identical either way, because the simulator
is deterministic.

With ``--backend NAME``, every loop runs through the named execution
backend (also selectable via ``REPRO_BACKEND``): ``reference``, the
deterministic simulated engine and the default, or ``real``, which runs
each loop's schedule on actual Python threads in wall-clock time.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import OmpEnv, ProgramRunner, get_program, odroid_xu4, xeon_emulated
from repro.obs import Observability
from repro.obs.chrome_trace import export_chrome_trace
from repro.obs.snapshot import completion_payload, write_snapshot

#: Schedule/affinity combinations of the paper's Figs. 6 and 7.
CONFIGS = [
    ("static", "SB"),
    ("static", "BS"),
    ("dynamic,1", "SB"),
    ("dynamic,1", "BS"),
    ("aid_static", "BS"),
    ("aid_hybrid,80", "BS"),
    ("aid_dynamic,1,5", "BS"),
]

#: The configuration whose run emits the --obs artifacts.
OBS_CONFIG = ("aid_hybrid,80", "BS")


def write_obs_artifacts(
    out_dir: Path, obs: Observability, runner: ProgramRunner, meta: dict
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot(out_dir / "metrics.json", obs, meta=meta)
    obs.decisions.write_jsonl(out_dir / "decisions.jsonl")
    if runner.recorder is not None:
        trace_json = export_chrome_trace(
            runner.recorder,
            decisions=obs.decisions.records,
            # Counter lanes: utilization/rate/pool-depth timelines render
            # alongside the per-thread state tracks in Perfetto.
            timeseries=obs.registry.snapshot()["timeseries"],
        )
        (out_dir / "trace.json").write_text(trace_json, encoding="utf-8")
    print(f"  [obs] artifacts written to {out_dir}/ "
          "(metrics.json, decisions.jsonl, trace.json)")


def run_fleet(program, jobs: int, backend: str | None = None) -> None:
    """Regenerate both per-program grids through the fleet."""
    from repro.experiments.harness import ScheduleConfig, run_grid
    from repro.fleet import FleetProgress, ResultCache

    configs = [
        ScheduleConfig(f"{schedule}({affinity})",
                       OmpEnv(schedule=schedule, affinity=affinity))
        for schedule, affinity in CONFIGS
    ]
    cache = ResultCache()
    progress = FleetProgress()
    for platform in (odroid_xu4(), xeon_emulated()):
        print(platform.describe())
        grid = run_grid(
            platform,
            programs=[program],
            configs=configs,
            jobs=jobs,
            cache=cache,
            progress=progress,
            backend=backend,
        )
        row = grid.times[program.name]
        baseline = row[configs[0].label]
        for label, t in row.items():
            norm = baseline / t
            bar = "#" * round(norm * 25)
            print(f"  {label:22s} {t * 1e3:9.2f} ms   x{norm:5.2f}  {bar}")
        print()
    s = progress.summary()
    print(
        f"fleet: {s['jobs_submitted']} cells — {s['cache_hits']} cached, "
        f"{s['jobs_computed']} computed ({jobs} worker(s); cache at "
        f"{cache.root}/)"
    )
    if s["cache_hits"] == s["jobs_submitted"]:
        print("everything came from cache — delete the cache dir or change "
              "the seed to recompute")


def main() -> None:
    argv = [a for a in sys.argv[1:]]
    obs_dir: Path | None = None
    jobs: int | None = None
    backend: str | None = None
    if "--backend" in argv:
        i = argv.index("--backend")
        argv.pop(i)
        backend = argv.pop(i) if i < len(argv) else None
    if "--jobs" in argv:
        i = argv.index("--jobs")
        argv.pop(i)
        jobs = int(argv.pop(i)) if i < len(argv) else 2
    if "--obs" in argv:
        i = argv.index("--obs")
        argv.pop(i)
        if i < len(argv) and not argv[i].startswith("-"):
            obs_dir = Path(argv.pop(i))
        else:
            obs_dir = Path("obs_out")
    program_name = argv[0] if argv else "streamcluster"
    program = get_program(program_name)
    print(f"program: {program.name} ({program.suite}), "
          f"{len(program.loops())} loops x {program.timesteps} timesteps\n")

    if jobs is not None:
        run_fleet(program, jobs, backend=backend)
        return

    for platform in (odroid_xu4(), xeon_emulated()):
        print(platform.describe())
        baseline = None
        first_platform = platform.name.startswith("Platform A")
        for schedule, affinity in CONFIGS:
            emit_obs = (
                obs_dir is not None
                and first_platform
                and (schedule, affinity) == OBS_CONFIG
            )
            obs = Observability() if emit_obs else None
            runner = ProgramRunner(
                platform,
                OmpEnv(schedule=schedule, affinity=affinity),
                trace=emit_obs,
                obs=obs,
                backend=backend,
            )
            result = runner.run(program)
            if baseline is None:
                baseline = result.completion_time
            row = completion_payload(
                f"{schedule}({affinity})",
                platform.name,
                result.completion_time,
                baseline,
            )
            norm = row["normalized_performance"]
            bar = "#" * round(norm * 25)
            print(
                f"  {row['scheme']:22s}"
                f" {result.completion_time * 1e3:9.2f} ms"
                f"   x{norm:5.2f}  {bar}"
            )
            if emit_obs:
                assert obs is not None
                write_obs_artifacts(obs_dir, obs, runner, meta=row)
        print()


if __name__ == "__main__":
    main()
