"""Repository benchmark: host time to regenerate the paper's grids.

Run from the checkout root::

    python3 perfbench/run.py --workload fig6_engine --seed 0 --seconds 20 --trace 0

Each run starts the workload in a fresh interpreter with ``REPRO_BACKEND``,
``REPRO_FLEET_*`` and ``FLEET_*`` removed from the environment, times it,
normalizes the times for the host's speed drift (``hostspeed.py``),
checks every simulated output against ``perfbench/expected/`` and prints,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones
from a separately traced run. The line before it records the environment
(commit, Python, numpy, CPUs, backend). Private caches and journals live
under ``.bench_out/`` in the checkout and are deleted afterwards; traced
runs leave their spans there. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import expected
import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: Extra fresh interpreters that only set up, for the set-up time median.
SETUP_PROBES = 10
#: A run must end within 180 s; the workload child gets what is left.
RUN_BUDGET_S = 170.0
SCRUBBED_PREFIXES = ("REPRO_FLEET_", "FLEET_")
SCRUBBED_NAMES = ("REPRO_BACKEND",)


def clean_env() -> dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if key not in SCRUBBED_NAMES and not key.startswith(SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # Deterministic hashing keeps set/dict iteration, and with it the
    # host work done, identical from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str | None:
    """The checkout's git commit, if it is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh interpreter; its last stdout line,
    with ``setup_s`` normalized by a start-up probe taken just before
    (raw in ``setup_raw_s``).

    The child leads its own process group, so a timeout kills its fleet
    workers with it.
    """
    startup_s = hostspeed.startup_probe(env, ROOT)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py"), "--t0", repr(t0), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload {args} ran past the run budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload {args} exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_raw_s"] = doc["setup_s"]
    doc["setup_s"] = (doc["setup_raw_s"] * hostspeed.REFERENCE_STARTUP_S
                      / startup_s)
    return doc


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(doc: dict, setup_samples: list[float]) -> dict[str, float]:
    passes = doc["passes"]
    walls = [sum(p["phases"].values()) for p in passes]
    if "cold" in passes[0]["phases"]:
        cold = median(p["phases"]["cold"] for p in passes)
        warm = median(p["phases"]["warm"] for p in passes)
    else:
        # No result cache: every regeneration recomputes every cell, so a
        # warm one costs what a cold one does.
        cold = warm = median(walls)
    cells = [s for p in passes for s in p["cell_seconds"]]
    return {
        "wall_s": median(walls),
        "setup_s": median(setup_samples),
        "peak_rss_mb": doc["peak_rss_mb"],
        "cell_p50_ms": 1e3 * median(cells),
        # Inclusive: fault_sweep has only a few (per-platform) cells.
        "cell_p90_ms": 1e3 * statistics.quantiles(
            cells, n=10, method="inclusive")[8],
        "cold_s": cold,
        "warm_s": warm,
    }


def per_layer(doc: dict) -> dict[str, float]:
    layers = doc["layers"]
    metrics = {key: median(m[key] for m in layers) for key in layers[0]}
    traced_wall = metrics.pop("trace.wall_s")
    untraced_wall = median(sum(p["phases"].values())
                           for p in doc["passes"] if not p["traced"])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    root_seed = expected.root_seed_for(args.seed)
    env = clean_env()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    child_args = [
        "--workload", args.workload, "--root-seed", str(root_seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    if args.trace:
        child_args += ["--spans-out", str(
            OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        doc = run_child(child_args, env, deadline)
        setups = [doc]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(
                    run_child(child_args + ["--setup-only"], env, deadline))
        setup_samples = [d["setup_s"] for d in setups]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    measured = per_layer(doc) if args.trace else end_to_end(doc, setup_samples)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failures = [f for p in doc["passes"] for f in p["failures"]]
    attempted = sum(p["attempted"] for p in doc["passes"])
    if args.trace:
        failures += doc["trace_checks"]["failures"]
        attempted += doc["trace_checks"]["attempted"]
    info = {
        "workload": args.workload, "seed": args.seed, "root_seed": root_seed,
        "trace": args.trace, "commit": commit(), "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), **doc["env"],
        "passes": [p["phases"] for p in doc["passes"]],
        "raw_passes": [p["raw_phases"] for p in doc["passes"]],
        "cell_samples": sum(len(p["cell_seconds"]) for p in doc["passes"]),
        "setup_samples": setup_samples,
        "raw_setup_samples": [d["setup_raw_s"] for d in setups],
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "errors": [e for p in doc["passes"] for e in p["errors"]][:20],
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
