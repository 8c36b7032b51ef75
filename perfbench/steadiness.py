"""Steadiness check: do sets of runs of the same code agree within the bounds?

Runs every workload ``--runs`` times per set, each run with another
``--seed``, for ``--sets`` sets (interleaving workloads so slow spells of
the host hit all of them), then reports for each end-to-end metric of
each workload:

* the spread of each set — the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the
  median; it must stay within the metric's bound, and the benchmark
  aims for less than a third of it;
* the shift of each later set's median from the first set's, in the
  metric's worse direction; it must stay within the bound.

Run from the checkout root; exits 1 when a bound is broken::

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads fig7_fleet
    python3 perfbench/steadiness.py --load .bench_out/steadiness.json

Raw results go to ``--out`` (default ``.bench_out/steadiness.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{out.returncode}:\n{out.stderr}")
    *_, details, result = out.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(details)}


def collect(workloads, runs: int, sets: int, seconds: int) -> list[dict]:
    results = []
    for s in range(sets):
        for i in range(runs):
            seed = s * runs + i
            for workload in workloads:
                t0 = time.monotonic()
                doc = run_once(workload, seed, seconds)
                results.append({"set": s, "workload": workload, "seed": seed,
                                "result": doc})
                print(f"set {s} seed {seed} {workload}: "
                      f"correct={doc['correct']} "
                      f"({time.monotonic() - t0:.0f}s)", file=sys.stderr)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(results: list[dict], spec: dict) -> bool:
    ok = True
    sets = sorted({r["set"] for r in results})
    workloads = list(dict.fromkeys(r["workload"] for r in results))
    wrong = [r for r in results if not r["result"]["correct"]]
    for r in wrong:
        print(f"INCORRECT: set {r['set']} seed {r['seed']} {r['workload']}")
    ok &= not wrong
    head = f"{'workload':14s} {'metric':12s} {'bound':>6s} " + " ".join(
        f"{'med' + str(s):>10s} {'spread' + str(s):>8s}" for s in sets
    ) + f" {'shift':>7s}  verdict"
    print(head)
    for workload in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            cols, meds, verdict = [], [], []
            for s in sets:
                values = [r["result"]["metrics"][name]["value"]
                          for r in results
                          if r["set"] == s and r["workload"] == workload]
                med, spr = statistics.median(values), spread(values)
                meds.append(med)
                cols.append(f"{med:10.4g} {spr:8.3f}")
                if spr > bound:
                    verdict.append(f"spread{s}>bound")
                elif spr > bound / 3:
                    verdict.append(f"spread{s}>bound/3")
            shifts = [sign * (med - meds[0]) / meds[0] for med in meds[1:]]
            worst = max(shifts, default=0.0)
            if worst > bound:
                verdict.append("shift>bound")
            ok &= not any(v.endswith(">bound") for v in verdict)
            print(f"{workload:14s} {name:12s} {bound:6.2f} " + " ".join(cols)
                  + f" {worst:7.3f}  {' '.join(verdict) or 'ok'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_out" / "steadiness.json")
    parser.add_argument("--load", type=Path,
                        help="report on saved raw results instead of running")
    args = parser.parse_args(argv)
    if args.load is not None:
        results = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        results = collect(args.workloads, args.runs, args.sets, args.seconds)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results), encoding="utf-8")
    return 0 if report(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
