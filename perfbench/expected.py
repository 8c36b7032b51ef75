"""Expected simulated outputs, committed per root seed, that every run checks.

The simulator is deterministic, so a correct run reproduces these values
exactly: the completion time of every cell of both paper grids (Fig. 6 on
``odroid_xu4``, Fig. 7 on ``xeon_emulated``) and the ``degradation`` /
``recovery`` of every resilience-sweep cell on both platforms.

Regenerate (from the checkout root) only when a change to the simulated
science is intended, and review the JSON diff::

    python3 perfbench/expected.py --write 0 1 2 3 4 5 6 7

The values are produced the plain way — serial ``harness.run_one`` per grid
cell and one ``resilience.sweep`` call per platform — so they also check
that the benchmark's fleet and per-cell paths give the same numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
SCHEMA = "perfbench.expected/v1"

#: Root seeds with committed expectations. ``--seed n`` runs root seed
#: ``ROOT_SEEDS[n % len(ROOT_SEEDS)]``; seed 0 is the paper's default.
ROOT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)

GRID_PLATFORMS = ("odroid_xu4", "xeon_emulated")
SWEEP_PLATFORMS = ("odroid_xu4", "xeon_emulated")
#: Fault plans per resilience cell.
SWEEP_SEEDS = 40


def root_seed_for(seed: int) -> int:
    return ROOT_SEEDS[seed % len(ROOT_SEEDS)]


def path_for(root_seed: int) -> Path:
    return EXPECTED_DIR / f"seed-{root_seed}.json"


def load(root_seed: int) -> dict:
    doc = json.loads(path_for(root_seed).read_text(encoding="utf-8"))
    if doc.get("schema") != SCHEMA or doc.get("root_seed") != root_seed:
        raise ValueError(f"{path_for(root_seed)} is not a {SCHEMA} document "
                         f"for root seed {root_seed}")
    return doc


def intensity_key(intensity: float) -> str:
    return f"{intensity:g}"


def generate(root_seed: int) -> dict:
    from repro.amp import presets
    from repro.experiments import resilience
    from repro.experiments.harness import default_configs, run_one
    from repro.workloads.registry import all_programs

    programs, configs = all_programs(), default_configs()
    grids = {}
    for name in GRID_PLATFORMS:
        platform = getattr(presets, name)()
        grids[name] = {
            program.name: {
                config.label: run_one(
                    platform, program, config, root_seed=root_seed
                ).completion_time
                for config in configs
            }
            for program in programs
        }
    sweeps = {}
    for name in SWEEP_PLATFORMS:
        report = resilience.sweep(name, seeds=SWEEP_SEEDS, root_seed=root_seed)
        cells: dict = {}
        for cell in report.cells:
            cells.setdefault(cell.variant, {})[
                intensity_key(cell.intensity)
            ] = {"degradation": cell.degradation, "recovery": cell.recovery}
        sweeps[name] = cells
    return {
        "schema": SCHEMA,
        "root_seed": root_seed,
        "grids": grids,
        "resilience": sweeps,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=int, nargs="+", required=True,
                        metavar="ROOT_SEED")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    EXPECTED_DIR.mkdir(exist_ok=True)
    for root_seed in args.write:
        doc = generate(root_seed)
        path_for(root_seed).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {path_for(root_seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
