"""The engine corpus: golden digests that pin the simulated engine.

The simulated engine's contract is byte identity with its own recorded
past: the same :class:`~repro.runtime.executor.LoopResult`, the same
scheduler decision log, the same observability snapshot and the same
causal span document, case for case. ``tests/golden/engine-corpus.json``
holds 400 :class:`~repro.check.generators.FuzzCase` values — 200 plain
cases (fuzz seed 1) spanning static, dynamic, guided and the five AID
variants, and 200 riding random simulator fault plans (fuzz seed 2) —
each with SHA-256 digests of those four artifacts.

:func:`observe_case` runs one case (obs off for the result, then obs on
with span tracing for the rest); :func:`check_corpus` replays every
stored case and reports the first field that differs. The corpus is
regenerated only deliberately::

    python -m repro.check corpus --write
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.check.generators import (
    FuzzCase,
    case_costs,
    case_rng,
    generate_case,
    run_loop,
)
from repro.errors import ConfigError
from repro.faults.model import plan_from_tuples
from repro.obs import Observability, SpanRecorder
from repro.obs.snapshot import build_snapshot, to_json
from repro.sim.rng import stable_seed

#: The committed corpus, next to the golden decision logs.
CORPUS_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "golden"
    / "engine-corpus.json"
)

SCHEMA = "repro.check.engine-corpus/v1"

#: The two campaigns: (fuzz seed, fault mode, case count). Plain cases
#: draw from every schedule kind the grids run; under fault plans the
#: static kinds drop out, since requeued work lands in the shared pool
#: that statically partitioned threads never re-poll.
CAMPAIGNS = ((1, None, 200), (2, "sim", 200))

_FAULT_VARIANTS = (
    "dynamic,1", "dynamic,4", "guided,1",
    "aid_static", "aid_hybrid,80", "aid_dynamic,1,5",
    "aid_auto,1,5", "aid_steal,8",
)
_PLAIN_VARIANTS = ("static", "static,7") + _FAULT_VARIANTS

#: The digested artifacts, in report order.
FIELDS = ("result", "decisions", "snapshot", "spans")


def result_key(result) -> tuple:
    """A :class:`LoopResult` as a comparable value tuple.

    Covers every simulated field — times, per-thread finishes and
    iteration counts, dispatch/scheduler-call counters, the estimated-SF
    table and the full per-chunk range list. Excludes only ``extra``
    (the live scheduler object).
    """
    return (
        result.loop_name,
        result.start_time,
        result.end_time,
        tuple(result.finish_times),
        tuple(result.iterations),
        result.dispatches,
        result.scheduler_calls,
        (
            None
            if result.estimated_sf is None
            else tuple(sorted(result.estimated_sf.items()))
        ),
        tuple((t, lo, hi) for t, lo, hi in result.ranges),
    )


def decision_bytes(obs: Observability) -> bytes:
    """The run's decision log as canonical JSONL bytes."""
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":"))
        for r in obs.decisions.records
    ).encode("utf-8")


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def corpus_cases() -> list[FuzzCase]:
    """The corpus's cases, derived like the conformance fuzzer's."""
    cases = []
    for seed, faults, n in CAMPAIGNS:
        variants = _PLAIN_VARIANTS if faults is None else _FAULT_VARIANTS
        cases.extend(
            generate_case(
                stable_seed("fuzz", seed, i), variants, None, faults=faults
            )
            for i in range(n)
        )
    return cases


def _run(case: FuzzCase, obs=None, faults=None):
    return run_loop(
        case.build_platform(),
        case.build_spec(),
        n_iterations=case.n_iterations,
        costs=case_costs(case),
        overhead=case.overhead_model(),
        n_threads=case.n_threads,
        rng=case_rng(case),
        faults=faults,
        obs=obs,
        backend="reference",
    )


def observe_case(case: FuzzCase) -> dict[str, str]:
    """Digest one case's four artifacts.

    Fault tuples carry *fractions of the fault-free makespan* (the fuzz
    convention), scaled by a fault-free probe run. The result digest
    covers the obs-off run; the obs-on run must reproduce the identical
    result, or the ``result`` digest reports the difference.
    """
    plan = None
    if case.faults:
        probe = _run(case)
        plan = plan_from_tuples(case.faults).scaled(max(probe.duration, 1e-9))
    key = result_key(_run(case, faults=plan))
    obs = Observability(spans=SpanRecorder())
    observed = result_key(_run(case, obs=obs, faults=plan))
    snapshot = build_snapshot(obs)
    spans = snapshot.pop("spans")
    return {
        "result": _sha(repr(key)) if observed == key else "obs-on differs",
        "decisions": _sha(decision_bytes(obs)),
        "snapshot": _sha(to_json(snapshot)),
        "spans": _sha(json.dumps(spans, sort_keys=True)),
    }


def case_from_dict(doc: dict) -> FuzzCase:
    """Rebuild a stored case (JSON lists back to the tuple fields)."""
    fields = dict(doc)
    fields["cost"] = tuple(fields["cost"])
    fields["faults"] = tuple(tuple(f) for f in fields["faults"])
    return FuzzCase(**fields)


def build_corpus(
    progress: Callable[[int, FuzzCase], None] | None = None,
) -> dict:
    """Run every corpus case and return the corpus document."""
    entries = []
    for i, case in enumerate(corpus_cases()):
        if progress is not None:
            progress(i, case)
        entries.append({"case": asdict(case), **observe_case(case)})
    return {
        "schema": SCHEMA,
        "campaigns": [
            {"seed": s, "faults": f, "cases": n} for s, f, n in CAMPAIGNS
        ],
        "cases": entries,
    }


def write_corpus(path: Path = CORPUS_PATH, progress=None) -> int:
    """Regenerate the corpus file; returns the number of cases."""
    doc = build_corpus(progress)
    path.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(doc["cases"])


@dataclass
class CorpusMismatch:
    """The first differing artifact of one stored case."""

    index: int
    case: FuzzCase
    field_name: str

    def render(self) -> str:
        return (
            f"case {self.index} ({self.case.describe()}): "
            f"{self.field_name} digest differs from the corpus"
        )


def load_corpus(path: Path = CORPUS_PATH) -> list[dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"{path} is not a {SCHEMA} document")
    return doc["cases"]


def check_corpus(
    entries: list[dict] | None = None,
    indices=None,
    progress: Callable[[int, FuzzCase], None] | None = None,
) -> list[CorpusMismatch]:
    """Replay stored cases; an empty list means byte-identical.

    ``indices`` restricts the replay to a subset of the stored cases.
    """
    if entries is None:
        entries = load_corpus()
    if indices is None:
        indices = range(len(entries))
    out = []
    for i in indices:
        entry = entries[i]
        case = case_from_dict(entry["case"])
        if progress is not None:
            progress(i, case)
        got = observe_case(case)
        for name in FIELDS:
            if got[name] != entry[name]:
                out.append(CorpusMismatch(i, case, name))
                break
    return out
