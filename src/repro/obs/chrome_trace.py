"""Chrome trace-event JSON export.

Converts a :class:`~repro.tracing.trace.Timeline` (or a
:class:`~repro.tracing.trace.TraceRecorder`) into the trace-event format
that ``chrome://tracing`` and Perfetto load directly — the interactive
counterpart of the Paraver CSV export. Each state interval becomes a
complete ("X") event on its thread's track; scheduler decision records
are overlaid as instant ("i") events, so the AID decisions of Figs. 2/4
can be read in context: click an instant to see the SF estimate and the
chunk target the scheduler chose at that moment.

Timestamps are microseconds (the format's unit); the simulator's seconds
are scaled by 1e6.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.obs.snapshot import canonical_json
from repro.obs.timeseries import series_values
from repro.tracing.trace import Timeline, TraceRecorder

#: seconds -> trace-event microseconds.
_US = 1e6

#: Stable track sort: threads in tid order.
_PID = 1


def _timeline_of(trace: Timeline | TraceRecorder) -> Timeline:
    return trace.timeline() if isinstance(trace, TraceRecorder) else trace


def _series_doc(series) -> dict:
    """Accept live :class:`~repro.obs.timeseries.TimeSeries` instruments
    or their serialized dict form interchangeably."""
    return series.as_dict() if hasattr(series, "as_dict") else dict(series)


def to_trace_events(
    trace: Timeline | TraceRecorder,
    decisions: Iterable[dict] = (),
    timeseries: Iterable = (),
    process_name: str = "repro",
    spans: Iterable[dict] = (),
    edges: Iterable[dict] = (),
) -> list[dict]:
    """Build the ``traceEvents`` list.

    Args:
        trace: recorded per-thread state intervals.
        decisions: scheduler decision records (``DecisionLog.records``);
            each becomes an instant event on its thread's track.
        timeseries: windowed samplers (live instruments or their dict
            form); each becomes a counter ("C") lane — utilization for
            busy-mode series, the per-window mean for sample-mode — so
            Perfetto renders the timeline the snapshot carries. Empty
            (the default) emits nothing: existing duration-event output
            is byte-identical.
        process_name: the pid's display name in the viewer.
        spans: causal span dicts (a span doc's ``spans`` list, see
            :meth:`repro.obs.spans.SpanRecorder.as_doc`); each becomes a
            complete ("X") event on its thread's track under the
            ``span:<cat>`` category. Empty (the default) emits nothing,
            keeping pre-span exports byte-identical.
        edges: causal edge dicts (the span doc's ``edges`` list); each
            becomes a flow-event pair ("s" start at the victim/fault,
            "f" finish at the thief/resampled loop), so Perfetto draws
            steal and fault->resample arrows across tracks.
    """
    timeline = _timeline_of(trace)
    events: list[dict] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for tid in timeline.thread_ids():
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": f"worker-{tid}"},
            }
        )
    for iv in sorted(
        timeline.intervals, key=lambda iv: (iv.t0, iv.tid, iv.t1)
    ):
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": iv.tid,
                "ts": iv.t0 * _US,
                "dur": iv.duration * _US,
                "name": iv.state.value,
                "cat": "state",
                "args": {"label": iv.label},
            }
        )
    for rec in decisions:
        args = {
            k: v
            for k, v in rec.items()
            if k not in ("t", "tid") and v is not None
        }
        events.append(
            {
                "ph": "i",
                "pid": _PID,
                # Decisions made before any thread context (e.g. offline-SF
                # publication at loop setup) carry tid -1; pin them to 0.
                "tid": max(0, rec["tid"]),
                "ts": rec["t"] * _US,
                "name": f"{rec['scheduler']}:{rec['event']}",
                "cat": "decision",
                "s": "t",  # thread-scoped instant
                "args": args,
            }
        )
    for series in timeseries:
        doc = _series_doc(series)
        labels = ",".join(
            f"{k}={v}" for k, v in sorted((doc.get("labels") or {}).items())
        )
        lane = f"{doc['name']}{{{labels}}}" if labels else doc["name"]
        window = float(doc.get("window", 1.0))
        for idx, value in series_values(doc):
            events.append(
                {
                    "ph": "C",
                    "pid": _PID,
                    "ts": idx * window * _US,
                    "name": lane,
                    "cat": "timeseries",
                    "args": {"value": value},
                }
            )
    for s in spans:
        args = {"id": s["id"]}
        if s.get("attrs"):
            args.update(s["attrs"])
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": max(0, int(s.get("tid", 0))),
                "ts": s["t0"] * _US,
                "dur": (s["t1"] - s["t0"]) * _US,
                "name": s["name"],
                "cat": f"span:{s['cat']}",
                "args": args,
            }
        )
    for i, e in enumerate(edges):
        ts = e["t"] * _US
        flow_id = i + 1  # flow ids must be nonzero
        events.append(
            {
                "ph": "s",
                "pid": _PID,
                "tid": _edge_tid(e["src"]),
                "ts": ts,
                "id": flow_id,
                "name": e["kind"],
                "cat": "causal",
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "pid": _PID,
                "tid": _edge_tid(e["dst"]),
                "ts": ts,
                "id": flow_id,
                "name": e["kind"],
                "cat": "causal",
            }
        )
    return events


def _edge_tid(endpoint: str) -> int:
    """Thread track for a causal-edge endpoint.

    Endpoints are span-id paths; per-thread ones embed ``/t<tid>``.
    Loop- or fault-scoped endpoints (no thread segment) pin to track 0.
    """
    tid = 0
    for part in endpoint.split("/"):
        if part.startswith("t") and part[1:].isdigit():
            tid = int(part[1:])
    return tid


def export_chrome_trace(
    trace: Timeline | TraceRecorder,
    decisions: Iterable[dict] = (),
    path: str | Path | None = None,
    process_name: str = "repro",
    timeseries: Iterable = (),
    spans: Iterable[dict] = (),
    edges: Iterable[dict] = (),
) -> str:
    """Serialize to a trace-event JSON document.

    Returns the JSON text; also writes it to ``path`` when given. The
    output is deterministic (sorted keys, no timestamps beyond the
    trace's own), so identical runs export byte-identical files — and
    runs that recorded no spans/edges export byte-identical files to
    pre-span versions.
    """
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.chrome_trace"},
        "traceEvents": to_trace_events(
            trace, decisions, timeseries=timeseries,
            process_name=process_name, spans=spans, edges=edges,
        ),
    }
    text = canonical_json(doc) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
