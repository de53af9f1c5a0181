"""Exporters: span JSON-lines, Chrome trace-event JSON, text summaries.

Three formats, one source of truth (the span dicts produced by
:class:`~repro.obs.span.SpanTracer`):

* **JSON-lines** — one span object per line; the archival/interchange
  format the ``python -m repro.obs`` CLI consumes;
* **Chrome trace-event JSON** — complete ("X") events plus
  process/thread-name metadata, loadable in Perfetto or
  ``chrome://tracing``; stacks become processes, sublayers become
  threads;
* **summary** — a fixed-width text table of where the hops and the
  wall time went.

Chrome export can run off either clock: ``wall`` (default — real host
cost, what a profiler wants) or ``virtual`` (deterministic simulated
time, what the golden-file test and protocol forensics want).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

#: Span fields every exporter requires.
REQUIRED_SPAN_FIELDS = (
    "sid",
    "stack",
    "direction",
    "caller",
    "actor",
    "t0",
    "t1",
    "w0",
    "w1",
)

CLOCKS = ("wall", "virtual")

#: Key of the optional metadata record a JSONL file may lead with.
META_KEY = "_meta"


class ExportError(ValueError):
    """A span record or trace file does not have the expected shape."""


# ----------------------------------------------------------------------
# JSON-lines
# ----------------------------------------------------------------------
def spans_to_jsonl(
    spans: Iterable[dict[str, Any]],
    path: Any,
    dropped: int = 0,
    meta: dict[str, Any] | None = None,
) -> int:
    """Write spans one-JSON-object-per-line; returns the span count.

    When ``dropped`` is non-zero (the tracer's ring buffer truncated
    the trace) or ``meta`` carries extra fields (``sample_rate``,
    ``sampled_out``, merge provenance…), a leading
    ``{"_meta": {...}}`` record is written so downstream consumers
    cannot mistake a truncated or sampled trace for a complete one.
    """
    header: dict[str, Any] = dict(meta) if meta else {}
    if dropped:
        header["dropped_events"] = dropped
    count = 0
    with open(Path(path), "w", encoding="utf-8") as fp:
        if header:
            fp.write(json.dumps({META_KEY: header}, sort_keys=True) + "\n")
        for span in spans:
            fp.write(json.dumps(span, sort_keys=True) + "\n")
            count += 1
    return count


def load_jsonl_with_meta(path: Any) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Read a span JSONL file; returns ``(spans, meta)``.

    ``meta`` is the content of the optional leading ``_meta`` record
    (``{}`` when absent); every other record is validated as a span.
    """
    spans: list[dict[str, Any]] = []
    meta: dict[str, Any] = {}
    with open(Path(path), "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExportError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if isinstance(record, dict) and set(record) == {META_KEY}:
                meta.update(record[META_KEY])
                continue
            missing = [f for f in REQUIRED_SPAN_FIELDS if f not in record]
            if missing:
                raise ExportError(
                    f"{path}:{lineno}: span missing fields {missing}"
                )
            spans.append(record)
    return spans, meta


def load_jsonl(path: Any) -> list[dict[str, Any]]:
    """Read a span JSON-lines file, validating each record's shape."""
    spans, _ = load_jsonl_with_meta(path)
    return spans


def merge_jsonl(paths: Iterable[Any], out: Any) -> int:
    """Merge per-region span JSONL files into one; returns the span count.

    Each region traces with its own :class:`SpanTracer`, whose
    span ids start at 0 — merging naively would collide.  Spans from
    each input keep their relative structure but have ``sid`` (and
    ``parent``) rebased past the previous inputs' ids, exactly like
    linking object files.  Inputs are merged in the order given, so a
    deterministic input order gives a byte-deterministic merge.

    The merged ``_meta`` record aggregates the inputs' records:
    ``dropped_events`` and ``sampled_out`` are summed,
    ``merged_inputs`` counts the input files, and ``sample_rate`` is
    kept only when every input that declared one declared the *same*
    one (mixed rates make a single rate meaningless, so it is omitted
    rather than averaged).
    """
    merged: list[dict[str, Any]] = []
    dropped = 0
    sampled_out = 0
    rates: set[float] = set()
    inputs = 0
    base = 0
    for path in paths:
        inputs += 1
        spans, meta = load_jsonl_with_meta(path)
        dropped += int(meta.get("dropped_events", 0))
        sampled_out += int(meta.get("sampled_out", 0))
        if "sample_rate" in meta:
            rates.add(float(meta["sample_rate"]))
        top = base
        for span in spans:
            rebased = dict(span)
            rebased["sid"] = span["sid"] + base
            if span.get("parent") is not None:
                rebased["parent"] = span["parent"] + base
            top = max(top, rebased["sid"] + 1)
            merged.append(rebased)
        base = top
    meta_out: dict[str, Any] = {"merged_inputs": inputs}
    if sampled_out:
        meta_out["sampled_out"] = sampled_out
    if len(rates) == 1:
        meta_out["sample_rate"] = rates.pop()
    return spans_to_jsonl(merged, out, dropped=dropped, meta=meta_out)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: Iterable[dict[str, Any]], clock: str = "wall"
) -> dict[str, Any]:
    """Convert spans to a Chrome trace-event JSON object.

    ``clock="wall"`` uses host perf_counter times (microseconds,
    rebased to the earliest span); ``clock="virtual"`` uses simulated
    seconds as microseconds — deterministic, so golden tests diff it.
    """
    if clock not in CLOCKS:
        raise ExportError(f"clock must be one of {CLOCKS}, got {clock!r}")
    spans = list(spans)

    # Metadata first: viewers apply names/sort indices on sight, and a
    # trace whose M events all precede its X events diffs cleanly in
    # golden tests.  Sort indices pin the display order to first-seen
    # order (stacks as processes, sublayers as threads top-to-bottom in
    # traversal order) instead of the viewer's own heuristics.
    meta_events: list[dict[str, Any]] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    for span in spans:
        stack = span["stack"]
        if stack not in pids:
            pids[stack] = len(pids) + 1
            meta_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[stack],
                    "tid": 0,
                    "args": {"name": stack},
                }
            )
            meta_events.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pids[stack],
                    "tid": 0,
                    "args": {"sort_index": pids[stack]},
                }
            )
        key = (stack, span["actor"])
        if key not in tids:
            tids[key] = len(tids) + 1
            meta_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pids[stack],
                    "tid": tids[key],
                    "args": {"name": span["actor"]},
                }
            )
            meta_events.append(
                {
                    "ph": "M",
                    "name": "thread_sort_index",
                    "pid": pids[stack],
                    "tid": tids[key],
                    "args": {"sort_index": tids[key]},
                }
            )
    events: list[dict[str, Any]] = list(meta_events)

    if clock == "wall":
        epoch = min((s["w0"] for s in spans), default=0.0)

        def times(span: dict[str, Any]) -> tuple[float, float]:
            return (span["w0"] - epoch) * 1e6, (span["w1"] - span["w0"]) * 1e6

    else:

        def times(span: dict[str, Any]) -> tuple[float, float]:
            return span["t0"] * 1e6, (span["t1"] - span["t0"]) * 1e6

    for span in spans:
        ts, dur = times(span)
        args = {
            "sid": span["sid"],
            "parent": span.get("parent"),
            "pdu": span.get("pdu"),
            "virtual_t0": span["t0"],
            "virtual_t1": span["t1"],
        }
        events.append(
            {
                "ph": "X",
                "name": f"{span['direction']}:{span['caller']}->{span['actor']}",
                "cat": span["direction"],
                "ts": round(ts, 3),
                "dur": round(dur, 3),
                "pid": pids[span["stack"]],
                "tid": tids[(span["stack"], span["actor"])],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema-check a Chrome trace object; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M", "B", "E", "i", "C"):
            problems.append(f"{where}: bad or missing ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: {key} must be a non-negative number"
                    )
    return problems


def write_chrome_trace(
    spans: Iterable[dict[str, Any]], path: Any, clock: str = "wall"
) -> dict[str, Any]:
    """Export to a Chrome trace file; returns the trace object."""
    trace = to_chrome_trace(spans, clock=clock)
    Path(path).write_text(json.dumps(trace, indent=1, sort_keys=True) + "\n")
    return trace


# ----------------------------------------------------------------------
# Human-readable summary
# ----------------------------------------------------------------------
def summarize(
    spans: Iterable[dict[str, Any]],
    dropped: int = 0,
    meta: dict[str, Any] | None = None,
) -> str:
    """Fixed-width per-(stack, actor) hop/time table.

    ``meta`` is a trace file's ``_meta`` record; sampling and merge
    provenance it declares is reported above the table so a sampled or
    merged trace is never mistaken for a complete single-run one.
    """
    meta = meta or {}
    spans = list(spans)
    if not spans:
        return "(no spans recorded)"
    rows: dict[tuple[str, str], dict[str, float]] = {}
    for span in spans:
        key = (span["stack"], span["actor"])
        row = rows.setdefault(key, {"hops": 0, "wall": 0.0, "down": 0, "up": 0})
        row["hops"] += 1
        row["wall"] += span["w1"] - span["w0"]
        row[span["direction"]] = row.get(span["direction"], 0) + 1
    virtual_span = max(s["t1"] for s in spans) - min(s["t0"] for s in spans)
    lines = [
        f"{len(spans)} spans over {virtual_span:.3f} virtual seconds"
        + (f" ({dropped} dropped)" if dropped else "")
    ]
    if "sample_rate" in meta or "sampled_out" in meta:
        parts = []
        if "sample_rate" in meta:
            parts.append(f"sampled at rate {meta['sample_rate']:g}")
        if meta.get("sampled_out"):
            parts.append(f"{meta['sampled_out']} spans sampled out")
        lines.append(", ".join(parts))
    if meta.get("merged_inputs", 0) > 1:
        lines.append(f"merged from {meta['merged_inputs']} input files")
    lines.append(
        f"{'stack':<16} {'actor':<12} {'hops':>6} {'down':>6} {'up':>6} "
        f"{'wall_ms':>9}"
    )
    for (stack, actor), row in sorted(
        rows.items(), key=lambda kv: -kv[1]["wall"]
    ):
        lines.append(
            f"{stack:<16} {actor:<12} {int(row['hops']):>6} "
            f"{int(row['down']):>6} {int(row['up']):>6} "
            f"{row['wall'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)
