"""Cross-process request tracing: trace-context propagation + span shards.

One analysis request crosses three process/thread boundaries before it
is answered: the HTTP handler thread, the daemon's job worker thread,
and the process-isolated attempt child.  This module gives that request one identity — a
``trace_id`` minted at admission — and records what each process did on
its behalf as *span shards*: per-process JSONL files of completed spans,
stitched back into a single Chrome trace by :func:`stitch` (the
``repro trace <trace_id>`` command).

Design points:

* **Context is thread-local and explicit across processes.**  The active
  :class:`TraceContext` lives in the per-thread telemetry context
  (``obs.bind(trace=ctx)``) and crosses a process boundary inside the
  plain dict of :func:`repro.obs.telemetry.wire` (or ``ctx.to_dict()``
  in a journal record).  A process handed no context records nothing.
* **One span.**  ``obs.span(name, **data)`` writes this module's record
  (:func:`write_span`) for the request-level names of
  :data:`repro.obs.telemetry.TRACED` when a context and a sink are
  active, under a child context so nested spans and slog lines parent
  correctly.
* **Writes never raise.**  A full disk degrades tracing, not analysis;
  failed appends are counted (``trace.write_errors``) and dropped.
* **slog correlation.**  :mod:`repro.obs.slog` reads the same context:
  log lines of a traced thread carry ``trace``/``span`` fields.

Shard files live under the sink directory (the daemon uses
``<state_dir>/traces``) named ``<trace_id>-<os_pid>.jsonl``; one line
per completed span::

    {"trace": ..., "span": ..., "parent": ..., "name": "serve.job",
     "ts": 1723.4, "dur": 0.12, "pid": 4711, "tid": 139..., "proc":
     "daemon", "data": {...}}

The stitcher assigns each OS pid a small integer Chrome pid (ordered by
first span start), maps thread idents to small tids, and validates the
result with :func:`repro.obs.export.validate_chrome_trace`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import recorder as obs
from repro.obs.export import validate_chrome_trace


@dataclass(frozen=True)
class TraceContext:
    """The identity a request carries across process boundaries."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {"trace": self.trace_id, "span": self.span_id, "parent": self.parent_id}

    @classmethod
    def from_dict(cls, document) -> Optional["TraceContext"]:
        """Rebuild a shipped context; None for anything malformed (a peer
        speaking an older protocol must not crash the receiver)."""
        if not isinstance(document, dict):
            return None
        trace_id = document.get("trace")
        span_id = document.get("span")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        parent = document.get("parent")
        return cls(trace_id, span_id, parent if isinstance(parent, str) else None)


#: process-global span-shard sink (a directory) and the human-readable
#: role this process plays in stitched traces ("daemon", "worker", ...)
_sink: Optional[Path] = None
_process_name = "repro"


def mint_id() -> str:
    """A fresh 16-hex-digit id (trace or span)."""
    return uuid.uuid4().hex[:16]


def mint(trace_id: Optional[str] = None) -> TraceContext:
    """A fresh root context (admission mints one per request).

    ``trace_id`` lets a client-supplied id (``X-Repro-Trace`` header)
    win, so callers can correlate with their own systems; ids are
    sanitized to at most 64 name-safe characters.
    """
    if trace_id:
        cleaned = "".join(c for c in str(trace_id) if c.isalnum() or c in "-_")[:64]
        trace_id = cleaned or None
    return TraceContext(trace_id or mint_id(), mint_id(), None)


def current() -> Optional[TraceContext]:
    """The current thread's active context, or None."""
    return obs.context.trace


def current_trace_id() -> Optional[str]:
    ctx = obs.context.trace
    return ctx.trace_id if ctx is not None else None


def configure_sink(path, process_name: str = "repro") -> Optional[Path]:
    """Point span-shard writes at a directory (None disables).

    The daemon configures ``<state_dir>/traces`` before accepting work;
    forked attempt children inherit the setting, pool workers receive it
    in their task payload.
    """
    global _sink, _process_name
    _process_name = str(process_name) if process_name else "repro"
    if path is None:
        _sink = None
        return None
    _sink = Path(path)
    try:
        _sink.mkdir(parents=True, exist_ok=True)
    except OSError:
        obs.incr("trace.write_errors")
        _sink = None
    return _sink


def sink() -> Optional[Path]:
    return _sink


def write_span(ctx: TraceContext, name: str, start: float, data: dict) -> None:
    """Append one completed span (begun at wall time ``start``) to this
    process's shard file; a failed append is counted, never raised."""
    record = {
        "trace": ctx.trace_id,
        "span": ctx.span_id,
        "parent": ctx.parent_id,
        "name": name,
        "ts": start,
        "dur": max(time.time() - start, 0.0),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "proc": _process_name,
        "data": {k: v for k, v in data.items() if v is not None},
    }
    if _sink is None:
        return
    path = _sink / f"{ctx.trace_id}-{os.getpid()}.jsonl"
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except (OSError, ValueError, TypeError):
        obs.incr("trace.write_errors")


# -- stitching -----------------------------------------------------------------


def load_spans(sink_dir, trace_id: str) -> List[dict]:
    """All intact span records of one trace across every process shard.

    Malformed lines (torn writes, partial shards) are skipped — the
    stitcher works with whatever survived, like every other recovery
    path in this codebase.
    """
    records: List[dict] = []
    root = Path(sink_dir)
    if not root.is_dir():
        return records
    for path in sorted(root.glob(f"{trace_id}-*.jsonl")):
        try:
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or record.get("trace") != trace_id:
                continue
            if not isinstance(record.get("name"), str) or not record["name"]:
                continue
            ts, dur = record.get("ts"), record.get("dur")
            if not isinstance(ts, (int, float)) or ts != ts:
                continue
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                continue
            records.append(record)
    records.sort(key=lambda r: (r["ts"], str(r.get("span", ""))))
    return records


def stitch(sink_dir, trace_id: str) -> dict:
    """Stitch one trace's per-process span shards into a Chrome trace.

    Each OS process becomes a Chrome ``pid`` (small integers, ordered by
    first span start), each thread a ``tid`` within it; ``args`` carry
    the span/parent ids so the cross-process call tree survives the
    export.  The result passes :func:`validate_chrome_trace` or this
    raises ``ValueError``.
    """
    records = load_spans(sink_dir, trace_id)
    if not records:
        raise ValueError(
            f"no span shards for trace {trace_id!r} under {sink_dir}"
        )
    by_pid: Dict[int, List[dict]] = {}
    for record in records:
        pid = record.get("pid")
        by_pid.setdefault(pid if isinstance(pid, int) else 0, []).append(record)
    ordered = sorted(by_pid, key=lambda pid: (min(r["ts"] for r in by_pid[pid]), pid))
    base_ts = min(record["ts"] for record in records)
    events: List[dict] = []
    for chrome_pid, os_pid in enumerate(ordered, start=1):
        group = by_pid[os_pid]
        proc = next(
            (r["proc"] for r in group if isinstance(r.get("proc"), str) and r["proc"]),
            "repro",
        )
        events.append(
            {
                "ph": "M",
                "pid": chrome_pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"{proc} (pid {os_pid})"},
            }
        )
        tids: Dict[object, int] = {}
        for record in group:
            ident = record.get("tid")
            if ident not in tids:
                tids[ident] = len(tids)
                events.append(
                    {
                        "ph": "M",
                        "pid": chrome_pid,
                        "tid": tids[ident],
                        "name": "thread_name",
                        "args": {"name": f"thread {len(tids) - 1}"},
                    }
                )
            args: Dict[str, object] = {
                "trace": record["trace"],
                "span": record.get("span"),
            }
            if record.get("parent"):
                args["parent"] = record["parent"]
            data = record.get("data")
            if isinstance(data, dict) and data:
                args["data"] = data
            events.append(
                {
                    "ph": "X",
                    "pid": chrome_pid,
                    "tid": tids[ident],
                    "name": record["name"],
                    "cat": "trace",
                    # microseconds, rebased to the trace start; zero-length
                    # markers get the same 1us floor as the provenance export
                    "ts": max((record["ts"] - base_ts) * 1e6, 0.0),
                    "dur": max(record["dur"] * 1e6, 1.0),
                    "args": args,
                }
            )
    document = {
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "processes": len(ordered)},
        "traceEvents": events,
    }
    validate_chrome_trace(document)
    return document
