"""One span and one event call over the per-thread telemetry context.

Five destinations keep their own installers — the metrics recorder, the
provenance ring, the progress hook (``bind(progress=...)``), slog and
the trace shards (``bind(trace=...)`` plus a sink) — and instrumented
code reaches them through :func:`span` and :func:`emit`.  :data:`EVENTS`
is the one table of which channels each event kind reaches and under
which names; :func:`wire` / :func:`adopt` carry the context across a
process boundary as one plain dict.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple, Union

from repro.obs import provenance, slog, trace
from repro.obs.recorder import Recorder, active_recorder, bind, context, enabled, incr


class _TracedSpan:
    """A recorder span that also writes a trace record (see :func:`span`)."""

    __slots__ = ("_inner", "_name", "_data", "_parent", "_ctx", "_start")

    def __init__(self, inner, name: str, data: dict, parent: trace.TraceContext):
        self._inner = inner
        self._name = name
        self._data = data
        self._parent = parent

    def __enter__(self) -> "_TracedSpan":
        self._inner.__enter__()
        parent = self._parent
        self._ctx = context.trace = trace.TraceContext(
            parent.trace_id, trace.mint_id(), parent.span_id
        )
        self._start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        context.trace = self._parent
        trace.write_span(self._ctx, self._name, self._start, self._data)
        return self._inner.__exit__(exc_type, exc, tb)


#: span-name prefixes that also reach the trace shards: the request-level
#: structure of a stitched trace.  Engine- and client-level spans stay
#: recorder aggregates — one record per engine step would swamp a shard.
TRACED = ("http.", "serve.", "driver.rung.")


def span(name: str, **data):
    """Time a region: ``with obs.span("engine.step"): ...``.

    ``data`` annotates the trace record only; outside a trace (no
    context, no sink, or a name not in :data:`TRACED`) the span is the
    recorder's (a shared no-op when disabled).
    """
    recorder = active_recorder()
    parent = context.trace
    if parent is None or trace.sink() is None or not name.startswith(TRACED):
        return recorder.span(name)
    return _TracedSpan(recorder.span(name), name, data, parent)


def notify(event: dict) -> None:
    """Deliver one plain event dict to this thread's progress hook.

    The one place a subscriber's exception is swallowed — and counted as
    ``telemetry.subscriber_errors``: telemetry must never abort the
    analysis it watches.
    """
    hook = context.progress
    if hook is None:
        return
    try:
        hook(event)
    except Exception:
        incr("telemetry.subscriber_errors")


class Event(NamedTuple):
    """Where one event kind goes, and under which names."""

    #: counter name, a ``str.format`` template over the event's fields,
    #: or a callable of the fields (None: no counter)
    counter: Union[None, str, Callable[[dict], str]] = None
    #: provenance event kind (None: not recorded in the flight recorder)
    prov: Optional[str] = None
    #: ``(level, slog event name)`` (None: no log line)
    log: Optional[Tuple[str, str]] = None
    #: ``event`` value of the progress-hook dict (None: not streamed)
    progress: Optional[str] = None


def _by_code(prefix: str) -> Callable[[dict], str]:
    """Counter named by a diagnostic code's suffix: ``BUDGET_STEPS`` under
    ``engine.budget.`` counts ``engine.budget.steps``."""
    return lambda fields: prefix + fields["code"].split("_", 1)[1].lower()


_DEGRADE = ("warning", "engine.degrade")

#: every event kind and its channels (see the module docstring)
EVENTS: Dict[str, Event] = {
    # the engine's provenance vocabulary: flight recorder + debug mirror
    **{
        kind: Event(prov=kind, log=("debug", f"prov.{kind}"))
        for kind in (
            "run_start", "entry", "transfer", "branch", "split", "match",
            "buffer", "merge", "join", "widen", "match_attempt",
        )
    },
    # engine degradation, budgets and checkpoints
    "client_fault": Event("engine.recover.client_fault", "client_fault", _DEGRADE),
    "cfg_malformed": Event(None, "cfg_malformed", _DEGRADE),
    "giveup": Event(None, "giveup", _DEGRADE),
    "budget_trip": Event(
        _by_code("engine.budget."), "budget_trip", ("warning", "engine.budget")
    ),
    "checkpoint_write": Event(None, "checkpoint_write", ("info", "engine.checkpoint")),
    "checkpoint_failed": Event(
        "engine.ckpt.write_errors", None, ("warning", "engine.checkpoint_failed")
    ),
    "checkpoint_resume": Event(
        "engine.ckpt.resumes", "checkpoint_resume", ("info", "engine.resume")
    ),
    "checkpoint_rejected": Event(
        _by_code("engine.ckpt."), "checkpoint_rejected",
        ("warning", "engine.resume_rejected"),
    ),
    "heartbeat": Event(progress="progress"),
    # the fallback ladder
    "rung_start": Event(progress="rung"),
    "rung_end": Event("driver.rung.{name}.{confidence}", log=("info", "driver.rung")),
    "rung_skipped": Event("driver.rung.{name}.skipped"),
    "chosen": Event(log=("info", "driver.chosen")),
    "batch_fallback": Event(
        "driver.batch.parallel_fallbacks", log=("info", "driver.batch_fallback")
    ),
    "batch_worker_lost": Event(
        "driver.batch.worker_lost", log=("warning", "driver.batch_worker_lost")
    ),
    # the service
    "retry": Event("serve.retries", log=("info", "serve.retry")),
    "retries_exhausted": Event(log=("warning", "serve.retries_exhausted")),
}


def emit(
    kind: str,
    *,
    node_key: Optional[tuple] = None,
    parents: Optional[Tuple[Optional[int], ...]] = None,
    detail: str = "",
    data: Optional[dict] = None,
    step: Optional[int] = None,
    dur: float = 0.0,
    **fields,
) -> Optional[int]:
    """Report one event of ``kind`` to every channel its :data:`EVENTS`
    row names; returns the provenance event id (None when not recorded).

    ``node_key``/``parents``/``detail``/``data``/``step``/``dur`` describe
    the provenance event (``parents`` defaults to the last recorded
    event); the slog line carries ``id``/``step``/``node``/``detail`` plus
    ``fields``, which also fill the counter template and the progress
    dict.
    """
    event = EVENTS[kind]
    counter = event.counter
    if counter is not None:
        incr(counter(fields) if callable(counter) else counter.format(**fields))
    event_id = None
    if event.prov is not None:
        prov = provenance.active()
        if prov is not None:
            event_id = prov.emit(
                event.prov, node_key=node_key,
                parents=(prov.last_event_id,) if parents is None else parents,
                detail=detail, data=data, step=step or 0, dur=dur,
            )
    if event.progress is not None:
        notify({"event": event.progress, **fields})
    if event.log is not None and slog.enabled_for(event.log[0]):
        slog.log(
            *event.log, id=event_id, step=step, detail=detail or None,
            node=list(node_key[0]) if node_key is not None else None, **fields,
        )
    return event_id


def wire() -> dict:
    """This thread's telemetry context as one plain dict for a worker
    process: whether to record counters, the trace context, the sink and
    whether a progress hook listens."""
    ctx = context.trace
    sink = trace.sink()
    return {
        "record": enabled(),
        "trace": ctx.to_dict() if ctx is not None else None,
        "sink": str(sink) if sink is not None else None,
        "progress": context.progress is not None,
    }


@contextmanager
def adopt(
    wired: dict, progress: Optional[Callable[[dict], None]] = None
) -> Iterator[Optional[Recorder]]:
    """Re-establish a :func:`wire` dict in this (worker) process.

    Binds a private recorder when the sender was recording — yielded, so
    the caller can ship ``recorder.counters`` home — the sender's trace
    context under its sink (spans land in this process's own shard), and
    ``progress`` as the hook when the sender had one.
    """
    if wired.get("sink"):
        trace.configure_sink(wired["sink"], "worker")
    recorder = Recorder() if wired.get("record") else None
    with bind(
        recorder=recorder,
        trace=trace.TraceContext.from_dict(wired.get("trace")),
        progress=progress if wired.get("progress") else None,
    ):
        yield recorder
