"""repro.obs — observability for the pCFG engine.

Hierarchical span tracing, typed counters/histograms, and a Section IX
profile exporter.  Disabled by default at zero cost; enable with::

    from repro import obs

    recorder = obs.enable()
    ...run an analysis...
    print(recorder.snapshot())

or profile a whole run in one call::

    from repro.obs import profile_program

    profile, result = profile_program(programs.get("exchange_with_root"))
    print(profile.table())          # Section IX-style cost table
    profile.to_json()               # the CI build artifact

The CLI equivalent is ``python -m repro profile <program>``.

Instrumented code calls ``obs.span(name, **data)`` (the one span),
``obs.emit(kind, ...)`` (one discrete event, to every channel its row of
:data:`repro.obs.telemetry.EVENTS` names) and the plain hot-path
``obs.incr`` / ``obs.observe``.  They reach the destinations bound in the
per-thread telemetry context (``obs.bind``; ``obs.wire`` / ``obs.adopt``
across processes) and the process-global ones: :mod:`repro.obs.provenance`
(the flight recorder behind ``repro explain``), :mod:`repro.obs.slog`
(``--log-level`` / ``REPRO_LOG``) and the span-shard sink of
:mod:`repro.obs.trace`.
"""

from repro.obs import export, metrics, provenance, slog, trace
from repro.obs.profile import SPAN_CATEGORIES, Profile, build_profile, profile_program
from repro.obs.provenance import ProvenanceEvent, ProvenanceRecorder
from repro.obs.recorder import (
    HistogramStats,
    NullRecorder,
    Recorder,
    SpanStats,
    active_recorder,
    bind,
    context,
    disable,
    enable,
    enabled,
    incr,
    merge_counters,
    observe,
    recording,
    reset,
)
from repro.obs.telemetry import EVENTS, adopt, emit, notify, span, wire

__all__ = [
    "EVENTS",
    "HistogramStats",
    "NullRecorder",
    "Profile",
    "ProvenanceEvent",
    "ProvenanceRecorder",
    "Recorder",
    "SPAN_CATEGORIES",
    "SpanStats",
    "active_recorder",
    "adopt",
    "bind",
    "build_profile",
    "context",
    "disable",
    "enable",
    "emit",
    "enabled",
    "export",
    "incr",
    "merge_counters",
    "metrics",
    "notify",
    "observe",
    "profile_program",
    "provenance",
    "recording",
    "reset",
    "slog",
    "span",
    "trace",
    "wire",
]
