"""In-memory span tracer that attributes time to the repository's layers.

The benchmark measures from outside: it wraps public functions and methods
of ``repro`` at the names their callers look up (class attributes, and every
``repro.*`` module global bound to a wrapped function), records one span per
call, and restores the originals when done.  Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent id, group)``.  ``group`` is the
shared id of one program (closed-loop workloads) or one request (the
service: the request's trace id, which the client sends as
``X-Repro-Trace``).  A span's self time is its duration minus the time of
its direct children; a call nested in a span of the same name (a method
calling ``super()``) is folded into the outer span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: client callbacks the engine drives, timed per call
CALLBACKS = (
    "transfer", "branch", "try_match", "join", "widen", "is_empty",
    "merge_psets", "remove_pset", "rename", "pending_sites", "state_fingerprint",
)
#: spans kept in the written trace file; the aggregates use every span
MAX_WRITTEN_SPANS = 200_000


class Tracer:
    """Patches the layer boundaries and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        #: (journal event, job id, wall time) for queue-wait accounting
        self.journal_events: List[tuple] = []
        self.group = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._closure_mark = None

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_group(self):
        from repro.obs import trace

        return trace.current_trace_id() or self.group

    def _span_wrapper(self, fn: Callable, name: str, on_result=None, group_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            group = group_of(args) if group_of else None
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, group or tracer.current_group())
                )
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, count_only=False, **hooks) -> None:
        fn = cls.__dict__[attr]
        if count_only:
            self._set(cls, attr, self._count_wrapper(fn, name))
        else:
            self._set(cls, attr, self._span_wrapper(fn, name, **hooks))

    def wrap_function(self, fn: Callable, name: str, **hooks) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        wrapped = self._span_wrapper(fn, name, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary and start counting the program's own
        closure statistics and ``repro.obs`` counters."""
        from repro.cgraph.stats import global_stats
        from repro.obs import recorder as obs

        stats = global_stats()
        self._closure_mark = (stats.full_calls, len(stats.full_vars),
                              stats.incremental_calls, stats.cache_hits)
        self._owns_recorder = not obs.enabled()
        if self._owns_recorder:
            obs.enable(obs.Recorder(locked=True))
        self._obs_mark = dict(obs.active_recorder().counters)
        for kind, owner_or_fn, attr, name, opts in _targets():
            if kind == "method":
                self.wrap_method(owner_or_fn, attr, name, **opts)
            else:
                self.wrap_function(owner_or_fn, name, **opts)

    def uninstall(self) -> None:
        from repro.cgraph.stats import global_stats
        from repro.obs import recorder as obs

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._closure_mark is None:
            return
        stats = global_stats()
        full0, vars0, inc0, hits0 = self._closure_mark
        self._closure_mark = None
        self.counts["cgraph.full_closures"] += stats.full_calls - full0
        self.counts["cgraph.full_closure_vars"] += sum(stats.full_vars[vars0:])
        self.counts["cgraph.incremental_closures"] += stats.incremental_calls - inc0
        self.counts["cgraph.closure_memo_hits"] += stats.cache_hits - hits0
        for name, value in obs.active_recorder().counters.items():
            delta = value - self._obs_mark.get(name, 0)
            if delta:
                self.counts[f"obs:{name}"] += delta
        if self._owns_recorder:
            obs.disable()

    # -- aggregation -----------------------------------------------------------

    def overhead_seconds(self, calls: int = 20000) -> float:
        """The wrappers' own cost over this run: the spans and counts
        recorded, each priced by timing a wrapped no-op here and now."""
        def noop():
            return None

        probe = Tracer()
        span, count = probe._span_wrapper(noop, "probe"), probe._count_wrapper(noop, "probe")
        costs = []
        for fn in (noop, span, count):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            costs.append((time.perf_counter() - start) / calls)
        bare, per_span, per_count = costs
        counted = self.counts["expr.linear_eq"] + self.counts["procset.bound_compare"]
        return len(self.spans) * (per_span - bare) + counted * (per_count - bare)

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _group in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for sid, name, start, end, _parent, _group in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        """Write the spans (up to :data:`MAX_WRITTEN_SPANS`) as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "counts": dict(self.counts)}) + "\n")
            for sid, name, start, end, parent, group in self.spans[:MAX_WRITTEN_SPANS]:
                handle.write(json.dumps([sid, name, round(start, 6), round(end, 6), parent,
                                         group]) + "\n")

    def top_level(self) -> Dict[object, List[Tuple[float, float]]]:
        """Top-level span intervals by group."""
        out: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, group in self.spans:
            if parent is None:
                out[group].append((start, end))
        return out


def covered(intervals, lo: float, hi: float) -> float:
    """Seconds of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- what gets wrapped ---------------------------------------------------------


def _count_nodes(tracer: Tracer, _args, cfg) -> None:
    tracer.counts["lang.cfg_nodes"] += len(cfg.nodes)


def _count_steps(tracer: Tracer, _args, result) -> None:
    tracer.counts["core.engine_steps"] += int(result.steps)


def _count_lookup(tracer: Tracer, _args, entry) -> None:
    tracer.counts["serve.cache_lookups"] += 1
    tracer.counts["serve.cache_hits"] += entry is not None


def _journal_event(tracer: Tracer, args, _ok) -> None:
    record = args[1] if len(args) > 1 else {}
    if isinstance(record, dict) and record.get("event") in ("accepted", "started"):
        tracer.journal_events.append((record["event"], record.get("job"), time.time()))


def _header_group(args):
    handler = args[0]
    return handler.headers.get("X-Repro-Trace") if handler.headers else None


def _targets() -> list:
    from repro.analyses.cartesian import CartesianClient, analyze_cartesian
    from repro.analyses.simple_symbolic import SimpleSymbolicClient, analyze_program
    from repro.baselines.mpi_cfg import build_mpi_cfg
    from repro.cgraph.constraint_graph import ConstraintGraph
    from repro.core.checkpoint import cfg_fingerprint
    from repro.core.driver import analyze_with_fallback
    from repro.core.engine import PCFGEngine
    from repro.expr.linear import LinearExpr
    from repro.hsm.prover import HSMProver
    from repro.lang.cfg import build_cfg
    from repro.lang.parser import parse
    from repro.procset.interval import Bound, ProcSet, SymRange
    from repro.serve.cache import ResultCache, compute_key
    from repro.serve.daemon import AnalysisService
    from repro.serve.http import _Handler
    from repro.serve.journal import JobJournal

    targets = [
        ("function", parse, None, "lang.parse", {}),
        ("function", build_cfg, None, "lang.build_cfg", {"on_result": _count_nodes}),
        ("function", cfg_fingerprint, None, "core.cfg_fingerprint", {}),
        ("function", analyze_with_fallback, None, "core.driver", {}),
        ("function", analyze_cartesian, None, "core.rung", {}),
        ("function", analyze_program, None, "core.rung", {}),
        ("function", build_mpi_cfg, None, "baselines.mpi_cfg", {}),
        ("method", PCFGEngine, "run", "core.engine", {"on_result": _count_steps}),
        ("method", LinearExpr, "__eq__", "expr.linear_eq", {"count_only": True}),
        ("method", ProcSet, "union_with", "procset.union_with", {}),
        ("method", SymRange, "difference", "procset.difference", {}),
        ("method", HSMProver, "seq_equal", "hsm.prove", {}),
        ("method", HSMProver, "set_equal", "hsm.prove", {}),
        ("function", compute_key, None, "serve.compute_key", {}),
        ("method", AnalysisService, "submit", "serve.submit", {}),
        ("method", ResultCache, "lookup", "serve.cache_lookup", {"on_result": _count_lookup}),
        ("method", ResultCache, "store", "serve.cache_store", {}),
        ("method", JobJournal, "append", "serve.journal_append", {"on_result": _journal_event}),
        ("method", _Handler, "do_POST", "serve.http", {"group_of": _header_group}),
    ]
    for attr in ("lt", "leq", "eq"):
        targets.append(("method", Bound, attr, "procset.bound_compare", {"count_only": True}))
    for attr in ("close", "close_incremental", "join", "widen", "copy_namespace_from",
                 "equivalents"):
        targets.append(("method", ConstraintGraph, attr, f"cgraph.{attr}", {}))
    seen = set()
    for client in (CartesianClient, SimpleSymbolicClient):
        for cls in client.__mro__:
            for attr in CALLBACKS:
                if attr in cls.__dict__ and (cls, attr) not in seen:
                    seen.add((cls, attr))
                    targets.append(("method", cls, attr, f"analyses.{attr}", {}))
    return targets


# -- per-layer metrics ----------------------------------------------------------

#: (name, unit) of every per-layer metric; "/op" is per program (closed
#: loops) or per request (the service), a bare "ms" is a mean per call
PER_LAYER = [
    ("cgraph.close.calls", "count/op"),
    ("cgraph.close.avg_vars", "vars"),
    ("cgraph.close.self_ms", "ms/op"),
    ("cgraph.close_incremental.calls", "count/op"),
    ("cgraph.close_incremental.self_ms", "ms/op"),
    ("cgraph.closure_memo_hit_ratio", "ratio"),
    ("cgraph.join.self_ms", "ms/op"),
    ("cgraph.widen.self_ms", "ms/op"),
    ("cgraph.copy_namespace_from.self_ms", "ms/op"),
    ("cgraph.equivalents.calls", "count/op"),
    ("cgraph.equivalents.self_ms", "ms/op"),
    ("cgraph.closure_memo_entries", "count"),
    ("cgraph.equiv_registry_entries", "count"),
]
PER_LAYER += [(f"analyses.{cb}.{what}", unit) for cb in CALLBACKS
              for what, unit in (("calls", "count/op"), ("self_ms", "ms/op"))]
PER_LAYER += [
    ("expr.linear_eq.calls", "count/op"),
    ("procset.union_with.calls", "count/op"),
    ("procset.union_with.self_ms", "ms/op"),
    ("procset.difference.calls", "count/op"),
    ("procset.difference.self_ms", "ms/op"),
    ("procset.bound_compare.calls", "count/op"),
    ("hsm.prove.calls", "count/op"),
    ("hsm.prove.self_ms", "ms/op"),
    ("hsm.prove_memo_hit_ratio", "ratio"),
    ("core.engine_self_ms", "ms/op"),
    ("core.engine_steps", "count/op"),
    ("core.rungs_per_program", "count"),
    ("core.wasted_rung_ms", "ms/op"),
    ("core.useful_rung_ratio", "ratio"),
    ("baselines.mpi_cfg.calls", "count/op"),
    ("baselines.mpi_cfg.self_ms", "ms/op"),
    ("lang.parse_ms", "ms"),
    ("lang.build_cfg_ms", "ms"),
    ("lang.cfg_nodes", "count"),
    ("core.cfg_fingerprint_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.http_ms", "ms"),
    ("serve.journal_append.calls", "count/op"),
    ("serve.journal_append_ms", "ms"),
    ("serve.journal_bytes_per_req", "B"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.cache_store_ms", "ms"),
    ("serve.degraded_share", "ratio"),
    ("serve.shed_share", "ratio"),
    ("serve.retries", "count/op"),
    ("serve.trace_files_per_req", "count"),
    ("serve.trace_bytes_per_req", "B"),
    ("serve.state_bytes_per_req", "B"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
]

#: spans of the admission path (their time under ``serve.submit``)
_ADMISSION = ("lang.parse", "lang.build_cfg", "core.cfg_fingerprint", "serve.compute_key")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans and counts of a traced
    run over ``ops`` operations; ``extra`` supplies what only the workload
    can measure (state growth, lag, overhead, unattributed time)."""
    from repro.cgraph import constraint_graph

    agg = tracer.aggregate()
    counts = tracer.counts
    out: Dict[str, float] = {}

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def self_ms(name):
        return 1000.0 * agg[name]["self"] if name in agg else 0.0

    def mean_ms(name):
        return _ratio(1000.0 * agg[name]["total"], agg[name]["calls"]) if name in agg else 0.0

    for name in ("cgraph.close", "cgraph.close_incremental", "cgraph.equivalents",
                 "procset.union_with", "procset.difference", "hsm.prove",
                 "baselines.mpi_cfg") + tuple(f"analyses.{cb}" for cb in CALLBACKS):
        out[f"{name}.calls"] = _ratio(calls(name), ops)
        out[f"{name}.self_ms"] = _ratio(self_ms(name), ops)
    for name in ("cgraph.join", "cgraph.widen", "cgraph.copy_namespace_from"):
        out[f"{name}.self_ms"] = _ratio(self_ms(name), ops)
    out["cgraph.close.avg_vars"] = _ratio(counts["cgraph.full_closure_vars"],
                                          counts["cgraph.full_closures"])
    hits = counts["cgraph.closure_memo_hits"]
    out["cgraph.closure_memo_hit_ratio"] = _ratio(
        hits, hits + counts["cgraph.full_closures"] + counts["cgraph.incremental_closures"])
    out["cgraph.closure_memo_entries"] = len(constraint_graph._CLOSURE_CACHE)
    out["cgraph.equiv_registry_entries"] = len(constraint_graph._EQUIV_REGISTRY)
    out["expr.linear_eq.calls"] = _ratio(counts["expr.linear_eq"], ops)
    out["procset.bound_compare.calls"] = _ratio(counts["procset.bound_compare"], ops)
    memo_hits = counts["obs:hsm.prove.cache_hits"]
    out["hsm.prove_memo_hit_ratio"] = _ratio(memo_hits,
                                             memo_hits + counts["obs:hsm.proof.attempts"])
    out["core.engine_self_ms"] = _ratio(self_ms("core.engine"), ops)
    out["core.engine_steps"] = _ratio(counts["core.engine_steps"], ops)

    # the ladder: rung spans directly under each core.driver span
    rungs_of: Dict[int, list] = defaultdict(list)
    drivers = set()
    for sid, name, _start, _end, _parent, _group in tracer.spans:
        if name == "core.driver":
            drivers.add(sid)
    for sid, name, start, end, parent, _group in tracer.spans:
        if parent in drivers and name in ("core.rung", "baselines.mpi_cfg"):
            rungs_of[parent].append((start, end))
    rung_count = sum(len(r) for r in rungs_of.values())
    wasted = sum(sum(e - s for s, e in sorted(r)[:-1]) for r in rungs_of.values())
    out["core.rungs_per_program"] = _ratio(rung_count, len(drivers))
    out["core.wasted_rung_ms"] = _ratio(1000.0 * wasted, ops)
    out["core.useful_rung_ratio"] = _ratio(len(drivers), rung_count)

    out["lang.parse_ms"] = mean_ms("lang.parse")
    out["lang.build_cfg_ms"] = mean_ms("lang.build_cfg")
    out["lang.cfg_nodes"] = _ratio(counts["lang.cfg_nodes"], calls("lang.build_cfg"))
    out["core.cfg_fingerprint_ms"] = mean_ms("core.cfg_fingerprint")

    submits = {sid for sid, name, *_rest in tracer.spans if name == "serve.submit"}
    admission = sum(end - start for _sid, name, start, end, parent, _g in tracer.spans
                    if parent in submits and name in _ADMISSION)
    out["serve.admission_ms"] = _ratio(1000.0 * admission, len(submits))
    out["serve.cache_lookup_ms"] = mean_ms("serve.cache_lookup")
    out["serve.cache_hit_ratio"] = _ratio(counts["serve.cache_hits"],
                                          counts["serve.cache_lookups"])
    out["serve.http_ms"] = mean_ms("serve.http")
    out["serve.journal_append.calls"] = _ratio(calls("serve.journal_append"), ops)
    out["serve.journal_append_ms"] = mean_ms("serve.journal_append")
    accepted = {job: t for event, job, t in tracer.journal_events if event == "accepted"}
    waits = [t - accepted[job] for event, job, t in tracer.journal_events
             if event == "started" and job in accepted]
    out["serve.queue_wait_ms"] = _ratio(1000.0 * sum(waits), len(waits))
    out["serve.exec_ms"] = mean_ms("core.driver") if submits else 0.0
    out["serve.cache_store_ms"] = mean_ms("serve.cache_store")
    degraded = sum(v for k, v in counts.items() if k.startswith("obs:serve.degraded."))
    shed = sum(v for k, v in counts.items() if k.startswith("obs:serve.shed."))
    out["serve.degraded_share"] = _ratio(degraded, len(waits))
    out["serve.shed_share"] = _ratio(shed, ops) if submits else 0.0
    out["serve.retries"] = _ratio(counts["obs:serve.retries"], ops) if submits else 0.0
    for name in ("serve.journal_bytes_per_req", "serve.trace_files_per_req",
                 "serve.trace_bytes_per_req", "serve.state_bytes_per_req",
                 "bench.generator_lag_ms", "bench.trace_overhead", "bench.unattributed_share"):
        out[name] = float(extra.get(name, 0.0))
    missing = {name for name, _unit in PER_LAYER} - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
