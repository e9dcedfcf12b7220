"""Precision-fallback ladder: always return the best *sound* answer.

The engine's resilience layer guarantees ``run()`` never raises, but a
degraded (``partial`` / ``gave_up``) result still leaves precision on the
table.  This driver climbs down a ladder of progressively cheaper-but-
wider analyses until one produces an ``exact`` answer:

1. ``cartesian`` — the Section VIII Cartesian/HSM client at the caller's
   limits (the most precise client this repository has; it runs the
   Section VII affine matching and adds HSM matching on top, so a
   Section VII rung after it could never prove a match it missed);
2. ``cartesian-escalated`` — same client with doubled ``widen_after``,
   ``max_psets`` and ``max_steps`` (loses less precision in loops and
   survives deeper splits, at more cost).  Skipped when the previous
   rung's only failure was the client's own ⊤ give-up
   (``GIVEUP_NO_MATCH``): a bigger budget or a fresh run cannot make the
   client match what it cannot express (see :func:`_escalation_futile`);
3. ``mpi-cfg`` — the Section II MPI-CFG baseline.  Never gives up: every
   send is connected to every receive that sequential facts cannot rule
   out.  Sound by construction, over-approximate by design, so the
   synthesized result is marked ``confidence="partial"``.

The first rung whose result is ``exact`` wins; if none is, the baseline
rung is chosen (it always completes), and the report keeps every attempted
rung's outcome so callers can still inspect the sharper partial results.
"""

from __future__ import annotations

import inspect
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.core import diagnostics
from repro.core.engine import AnalysisResult, EngineLimits
from repro.core.topology import MatchRecord, StaticTopology
from repro.faults import plane as faults

RungRunner = Callable[[object, EngineLimits], Tuple[AnalysisResult, object, object]]


@dataclass(frozen=True)
class Rung:
    """One level of the fallback ladder."""

    name: str
    run: RungRunner
    limits: EngineLimits


@dataclass
class RungOutcome:
    """What one attempted rung produced."""

    name: str
    result: AnalysisResult
    cfg: object
    client: object

    @property
    def confidence(self) -> str:
        return self.result.confidence

    @property
    def resumed_from(self) -> str:
        """Where this rung warm-started from ("" for a cold start)."""
        return getattr(self.result, "resumed_from", "")

    def describe(self) -> str:
        resumed = f", resumed from {self.resumed_from}" if self.resumed_from else ""
        return (
            f"{self.name}: {self.result.confidence} "
            f"({diagnostics.summarize(self.result.diagnostics)}, "
            f"{len(self.result.matches)} matches{resumed})"
        )


@dataclass
class FallbackReport:
    """The ladder's full history plus the chosen answer."""

    rungs: List[RungOutcome] = field(default_factory=list)
    chosen: Optional[RungOutcome] = None

    @property
    def result(self) -> AnalysisResult:
        return self.chosen.result

    @property
    def cfg(self):
        return self.chosen.cfg

    @property
    def client(self):
        return self.chosen.client

    @property
    def rung_name(self) -> str:
        return self.chosen.name

    def describe(self) -> str:
        lines = [outcome.describe() for outcome in self.rungs]
        lines.append(f"answer from rung: {self.chosen.name}")
        return "\n".join(lines)


def escalate(limits: EngineLimits) -> EngineLimits:
    """Escalated limits for a retry: double the precision-bounding knobs."""
    return replace(
        limits,
        max_steps=limits.max_steps * 2,
        widen_after=limits.widen_after * 2,
        max_psets=limits.max_psets * 2,
    )


def _run_cartesian(program, limits, *, checkpointer=None, resume=None):
    from repro.analyses.cartesian import analyze_cartesian

    return analyze_cartesian(
        program, limits=limits, checkpointer=checkpointer, resume=resume
    )


def _run_mpi_cfg_baseline(program, limits):
    """The last rung: the MPI-CFG baseline, synthesized as an AnalysisResult.

    Sound (a superset of every true topology, Section II) and total — it
    cannot give up — but over-approximate, hence ``confidence="partial"``
    with no diagnostics (nothing *failed*; precision was traded away
    wholesale).
    """
    from repro.baselines.mpi_cfg import build_mpi_cfg
    from repro.lang.cfg import build_cfg

    cfg = build_cfg(program)
    baseline = build_mpi_cfg(program, cfg=cfg)
    topology = StaticTopology()
    for send_node, recv_node in sorted(baseline.comm_edges):
        topology.add(
            MatchRecord(
                send_node=send_node,
                recv_node=recv_node,
                sender_desc="[0..np-1]",
                receiver_desc="[0..np-1]",
                send_label=cfg.node(send_node).label,
                recv_label=cfg.node(recv_node).label,
            )
        )
    result = AnalysisResult(topology=topology)
    result.confidence = diagnostics.PARTIAL
    return result, cfg, baseline


def default_ladder(limits: Optional[EngineLimits] = None) -> List[Rung]:
    """The standard three-rung ladder (see the module docstring)."""
    base = limits or EngineLimits()
    return [
        Rung("cartesian", _run_cartesian, base),
        Rung("cartesian-escalated", _run_cartesian, escalate(base)),
        Rung("mpi-cfg", _run_mpi_cfg_baseline, base),
    ]


def baseline_ladder(limits: Optional[EngineLimits] = None) -> List[Rung]:
    """A single-rung ladder: only the total MPI-CFG baseline.

    The analysis service's degraded-mode answer under load pressure —
    cheap, total, sound-but-wide — delivered through the same
    ``analyze_with_fallback`` machinery so reports stay uniform.
    """
    base = limits or EngineLimits()
    return [Rung("mpi-cfg", _run_mpi_cfg_baseline, base)]


def _supports_checkpointing(runner) -> bool:
    """True when a rung runner accepts ``checkpointer``/``resume`` kwargs."""
    try:
        params = inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False
    return "checkpointer" in params and "resume" in params


def _carryable_snapshot(result: AnalysisResult):
    """A budget-trip snapshot safe to warm-start the *next* rung from.

    Only pure budget exhaustion qualifies: if any other (non-INFO)
    diagnostic fired, the captured states may already be poisoned by the
    very imprecision or fault the escalated rung exists to avoid, so the
    next rung must cold-start.
    """
    snap = getattr(result, "snapshot", None)
    if snap is None:
        return None
    meaningful = [d for d in result.diagnostics if d.severity != diagnostics.INFO]
    if meaningful and all(d.code in diagnostics.BUDGET_CODES for d in meaningful):
        return snap
    return None


def _escalation_futile(result: AnalysisResult) -> bool:
    """True when re-running ``result``'s client cannot answer better.

    Only the client's own ⊤ give-up qualifies: ``GIVEUP_NO_MATCH`` says
    the client cannot express a match, which a bigger budget or a fresh
    run reproduces.  A run that tripped a budget, hit the pset bound or
    had a client fault still escalates.
    """
    meaningful = [d for d in result.diagnostics if d.severity != diagnostics.INFO]
    return bool(meaningful) and all(
        d.code == diagnostics.GIVEUP_NO_MATCH for d in meaningful
    )


def _pool_context():
    """fork where available (cheap, no re-import), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def analyze_with_fallback(
    program_or_spec,
    limits: Optional[EngineLimits] = None,
    ladder: Optional[List[Rung]] = None,
    *,
    checkpointer=None,
    resume=None,
    progress=None,
) -> FallbackReport:
    """Climb the fallback ladder until a rung answers exactly.

    Returns a :class:`FallbackReport`; ``report.chosen`` is the first
    ``exact`` rung, or the final (baseline) rung when none is exact.
    Rungs after the winning one are not run, and neither is a rung that
    re-runs the previous rung's client after that client gave up with
    only ``GIVEUP_NO_MATCH`` (see :func:`_escalation_futile`).

    ``checkpointer`` (a :class:`repro.core.checkpoint.Checkpointer`) and
    ``resume`` (a snapshot or path for the *first* rung) are forwarded to
    rungs whose runners accept them.  When a rung trips a budget, its
    final snapshot warm-starts the next rung instead of recomputing the
    explored prefix from scratch — but only when the tripped run was
    otherwise clean (see :func:`_carryable_snapshot`); a rung whose client
    class differs from the snapshot's is detected by the engine and falls
    back to a cold start.

    ``progress`` (a callable of one event dict) is bound as the
    telemetry context's progress hook for the climb (None keeps the
    thread's current hook): it receives a ``rung`` event as each rung
    starts, plus the engine heartbeats emitted below it, so rung runners
    need no signature change.
    """
    if hasattr(program_or_spec, "parse"):
        program = program_or_spec.parse()
    else:
        program = program_or_spec
    rungs = ladder if ladder is not None else default_ladder(limits)
    with obs.bind(progress=progress):
        return _climb(program, rungs, checkpointer, resume)


def _climb(program, rungs: List[Rung], checkpointer, carry) -> FallbackReport:
    report = FallbackReport()
    previous: Optional[Rung] = None
    for rung in rungs:
        if (
            previous is not None
            and rung.run is previous.run
            and _escalation_futile(report.rungs[-1].result)
        ):
            obs.emit("rung_skipped", name=rung.name)
            continue
        previous = rung
        obs.emit("rung_start", rung=rung.name)
        wants_ckpt = (checkpointer is not None or carry is not None)
        with obs.span(f"driver.rung.{rung.name}"):
            if wants_ckpt and _supports_checkpointing(rung.run):
                result, cfg, client = rung.run(
                    program, rung.limits, checkpointer=checkpointer, resume=carry
                )
            else:
                result, cfg, client = rung.run(program, rung.limits)
        outcome = RungOutcome(rung.name, result, cfg, client)
        report.rungs.append(outcome)
        if outcome.resumed_from:
            obs.incr("driver.rung.warm_start")
        obs.emit(
            "rung_end",
            name=rung.name,
            confidence=result.confidence,
            matches=len(result.matches),
            diagnostics=diagnostics.summarize(result.diagnostics),
            resumed_from=outcome.resumed_from or None,
        )
        if result.confidence == diagnostics.EXACT:
            report.chosen = outcome
            obs.emit("chosen", name=outcome.name, confidence=diagnostics.EXACT)
            return report
        carry = _carryable_snapshot(result)
    # nothing exact: the last rung (the baseline, for the default ladder)
    # is the answer of record
    report.chosen = report.rungs[-1]
    obs.emit(
        "chosen", name=report.chosen.name, confidence=report.chosen.confidence
    )
    return report


def _batch_worker(task: tuple) -> tuple:
    """Analyze one batch item in a worker process under the parent's
    wired telemetry; the counters travel home with the report."""
    faults.uninstall()  # inherited over fork; see FaultPlane
    item, limits, ladder, telemetry = task
    with obs.adopt(telemetry) as recorder:
        report = analyze_with_fallback(item, limits=limits, ladder=ladder)
    return report, (dict(recorder.counters) if recorder is not None else None)


def analyze_batch(
    programs_or_specs,
    limits: Optional[EngineLimits] = None,
    ladder: Optional[List[Rung]] = None,
    jobs: int = 1,
):
    """Run the fallback ladder over many programs.

    Yields ``(item, FallbackReport)`` pairs in input order.  This is the
    batch entry point the corpus sweep's in-process path and the future
    analysis-service batch endpoint share: one ladder configuration,
    many programs, per-program isolation (one program's failure cannot
    abort the batch — ``analyze_with_fallback`` never raises for
    analysis-level failures, and the ladder's baseline rung is total).

    ``jobs > 1`` fans the programs out over a process pool (whole-program
    parallelism: each worker climbs the full ladder for its item) and
    merges each worker's obs-counter snapshot back into the parent
    recorder.  The input is materialized up front in that mode; items are
    still yielded in input order as their results arrive.  An unpicklable
    program/ladder degrades to the serial loop; a worker that dies is
    retried in-process, so the batch always completes.
    """
    if jobs <= 1:
        for item in programs_or_specs:
            with obs.span("driver.batch.program"):
                report = analyze_with_fallback(item, limits=limits, ladder=ladder)
            obs.incr(f"driver.batch.{report.result.confidence}")
            yield item, report
        return
    items = list(programs_or_specs)
    try:
        pickle.dumps((items, limits, ladder), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        obs.emit("batch_fallback", reason=str(exc))
        for item in items:
            with obs.span("driver.batch.program"):
                report = analyze_with_fallback(item, limits=limits, ladder=ladder)
            obs.incr(f"driver.batch.{report.result.confidence}")
            yield item, report
        return
    telemetry = obs.wire()
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=_pool_context()
    ) as pool:
        futures = [
            pool.submit(_batch_worker, (item, limits, ladder, telemetry))
            for item in items
        ]
        for item, future in zip(items, futures):
            try:
                report, counters = future.result()
            except Exception as exc:
                obs.emit("batch_worker_lost", error=str(exc))
                with obs.span("driver.batch.program"):
                    report = analyze_with_fallback(
                        item, limits=limits, ladder=ladder
                    )
                counters = None
            obs.merge_counters(counters)
            obs.incr(f"driver.batch.{report.result.confidence}")
            yield item, report
