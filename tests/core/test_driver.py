"""The precision-fallback ladder (`repro.core.driver`)."""

from __future__ import annotations

from repro.core import diagnostics
from repro.core.driver import (
    analyze_batch,
    analyze_with_fallback,
    default_ladder,
    escalate,
)
from repro.core.engine import EngineLimits
from repro.faults import plane
from repro.faults.plane import FaultSchedule, PlannedFault
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import recorder as obs
from repro.runtime import run_program

#: programs the batch fan-out tests push through a process pool
BATCH_CORPUS = ["pingpong", "shift_right", "master_worker", "mdcask_full"]


def test_first_rung_exact_wins_and_stops():
    report = analyze_with_fallback(programs.get("exchange_with_root"))
    assert report.rung_name == "cartesian"
    assert len(report.rungs) == 1  # later rungs were never run
    assert report.result.confidence == diagnostics.EXACT
    assert report.result.matches


def test_escalated_limits_rescue_a_budget_starved_run():
    # rung 1 runs out of steps (needs 23); the escalated rung doubles the
    # budget to 36, enough even at its deeper widen_after=4 (31 steps)
    report = analyze_with_fallback(
        programs.get("exchange_with_root"), limits=EngineLimits(max_steps=18)
    )
    assert report.rung_name == "cartesian-escalated"
    assert [outcome.name for outcome in report.rungs] == [
        "cartesian",
        "cartesian-escalated",
    ]
    assert report.rungs[0].confidence == diagnostics.PARTIAL
    assert report.result.confidence == diagnostics.EXACT


def test_unanalyzable_program_falls_to_the_baseline():
    report = analyze_with_fallback(programs.get("ring_modular"))
    assert report.rung_name == "mpi-cfg"
    assert [outcome.name for outcome in report.rungs] == [
        "cartesian",
        "cartesian-escalated",
        "simple-symbolic",
        "mpi-cfg",
    ]
    # the baseline always answers, marked partial (over-approximate)
    assert report.result.confidence == diagnostics.PARTIAL
    assert report.result.matches
    # the sharper rungs' partial outcomes remain inspectable
    assert all(
        outcome.confidence == diagnostics.PARTIAL for outcome in report.rungs
    )


def test_baseline_rung_is_sound_overapproximation():
    # every concretely observed edge must appear in the baseline topology
    program = programs.get("ring_modular").parse()
    report = analyze_with_fallback(program)
    assert report.rung_name == "mpi-cfg"
    cfg = build_cfg(program)
    for np in (4, 6, 8):
        trace = run_program(program, np, cfg=cfg)
        assert trace.topology().node_edges <= set(report.result.matches), (
            f"baseline missed a real edge at np={np}"
        )


def test_escalate_doubles_the_precision_knobs():
    base = EngineLimits(max_steps=100, widen_after=2, max_psets=4,
                        deadline_sec=1.5, strict=True)
    boosted = escalate(base)
    assert boosted.max_steps == 200
    assert boosted.widen_after == 4
    assert boosted.max_psets == 8
    # non-precision knobs are preserved untouched
    assert boosted.deadline_sec == 1.5
    assert boosted.strict is True


def test_default_ladder_shape():
    rungs = default_ladder(EngineLimits(max_psets=4))
    assert [rung.name for rung in rungs] == [
        "cartesian",
        "cartesian-escalated",
        "simple-symbolic",
        "mpi-cfg",
    ]
    assert rungs[1].limits.max_psets == 8
    assert rungs[2].limits.max_psets == 8


def test_report_describe_names_the_answering_rung():
    report = analyze_with_fallback(programs.get("ring_modular"))
    text = report.describe()
    assert "answer from rung: mpi-cfg" in text
    assert "cartesian: partial" in text


# -- whole-program batch fan-out ----------------------------------------------


def test_parallel_batch_matches_serial_in_order():
    items = [programs.get(name) for name in BATCH_CORPUS]

    def digest(pairs):
        return [
            (
                getattr(item, "name", "?"),
                report.rung_name,
                report.result.confidence,
                frozenset(report.result.matches),
            )
            for item, report in pairs
        ]

    serial = digest(analyze_batch(items))
    parallel = digest(analyze_batch(items, jobs=2))
    assert parallel == serial  # same answers, input order preserved


def test_parallel_batch_merges_worker_counters():
    items = [programs.get(name) for name in BATCH_CORPUS]
    with obs.recording() as recorder:
        list(analyze_batch(items, jobs=2))
    assert recorder.counters.get("engine.steps", 0) > 0


def test_parallel_batch_workers_drop_the_inherited_fault_plane():
    # every client callback raises, but only in this process: a forked
    # pool worker must not inherit the live plane
    every_callback = FaultSchedule([PlannedFault("client.callback.raise", count=10**9)])
    items = [programs.get(name) for name in BATCH_CORPUS[:2]]
    with plane.engaged(every_callback) as live:
        reports = [report for _item, report in analyze_batch(items, jobs=2)]
    assert live.coverage()["client.callback.raise"]["hits"] == 0
    assert all(report.result.confidence == diagnostics.EXACT for report in reports)
