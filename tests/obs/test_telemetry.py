"""The telemetry context: one span, one emit, and answers it never changes."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.analyses.cartesian import CartesianClient, analyze_cartesian
from repro.core.driver import Rung, analyze_with_fallback, default_ladder
from repro.corpus.sweep import load_manifest
from repro.lang import programs
from repro.obs import provenance, slog, trace

SMOKE_MANIFEST = Path(__file__).resolve().parents[2] / "corpus" / "manifest_smoke.json"

#: the 18 paper programs plus a slice of the smoke manifest
CASES = [(name, programs.get(name).parse) for name in programs.names()] + [
    (generated.corpus_id, generated.parse)
    for generated in load_manifest(SMOKE_MANIFEST)[:8]
]


def _answer(report) -> dict:
    """The answer of a ladder climb: what telemetry must never change."""
    return {
        "rung": report.rung_name,
        "rungs": [
            (outcome.name, outcome.confidence,
             [diag.code for diag in outcome.result.diagnostics])
            for outcome in report.rungs
        ],
        "matches": sorted(report.result.matches),
        "topology": report.result.topology.describe(),
        "confidence": report.result.confidence,
        "codes": [diag.code for diag in report.result.diagnostics],
    }


class _AllChannels:
    """Every telemetry destination switched on by its own installer."""

    def __init__(self, tmp_path: Path):
        self.sink = tmp_path / "traces"
        self.spill = tmp_path / "journal.jsonl"
        self.events: list = []
        self.ctx = trace.mint()

    def run(self, program, **kwargs):
        trace.configure_sink(self.sink, "test")
        slog.configure("debug")
        try:
            with obs.recording() as self.recorder, provenance.recording(
                capacity=16, spill_path=str(self.spill)
            ) as self.prov, obs.bind(trace=self.ctx, progress=self.events.append):
                return analyze_with_fallback(program, **kwargs)
        finally:
            slog.configure(None)
            trace.configure_sink(None)


@pytest.mark.parametrize("name,parse", CASES, ids=[name for name, _ in CASES])
def test_telemetry_never_changes_an_answer(name, parse, tmp_path, capsys):
    off = analyze_with_fallback(parse())
    assert capsys.readouterr().err == ""
    channels = _AllChannels(tmp_path)
    on = channels.run(parse())
    assert _answer(on) == _answer(off)

    # ...and every channel saw the run
    assert channels.recorder.counters.get("engine.steps", 0) > 0
    assert any(span.startswith("driver.rung.") for span in channels.recorder.spans)
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {"driver.rung", "driver.chosen", "prov.run_start"} <= {
        line["event"] for line in lines
    }
    assert all(line["trace"] == channels.ctx.trace_id for line in lines)
    assert [e["event"] for e in channels.events][:1] == ["rung"]
    spans = trace.load_spans(channels.sink, channels.ctx.trace_id)
    assert {r["name"] for r in spans} == {
        f"driver.rung.{rung}" for rung, _, _ in _answer(on)["rungs"]
    }
    assert all(r["parent"] == channels.ctx.span_id for r in spans)
    # the flight recorder keeps each match's node and client delta, and
    # its journal stays resolvable through the spill file
    prov = channels.prov
    journal = [prov.get(event_id) for event_id in range(1, prov.total_events + 1)]
    assert journal and None not in journal
    matches = [event for event in journal if event.kind == "match"]
    if on.rungs[0].result.matches:
        assert matches and all(event.node_key is not None for event in matches)
        assert any(event.data for event in matches)
    for rung in on.rungs:
        for diag in rung.result.diagnostics:
            if diag.provenance_id is not None:
                assert prov.get(diag.provenance_id) is not None


def _raising_rung(program, limits):
    raise RuntimeError("rung runner bug")


def test_a_raising_rung_raises_the_same_with_telemetry_on(tmp_path, capsys):
    """An exception is an answer too: no span may swallow it."""
    ladder = [Rung("cartesian", _raising_rung, default_ladder()[0].limits)]
    program = programs.get("pingpong").parse()
    with pytest.raises(RuntimeError, match="rung runner bug"):
        analyze_with_fallback(program, ladder=ladder)
    with pytest.raises(RuntimeError, match="rung runner bug"):
        _AllChannels(tmp_path).run(program, ladder=ladder)


class _FaultyDescriber(CartesianClient):
    def describe_transfer(self, old, new):
        raise ValueError("describe bug")


def _hook_raises(tmp_path, program):
    def bomb(event):
        raise RuntimeError("subscriber bug")

    with obs.recording() as recorder:
        report = analyze_with_fallback(program, progress=bomb)
    assert recorder.counters["telemetry.subscriber_errors"] >= 1
    return report, None


def _sink_goes_away(tmp_path, program):
    sink = tmp_path / "traces"
    trace.configure_sink(sink, "test")

    def sabotage(event):
        # replace the shard directory with a file: every later append fails
        if sink.is_dir():
            shutil.rmtree(sink)
            sink.write_text("not a directory")

    try:
        with obs.recording() as recorder, obs.bind(
            trace=trace.mint(), progress=sabotage
        ):
            report = analyze_with_fallback(program)
    finally:
        trace.configure_sink(None)
    assert recorder.counters.get("trace.write_errors", 0) >= 1
    return report, None


def _describe_raises(tmp_path, program):
    with provenance.recording() as prov:
        result, _, _ = analyze_cartesian(program, client=_FaultyDescriber())
    marked = [e for e in prov.events() if e.data and "provenance_hook_error" in e.data]
    assert marked, "the failing describe_transfer was never consulted"
    return None, result


@pytest.mark.parametrize(
    "subscriber", [_hook_raises, _sink_goes_away, _describe_raises],
    ids=["progress-hook", "trace-sink", "describe-transfer"],
)
@pytest.mark.parametrize("name", ["pingpong", "exchange_with_root", "ring_modular"])
def test_a_failing_subscriber_is_isolated(subscriber, name, tmp_path):
    program = programs.get(name).parse()
    report, result = subscriber(tmp_path, program)
    if report is not None:
        assert _answer(report) == _answer(analyze_with_fallback(program))
    else:
        clean, _, _ = analyze_cartesian(program)
        assert sorted(result.matches) == sorted(clean.matches)
        assert result.topology.describe() == clean.topology.describe()
        assert result.confidence == clean.confidence
        assert [d.code for d in result.diagnostics] == [
            d.code for d in clean.diagnostics
        ]


class TestEmit:
    def test_one_call_reaches_every_channel_its_row_names(self, capsys):
        slog.configure("info")
        with obs.recording() as recorder, provenance.recording() as prov:
            root = obs.emit("run_start", parents=())
            event_id = obs.emit(
                "budget_trip", detail="BUDGET_STEPS: limit", step=7,
                code="BUDGET_STEPS",
            )
        slog.configure(None)
        assert recorder.counters == {"engine.budget.steps": 1}
        event = prov.get(event_id)
        assert (event.kind, event.parents, event.step) == ("budget_trip", (root,), 7)
        (line,) = capsys.readouterr().err.splitlines()  # run_start is debug
        record = json.loads(line)
        assert (record["event"], record["id"], record["code"]) == (
            "engine.budget", event_id, "BUDGET_STEPS"
        )

    def test_progress_events_carry_their_fields(self):
        events = []
        with obs.bind(progress=events.append):
            assert obs.emit("rung_start", rung="cartesian") is None
        assert events == [{"event": "rung", "rung": "cartesian"}]

    def test_disabled_channels_cost_nothing_visible(self, capsys):
        assert obs.emit("rung_end", name="x", confidence="exact") is None
        assert capsys.readouterr().err == ""

    def test_unknown_kind_is_a_bug(self):
        with pytest.raises(KeyError):
            obs.emit("no_such_event")

    def test_every_counter_template_resolves(self):
        fields = {"name": "r", "confidence": "exact", "code": "X_Y"}
        for kind, event in obs.EVENTS.items():
            counter = event.counter
            if counter is not None:
                name = counter(fields) if callable(counter) else counter.format(**fields)
                assert "{" not in name, kind


class TestWire:
    def test_roundtrip_through_a_plain_dict(self, tmp_path):
        obs.enable()
        trace.configure_sink(tmp_path, "test")
        ctx = trace.mint()
        with obs.bind(trace=ctx, progress=lambda event: None):
            wired = obs.wire()
        assert json.loads(json.dumps(wired)) == wired
        assert wired == {
            "record": True, "trace": ctx.to_dict(), "sink": str(tmp_path),
            "progress": True,
        }
        obs.reset()
        events = []
        with obs.adopt(wired, progress=events.append) as recorder:
            assert obs.active_recorder() is recorder
            assert trace.current() == ctx
            obs.incr("x")
            obs.notify({"event": "progress"})
        assert recorder.counters == {"x": 1}
        assert events == [{"event": "progress"}]
        assert trace.current() is None

    def test_nothing_wired_adopts_nothing(self):
        with obs.adopt(obs.wire(), progress=print) as recorder:
            assert recorder is None
            assert obs.context.progress is None
            assert trace.current() is None
