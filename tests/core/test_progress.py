"""The progress hook of the telemetry context and the engine heartbeats."""

from __future__ import annotations

import threading

from repro import obs
from repro.core.driver import analyze_with_fallback
from repro.lang import programs


class TestSwitchboard:
    def test_default_is_none(self):
        assert obs.context.progress is None

    def test_installed_is_scoped(self):
        events = []
        with obs.bind(progress=events.append):
            assert obs.context.progress is not None
            obs.notify({"event": "x"})
        assert obs.context.progress is None
        assert events == [{"event": "x"}]

    def test_installed_none_is_noop(self):
        with obs.bind(progress=None):
            assert obs.context.progress is None

    def test_hooks_are_thread_local(self):
        seen = {}

        def other_thread():
            seen["other"] = obs.context.progress

        with obs.bind(progress=lambda e: None):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["other"] is None


class TestDriverEvents:
    def test_fallback_ladder_announces_rungs_and_heartbeats(self):
        events = []
        report = analyze_with_fallback(
            programs.get("pingpong").parse(), progress=events.append
        )
        assert report.result is not None
        rungs = [e["rung"] for e in events if e["event"] == "rung"]
        assert rungs and rungs[0] == "cartesian"
        beats = [e for e in events if e["event"] == "progress"]
        assert beats, "engine heartbeats missing"
        assert beats[0]["phase"] == "engine"
        assert beats[0]["steps"] == 1
        assert "worklist" in beats[0]
