"""Serve-test scaffolding: a gate that wedges analyses on demand."""

from __future__ import annotations

import threading

import pytest

from repro.serve import daemon

#: longest a gated analysis waits, so a failing test never wedges a worker
#: thread past its own teardown
GATE_BOUND_SEC = 30.0


class AnalysisGate:
    """Holds every analysis the service starts until :meth:`open`.

    ``entered`` is set once a worker reaches the analysis, which is how a
    test knows the job left the queue and the worker is busy.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.opened = threading.Event()

    def open(self) -> None:
        self.opened.set()


@pytest.fixture
def gate(monkeypatch):
    """Wrap the service's ``analyze_with_fallback`` in an :class:`AnalysisGate`."""
    held = AnalysisGate()
    inner = daemon.analyze_with_fallback

    def gated(*args, **kwargs):
        held.entered.set()
        held.opened.wait(GATE_BOUND_SEC)
        return inner(*args, **kwargs)

    monkeypatch.setattr(daemon, "analyze_with_fallback", gated)
    yield held
    held.open()
