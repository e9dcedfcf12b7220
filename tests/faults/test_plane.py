"""The fault plane itself: determinism, replay, coverage, zero cost."""

from __future__ import annotations

import pytest

from repro.faults import plane
from repro.faults.plane import (
    CATALOG,
    CATALOG_VERSION,
    CorruptedState,
    FaultPlane,
    FaultSchedule,
    InjectedFault,
    PlannedFault,
    corrupt_bytes,
    parse_label,
)


def test_catalog_names_are_scoped():
    # every point is "<subsystem>.<operation>[.<mode>]"; the write-fault
    # family keys off "<scope>.write.<mode>" in atomic_write_text
    for name in CATALOG:
        assert 2 <= len(name.split(".")) <= 3, name


def test_check_is_none_when_disabled():
    plane.reset()
    assert plane.active() is None
    assert plane.check("ckpt.write.enospc") is None


def test_install_uninstall_roundtrip():
    schedule = FaultSchedule(plans=(PlannedFault("ckpt.write.enospc"),), label="t")
    plane.install(schedule)
    try:
        assert plane.active() is not None
        assert plane.check("ckpt.write.enospc") is not None
    finally:
        plane.uninstall()
    assert plane.active() is None


def test_planned_fault_window():
    fault = PlannedFault("cache.read.corrupt", hit=2, count=2)
    assert not fault.covers(1)
    assert fault.covers(2)
    assert fault.covers(3)
    assert not fault.covers(4)


def test_schedule_for_case_is_deterministic():
    a = FaultSchedule.for_case(1337, 5)
    b = FaultSchedule.for_case(1337, 5)
    assert a.label == b.label == "v3:1337:5"
    assert CATALOG_VERSION == 3
    assert [(p.point, p.hit, p.count, p.arg) for p in a.plans] == [
        (p.point, p.hit, p.count, p.arg) for p in b.plans
    ]


def test_schedule_rotation_covers_catalog():
    focuses = {FaultSchedule.for_case(7, i).focus for i in range(len(CATALOG))}
    assert focuses == set(CATALOG)


def test_parse_label_reads_base_and_case():
    assert parse_label(f"v{CATALOG_VERSION}:42:3") == (CATALOG_VERSION, 42, 3)
    assert parse_label(f"v{CATALOG_VERSION}:42") == (CATALOG_VERSION, 42, 0)
    # every label a schedule prints parses back to its own case
    label = FaultSchedule.for_case(42, 3).label
    assert parse_label(label) == (CATALOG_VERSION, 42, 3)


def test_parse_label_reports_other_versions():
    # unversioned labels predate the version field: catalog v1
    assert parse_label("42:3") == (1, 42, 3)
    assert parse_label("42") == (1, 42, 0)
    assert parse_label("v7:42:3") == (7, 42, 3)


@pytest.mark.parametrize(
    "bad", ["", "x", "1:2:3", "1:x", "v", "v:1:2", "vx:1:2", "v2:1:2:3", "v2:"]
)
def test_parse_label_never_raises(bad):
    assert parse_label(bad) is None


def test_plane_counts_arrivals_and_firings():
    schedule = FaultSchedule(
        plans=(PlannedFault("daemon.worker.kill", hit=2),), label="t"
    )
    fault_plane = FaultPlane(schedule)
    assert fault_plane.check("daemon.worker.kill") is None  # arrival 1
    assert fault_plane.check("daemon.worker.kill") is not None  # arrival 2
    assert fault_plane.check("daemon.worker.kill") is None  # arrival 3
    coverage = fault_plane.coverage()
    assert coverage["daemon.worker.kill"] == {"hits": 3, "fired": 1}
    # zero-filled over the whole catalog, so "never exercised" is visible
    assert set(coverage) == set(CATALOG)
    assert fault_plane.fired_points() == ["daemon.worker.kill"]


def test_unknown_point_counts_but_never_fires():
    fault_plane = FaultPlane(FaultSchedule(plans=(), label="t"))
    assert fault_plane.check("nonexistent.fault.point") is None


def test_corrupted_state_explodes_on_first_use():
    state = CorruptedState("join")
    with pytest.raises(InjectedFault, match="injected at 'join'"):
        state.constraints


def test_corrupt_bytes_always_differs():
    raw = b'{"answer": 42, "padding": "xxxxxxxxxxxxxxxx"}'
    for arg in (0.0, 0.3, 0.5, 0.61, 0.99):
        assert corrupt_bytes(raw, arg) != raw
    assert corrupt_bytes(b"", 0.5) != b""
