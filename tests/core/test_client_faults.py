"""The engine survives a hostile client: the fault plane's client points.

``client.callback.raise`` makes a client callback raise;
``client.callback.corrupt`` replaces a state a callback returns with a
:class:`~repro.faults.plane.CorruptedState` that explodes on first use,
so the damage surfaces later, inside a different callback.  Both bite in
``StepCore._call``, the guard every client callback goes through.

Every schedule here derives from ``(program, seed)`` via
:func:`client_schedule`, and every assertion message carries the
schedule's label ``<program>:<seed>``: rebuild it with
``client_schedule(seed, program)`` to replay a failure.  Each schedule's
first fault lands on an arrival the clean run reaches, so at least one
fault always fires — a guard that stopped consulting the plane fails
these tests instead of passing them vacuously.

Soundness under faults: an injected fault can only *remove* behavior from
the exploration (a node falls to ``T`` instead of producing successors),
never add it, so for a program whose clean run is ``exact`` the degraded
match relation must be a subset of the clean one.  (For programs whose
clean run already degrades, the subset property is NOT a theorem —
pruning a join input can leave a *narrower* state downstream that proves
a match the clean run's wider state cannot — so those only get the
termination/no-crash guarantee.)
"""

from __future__ import annotations

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core import diagnostics
from repro.core.diagnostics import CLIENT_FAULT
from repro.core.engine import EngineLimits, PCFGEngine
from repro.faults import plane
from repro.faults.plane import FaultSchedule, PlannedFault
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import provenance

#: base seed, shared with ``repro faults``
SEED = 1337

RAISE = "client.callback.raise"
CORRUPT = "client.callback.corrupt"
CLIENT_POINTS = (RAISE, CORRUPT)

#: full corpus: every program must survive client faults without an exception
CORPUS = [spec.name for spec in programs.all_specs()]

#: programs whose clean simple-symbolic run is exact (subset property holds)
CLEAN_EXACT = [
    "broadcast_fanout",
    "exchange_with_root",
    "gather_to_root",
    "master_worker",
    "mdcask_full",
    "message_leak",
    "pingpong",
    "pipeline_stages",
    "ring_shift_nowrap",
    "scatter_from_root",
    "sequential_only",
    "shift_right",
    "type_mismatch",
]

_CLEAN_CACHE = {}


def _run(name, schedule, strict=False):
    cfg = build_cfg(programs.get(name).parse())
    limits = EngineLimits(max_steps=2_000, strict=strict)
    with plane.engaged(schedule) as live:
        result = PCFGEngine(cfg, SimpleSymbolicClient(), limits).run()
    return result, live


def clean_run(name):
    """The unfaulted result plus its arrivals at each client point."""
    if name not in _CLEAN_CACHE:
        result, live = _run(name, FaultSchedule([], label="clean"))
        coverage = live.coverage()
        arrivals = {point: coverage[point]["hits"] for point in CLIENT_POINTS}
        _CLEAN_CACHE[name] = (result, arrivals)
    return _CLEAN_CACHE[name]


def client_schedule(seed, name, points=CLIENT_POINTS, max_faults=3):
    """The seeded schedule of ``(program, seed)``: 1 to ``max_faults``
    faults on ``points``, each at an arrival the clean run reaches."""
    _, arrivals = clean_run(name)
    rng = Random(f"client-faults:{name}:{seed}")
    plans = []
    for _ in range(1 + rng.randrange(max_faults)):
        point = rng.choice(points)
        plans.append(
            PlannedFault(point, hit=1 + rng.randrange(arrivals[point]),
                         count=1 + rng.randrange(2))
        )
    return FaultSchedule(plans, label=f"{name}:{seed}")


def faulted_run(name, seed, points=CLIENT_POINTS, strict=False, max_faults=3):
    schedule = client_schedule(seed, name, points, max_faults)
    result, live = _run(name, schedule, strict=strict)
    fired = live.fired_points()
    assert fired, f"schedule {schedule.label}: no client fault fired"
    return result, schedule, fired


def test_client_faults_never_crash_the_engine():
    """No (program, seed) combination makes run() raise — ever."""
    crashes = []
    for name in CORPUS:
        for offset in range(8):
            schedule = client_schedule(SEED + offset, name)
            try:
                result, live = _run(name, schedule)
            except BaseException as exc:  # noqa: BLE001 - the point of the test
                crashes.append((schedule.label, repr(exc)))
                continue
            assert live.fired_points(), f"schedule {schedule.label}: nothing fired"
            assert result.confidence in (
                diagnostics.EXACT,
                diagnostics.PARTIAL,
                diagnostics.GAVE_UP,
            ), f"schedule {schedule.label}: bad confidence"
            # at least one injected fault: the result must admit it
            assert result.diagnostics, (
                f"schedule {schedule.label}: faults injected but the result "
                f"claims no diagnostics"
            )
    assert not crashes, f"engine crashed: {crashes}"


def test_raised_faults_become_client_fault_naming_the_callback():
    """A raise at one callback surfaces as CLIENT_FAULT naming exactly
    the callback the injected exception came out of."""
    seen_callbacks = set()
    for offset in range(16):
        result, schedule, _ = faulted_run(
            "exchange_with_root", SEED + offset, points=(RAISE,), max_faults=1
        )
        faults = [d for d in result.diagnostics if d.code == CLIENT_FAULT]
        assert faults, f"schedule {schedule.label}: no CLIENT_FAULT diagnostic"
        callback = faults[0].callback
        assert callback, f"schedule {schedule.label}: CLIENT_FAULT names no callback"
        assert faults[0].message == (
            f"client callback {callback!r} raised InjectedFault: "
            f"injected fault in {callback!r}"
        ), f"schedule {schedule.label}: misattributed {faults[0].message!r}"
        seen_callbacks.add(callback)
    # the sweep must reach more than one callback through the guard
    assert len(seen_callbacks) > 1, seen_callbacks


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(CLEAN_EXACT),
)
def test_faulted_matches_are_a_subset_of_clean(seed, name):
    """Soundness under faults: degraded matches never exceed the clean set."""
    clean, _ = clean_run(name)
    assert clean.confidence == diagnostics.EXACT, (
        f"{name} is no longer clean-exact; update CLEAN_EXACT"
    )
    result, schedule, fired = faulted_run(name, seed)
    assert set(result.matches) <= set(clean.matches), (
        f"schedule {schedule.label}: degraded run invented matches "
        f"{set(result.matches) - set(clean.matches)} (fired: {fired})"
    )


def test_fault_in_initial_gives_up_cleanly():
    """A fault on the very first callback yields gave_up, not a traceback."""
    result, _ = _run("pingpong", FaultSchedule([PlannedFault(RAISE, hit=1)]))
    assert result.confidence == diagnostics.GAVE_UP
    assert result.gave_up
    assert [(d.code, d.callback) for d in result.diagnostics] == [
        (CLIENT_FAULT, "initial")
    ]


def test_strict_mode_aborts_on_the_first_fault():
    """strict=True turns the first injected fault into a global abort."""
    for offset in range(8):
        result, schedule, _ = faulted_run(
            "exchange_with_root", SEED + offset, strict=True
        )
        assert result.confidence == diagnostics.GAVE_UP, (
            f"schedule {schedule.label}: strict run degraded instead of aborting"
        )
        # abort-on-first: exactly one diagnostic, nothing localized
        assert len(result.diagnostics) == 1, schedule.label
        assert not result.top_nodes, schedule.label


def test_faulted_diagnostics_carry_resolvable_provenance():
    """Under provenance, every diagnostic of a faulted run names its
    originating event, whose causal chain reaches the run's start."""
    degradation_kinds = {
        "giveup", "client_fault", "cfg_malformed", "budget_trip",
        "checkpoint_rejected",
    }
    checked = 0
    for name in ("exchange_with_root", "pingpong", "ring_modular"):
        for offset in range(8):
            with provenance.recording() as prov:
                result, schedule, _ = faulted_run(name, SEED + offset)
            for diag in result.diagnostics:
                where = f"schedule {schedule.label}: {diag.code}"
                assert diag.provenance_id is not None, f"{where} has no provenance_id"
                event = prov.get(diag.provenance_id)
                assert event is not None, f"{where}: provenance_id does not resolve"
                assert event.kind in degradation_kinds, (
                    f"{where} links to a {event.kind!r} event"
                )
                chain = prov.chain(event.event_id)
                assert chain[0].kind == "run_start", (
                    f"{where}: causal chain does not reach run_start"
                )
                checked += 1
    assert checked, "no diagnostics produced across the provenance sweep"


def test_corrupted_state_is_contained():
    """A corrupted state surfaces later, in whichever callback touches
    it, and still lands in the diagnostics."""
    surfaced = set()
    for offset in range(16):
        result, schedule, _ = faulted_run(
            "exchange_with_root", SEED + offset, points=(CORRUPT,)
        )
        assert result.diagnostics, (
            f"schedule {schedule.label}: corruption injected but no diagnostics"
        )
        surfaced.update(
            d.callback for d in result.diagnostics
            if d.code == CLIENT_FAULT and "corrupted state" in d.message
        )
    assert surfaced, "no corrupted state was ever touched"
