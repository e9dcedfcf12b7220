"""Cross-layer fault plane: seeded injection + soundness-under-fault checks.

:mod:`repro.faults.plane` is the switchboard instrumented code consults;
:mod:`repro.faults.invariants` is the harness that drives the pipeline
under seeded schedules and machine-checks the robustness invariants.
Import the plane symbols from here; the harness is imported explicitly
(it pulls in the serve stack, which the plane must stay independent of).
"""

from repro.faults.plane import (  # noqa: F401
    CATALOG,
    CATALOG_VERSION,
    FaultPlane,
    FaultSchedule,
    PlannedFault,
    active,
    check,
    corrupt_bytes,
    engaged,
    install,
    parse_label,
    replay_hint,
    reset,
    uninstall,
)
