"""Cross-layer fault plane: seeded injection + soundness-under-fault checks.

:mod:`repro.faults.plane` is the switchboard instrumented code consults;
:mod:`repro.faults.invariants` is the harness that drives the pipeline
under seeded schedules and machine-checks the robustness invariants.
Import each module explicitly: the harness pulls in the serve stack,
which the plane must stay independent of.
"""
