"""Deterministic, seeded cross-layer fault plane.

This module is the one fault injector of the repository: every layer
from the engine's client-callback guard to the HTTP response path
registers its injection points here, so one seeded schedule can
misbehave anywhere in the pipeline and the invariant harness
(:mod:`repro.faults.invariants`) can check the end-to-end answer stays
sound.

Design, mirroring :mod:`repro.obs.provenance`:

* **Named injection points** (:data:`CATALOG`) live at trust boundaries:
  disk writes in the checkpointer/cache/journal, cache reads, the
  daemon's attempt worker, queue and clock, the HTTP response path, the
  ``/metrics`` render and the engine's client-callback guard.
  Instrumented code calls
  :func:`check(point) <check>`; the call answers ``None`` ("behave") or
  a :class:`PlannedFault` ("misbehave now, like this").
* **Zero cost when disabled**: the process-global plane is ``None`` by
  default and :func:`check` is a single attribute test — production
  code pays one ``is None`` branch per boundary crossing.
* **Deterministic schedules**: a :class:`FaultSchedule` derives entirely
  from ``(base_seed, case_index)``.  Case *k* of a sweep always forces
  catalog point ``k mod len(CATALOG)`` to fire on its first arrival
  (so a full rotation exercises every point) plus a seeded handful of
  extra faults.  A schedule's label ``v<catalog>:<base>:<case>`` names
  it exactly; ``repro faults --replay <label>`` re-runs that one case
  (:func:`parse_label`), and refuses a label printed against another
  catalog version, whose case-to-point mapping differs.
* **Coverage accounting**: the plane counts arrivals (``hits``) and
  injections (``fired``) per point; :meth:`FaultPlane.coverage` is what
  the harness folds into its never-exercised report.

Faults that simulate a crash *mid-write* (torn/fsync-then-crash) must
not actually kill the calling process — they manifest as an ``OSError``
after partial bytes hit the temp file, with the rename skipped, so the
target keeps its old content exactly as a real crash would leave it.
Real SIGKILLs are reserved for disposable worker processes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

#: version of :data:`CATALOG`'s shape, carried in every schedule label.
#: Bump it whenever an entry is added, removed or moved: case ``k`` forces
#: point ``k mod len(CATALOG)``, so a label only names the same schedule
#: under the catalog it was printed against.  Unversioned labels predate
#: versioning and count as version 1.
CATALOG_VERSION = 3

#: every registered injection point, name -> where it bites.  Ordered:
#: case ``k`` of a sweep forces point ``k mod len(CATALOG)``, so the
#: ordering is part of the replay contract — any change bumps
#: :data:`CATALOG_VERSION`.
CATALOG: "Dict[str, str]" = {
    "ckpt.write.enospc": "checkpoint atomic write fails with ENOSPC mid-write",
    "ckpt.write.eio": "checkpoint atomic write fails with EIO at fsync",
    "ckpt.write.torn": "checkpoint write crashes mid-write (partial temp file)",
    "ckpt.write.crash": "checkpoint write crashes after fsync, before rename",
    "cache.write.enospc": "result-cache entry write fails with ENOSPC",
    "cache.read.corrupt": "result-cache entry read returns bit-flipped bytes",
    "journal.append.enospc": "journal append fails with ENOSPC before writing",
    "journal.append.torn": "journal append crashes mid-line (torn tail)",
    "daemon.worker.kill": "the daemon's attempt worker dies mid-attempt",
    "daemon.clock.pressure": "the attempt deadline collapses to near zero",
    "daemon.queue.overflow": "the admission queue reports full",
    "http.client.disconnect": "the HTTP client hangs up before the response",
    "metrics.render.fail": "the /metrics registry render raises mid-scrape",
    "client.callback.raise": "a client analysis callback raises",
    "client.callback.corrupt": "a client callback returns a corrupted state",
}


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled misbehavior: fire at the ``hit``-th arrival (1-based)
    at ``point``, for ``count`` consecutive arrivals.  ``arg`` is a
    point-specific knob (e.g. the fraction of bytes a torn write lands)."""

    point: str
    hit: int = 1
    count: int = 1
    arg: float = 0.5

    def covers(self, arrival: int) -> bool:
        return self.hit <= arrival < self.hit + self.count


class FaultSchedule:
    """A deterministic set of planned faults, replayable from its label."""

    def __init__(self, plans: List[PlannedFault], label: str = "", focus: str = ""):
        self.plans = list(plans)
        self.label = label
        self.focus = focus
        self.points = sorted({plan.point for plan in self.plans})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.label!r}, focus={self.focus!r}, plans={self.plans!r})"

    @classmethod
    def for_case(cls, base_seed: int, case_index: int) -> "FaultSchedule":
        """The schedule of sweep case ``case_index`` under ``base_seed``.

        The *focus* fault — catalog point ``case_index mod len(CATALOG)``,
        firing on its first arrival — guarantees a full sweep rotation
        exercises every registered point.  A seeded 0-2 extra faults land
        on other points at later arrivals, so cases also probe fault
        *combinations*, not just singletons.
        """
        names = list(CATALOG)
        rng = Random(f"repro-faults:{base_seed}:{case_index}")
        focus = names[case_index % len(names)]
        plans = [
            PlannedFault(
                point=focus,
                hit=1,
                count=1 + rng.randrange(2),
                arg=0.1 + 0.8 * rng.random(),
            )
        ]
        for _ in range(rng.randrange(3)):
            extra = rng.choice(names)
            plans.append(
                PlannedFault(
                    point=extra,
                    hit=1 + rng.randrange(3),
                    count=1,
                    arg=0.1 + 0.8 * rng.random(),
                )
            )
        label = f"v{CATALOG_VERSION}:{base_seed}:{case_index}"
        return cls(plans, label=label, focus=focus)


def parse_label(text: str) -> Optional[Tuple[int, int, int]]:
    """Split a schedule label into ``(catalog_version, base_seed, case)``.

    Accepts ``v<version>:<base>[:<case>]`` and the unversioned
    ``<base>[:<case>]`` (version 1); a missing case means case 0.  None
    for anything else — never raises, so a garbled label costs its
    caller one ``is None`` test.
    """
    parts = str(text).strip().split(":")
    version = 1
    if parts[0].startswith("v"):
        version_text = parts.pop(0)[1:]
        if not version_text.isdigit():
            return None
        version = int(version_text)
    if not 1 <= len(parts) <= 2:
        return None
    try:
        base = int(parts[0])
        case = int(parts[1]) if len(parts) == 2 else 0
    except ValueError:
        return None
    return version, base, case


def replay_hint(label: str) -> str:
    """The command that re-runs the case a schedule label names."""
    return f"repro faults --replay {label}"


class FaultPlane:
    """The live switchboard: arrival counting + planned-fault matching.

    Thread-safe — daemon worker threads, HTTP request threads, and the
    parent side of process pools all consult the same plane.  A forked
    worker inherits the module global, so each worker entry point
    uninstalls it first (a child's arrivals would never reach the
    parent's coverage); process-crossing faults are decided in the
    parent and shipped with the task.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._lock = threading.Lock()
        self._arrivals: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def check(self, point: str) -> Optional[PlannedFault]:
        """Count one arrival at ``point``; return the planned fault if
        this arrival is scheduled to misbehave, else None."""
        with self._lock:
            arrival = self._arrivals.get(point, 0) + 1
            self._arrivals[point] = arrival
            for plan in self.schedule.plans:
                if plan.point == point and plan.covers(arrival):
                    self._fired[point] = self._fired.get(point, 0) + 1
                    return plan
        return None

    def coverage(self) -> Dict[str, Dict[str, int]]:
        """Per-catalog-point arrival/injection counts (zero-filled)."""
        with self._lock:
            return {
                point: {
                    "hits": self._arrivals.get(point, 0),
                    "fired": self._fired.get(point, 0),
                }
                for point in CATALOG
            }

    def fired_points(self) -> List[str]:
        with self._lock:
            return sorted(point for point, n in self._fired.items() if n)


# -- the process-global switchboard -------------------------------------------

_active: Optional[FaultPlane] = None


def active() -> Optional[FaultPlane]:
    return _active


def install(schedule: FaultSchedule) -> FaultPlane:
    """Engage a schedule process-globally; returns the live plane."""
    global _active
    plane = FaultPlane(schedule)
    _active = plane
    return plane


def uninstall() -> None:
    global _active
    _active = None


def reset() -> None:
    """Test isolation hook (see :func:`repro.testing.reset_state`)."""
    uninstall()


@contextmanager
def engaged(schedule: FaultSchedule) -> Iterator[FaultPlane]:
    """Scoped installation: the plane is live inside the ``with`` body."""
    plane = install(schedule)
    try:
        yield plane
    finally:
        uninstall()


def check(point: str) -> Optional[PlannedFault]:
    """The one call instrumented code makes.  Disabled: a single ``is
    None`` test.  Enabled: count the arrival, maybe return a fault."""
    plane = _active
    if plane is None:
        return None
    return plane.check(point)


def corrupt_bytes(raw: bytes, arg: float) -> bytes:
    """Deterministically damage a byte payload for read-corruption faults:
    flip one bit at a position derived from ``arg`` (or truncate when the
    payload is long enough that truncation is the nastier damage)."""
    if not raw:
        return b"\xff"
    index = int(arg * (len(raw) - 1))
    if arg > 0.6 and len(raw) > 8:
        return raw[: max(1, index)]  # truncated tail
    flipped = raw[index] ^ 0x20
    return raw[:index] + bytes([flipped]) + raw[index + 1:]


class InjectedFault(RuntimeError):
    """The exception an injected client-callback fault raises."""


class CorruptedState:
    """What ``client.callback.corrupt`` returns in place of a client state.

    Raises :class:`InjectedFault` on any attribute access, so the damage
    surfaces later, inside whichever callback next touches the state —
    far from the fault site, the way a buggy client's garbage does.
    """

    def __init__(self, origin: str):
        self._origin = origin

    def __getattr__(self, name):
        raise InjectedFault(
            f"corrupted state (injected at {self._origin!r}) accessed via .{name}"
        )


__all__ = [
    "CATALOG",
    "CATALOG_VERSION",
    "PlannedFault",
    "FaultSchedule",
    "FaultPlane",
    "active",
    "install",
    "uninstall",
    "reset",
    "engaged",
    "check",
    "corrupt_bytes",
    "InjectedFault",
    "CorruptedState",
    "parse_label",
    "replay_hint",
]
