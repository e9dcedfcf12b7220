"""The optimized lattice is observably identical to the pre-overhaul one.

Every corpus program is analyzed twice: once with the full PR-2 machinery
(COW graphs, closure/equivalence memos, priority worklist, interned states)
and once with every optimization disabled (``naive_copy`` client, interning
off).  The observable analysis outcome — convergence, the match relation,
and the blocked/vacuous diagnostics — must be identical.
"""

import pytest

from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core.engine import PCFGEngine
from repro.lang import build_cfg, programs

CORPUS = [
    "pingpong",
    "broadcast_fanout",
    "gather_to_root",
    "scatter_from_root",
    "exchange_with_root",
    "shift_right",
    "pipeline_stages",
    "ring_shift_nowrap",
    "master_worker",
    "mdcask_full",
    "neighbor_exchange_1d",
    "sequential_only",
]


def _observe(name: str, optimized: bool):
    cfg = build_cfg(programs.get(name).parse())
    client = SimpleSymbolicClient(naive_copy=not optimized)
    result = PCFGEngine(cfg, client, intern_states=optimized).run()
    return {
        "gave_up": result.gave_up,
        "matches": frozenset(result.matches),
        "vacuous_blocks": tuple(result.vacuous_blocks),
        "final_states": len(result.final_states),
    }


@pytest.mark.parametrize("name", CORPUS)
def test_optimized_lattice_matches_naive(name):
    assert _observe(name, optimized=True) == _observe(name, optimized=False)

