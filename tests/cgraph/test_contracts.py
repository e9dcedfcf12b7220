"""Representation contracts of :class:`ConstraintGraph`.

* Checkpoints: ``to_state`` keeps the edge-list format earlier releases
  wrote, so snapshots taken by them still resume.
* Fingerprints: a variable that is tracked but unconstrained is invisible.
* Ablations: lattice results keep both ablation switches, so the Section IX
  naive run never reads or fills the shared closure memo.
"""

from repro import programs
from repro.cgraph import constraint_graph
from repro.cgraph.constraint_graph import ZERO, ConstraintGraph
from repro.obs import profile_program

#: ``to_state`` of :func:`_fixed_graph`, in the checkpoint format
FIXED_STATE = {
    "vars": ["unused", "x", "y"],
    "edges": [("__0__", "x", 2), ("x", "__0__", -2), ("x", "y", 3)],
    "closed": False,
    "infeasible": False,
    "naive_closure": False,
    "naive_copy": False,
}


def _fixed_graph() -> ConstraintGraph:
    g = ConstraintGraph()
    g.set_const("x", 2)
    g.add_diff("x", "y", 3)
    g.add_var("unused")
    return g


class TestCheckpointFormat:
    def test_to_state_matches_the_checkpoint_literal(self):
        assert _fixed_graph().to_state() == FIXED_STATE

    def test_from_state_round_trips(self):
        g = ConstraintGraph.from_state(FIXED_STATE)
        assert g.to_state() == FIXED_STATE
        assert g.fingerprint() == _fixed_graph().fingerprint()
        assert g.diff_bound(ZERO, "y") == 5
        assert g.has_var("unused")

    def test_closed_state_lists_implied_edges(self):
        g = _fixed_graph()
        g.close()
        assert g.to_state()["edges"] == [
            ("__0__", "x", 2), ("__0__", "y", 5), ("x", "__0__", -2), ("x", "y", 3),
        ]


class TestFingerprint:
    def test_unconstrained_variable_is_invisible(self):
        g, h = ConstraintGraph(), ConstraintGraph()
        for graph in (g, h):
            graph.add_diff("x", "y", 1)
        h.add_var("unused")
        h.add_var("a")  # sorts before every constrained name
        assert g.fingerprint() == h.fingerprint()

    def test_insertion_order_is_invisible(self):
        g, h = ConstraintGraph(), ConstraintGraph()
        g.add_diff("x", "y", 1)
        g.add_upper("y", 4)
        h.add_upper("y", 4)
        h.add_diff("x", "y", 1)
        assert g.fingerprint() == h.fingerprint()

    def test_full_closure_memo_key_sees_unconstrained_variables(self):
        g, h = ConstraintGraph(), ConstraintGraph()
        for graph in (g, h):
            graph.add_diff("x", "y", 1)
        h.add_var("unused")
        assert g._rep_fingerprint() != h._rep_fingerprint()


class TestAblationFlags:
    def test_lattice_results_keep_both_flags(self):
        for flags in ((True, False), (False, True), (True, True)):
            a = ConstraintGraph(naive_closure=flags[0], naive_copy=flags[1])
            b = ConstraintGraph(naive_closure=flags[0], naive_copy=flags[1])
            a.add_diff("x", "y", 1)
            b.add_diff("x", "y", 2)
            b.add_var("z")
            for result in (a.join(b), a.widen(b), a.meet(b)):
                assert (result.naive_closure, result.naive_copy) == flags

    def test_naive_profile_bypasses_the_shared_memos(self):
        closures = len(constraint_graph._CLOSURE_CACHE)
        registry = len(constraint_graph._EQUIV_REGISTRY)
        profile_program(programs.get("broadcast_fanout"), naive=True)
        assert len(constraint_graph._CLOSURE_CACHE) == closures
        assert len(constraint_graph._EQUIV_REGISTRY) == registry
