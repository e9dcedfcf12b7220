"""Differential test: the array-backed graph against a dict-of-dicts DBM.

The ``naive_copy`` oracle of ``test_cow.py`` shares the representation it
checks, so it cannot catch an indexing, growth, relabelling or slicing bug
in the matrix itself.  Here random operation sequences drive two
:class:`ConstraintGraph` slots and two :class:`RefDBM` slots in lockstep,
and every ``diff_bound``, ``infeasible``, ``equivalents`` and
fingerprint-equality verdict must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.cgraph.constraint_graph import ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr
from tests.cgraph.reference_dbm import RefDBM

VARS = ["a", "b", "ps0::x", "ps0::y", "ps1::x", "ps1::y"]
_var = st.sampled_from(VARS)
_slot = st.integers(0, 1)
_const = st.integers(-4, 4)

_expr = st.one_of(
    st.none(),
    _const.map(LinearExpr.const),
    st.tuples(_var, _const).map(lambda vc: LinearExpr.var(vc[0]) + vc[1]),
    _var.map(lambda v: LinearExpr.var(v, 2)),
)

_op = st.one_of(
    st.tuples(st.just("add_diff"), _slot, st.sampled_from(VARS + [ZERO]),
              st.sampled_from(VARS + [ZERO]), _const),
    st.tuples(st.just("assign"), _slot, _var, _expr),
    st.tuples(st.just("increment"), _slot, _var, _const),
    st.tuples(st.just("havoc"), _slot, _var),
    st.tuples(st.just("remove_vars"), _slot, st.lists(_var, max_size=3)),
    st.tuples(st.just("rename"), _slot, st.permutations(VARS)),
    st.tuples(st.just("copy_namespace"), _slot, st.lists(_var, max_size=3, unique=True),
              st.permutations(VARS)),
    st.tuples(st.just("close_incremental"), _slot, st.sampled_from(VARS + [ZERO]),
              _var, _const),
    st.tuples(st.just("join"), _slot),
    st.tuples(st.just("widen"), _slot),
    st.tuples(st.just("copy"), _slot),
    st.tuples(st.just("check"),),
)


def _apply(real, ref, op) -> None:
    name = op[0]
    if name == "check":
        _compare(real, ref)
        return
    i = op[1]
    g, r = real[i], ref[i]
    if name == "add_diff":
        g.add_diff(*op[2:])
        r.add_diff(*op[2:])
    elif name == "assign":
        g.assign(op[2], op[3])
        r.assign(op[2], op[3])
    elif name == "increment":
        g.assign(op[2], LinearExpr.var(op[2]) + op[3])
        r.assign(op[2], LinearExpr.var(op[2]) + op[3])
    elif name == "havoc":
        g.havoc(op[2])
        r.havoc(op[2])
    elif name == "remove_vars":
        g.remove_vars(op[2])
        r.remove_vars(op[2])
    elif name == "rename":
        mapping = dict(zip(VARS, op[2]))
        g.rename(mapping)
        r.rename(mapping)
    elif name == "copy_namespace":
        mapping = dict(zip(op[2], op[3]))
        g.copy_namespace_from(op[2], mapping)
        r.copy_namespace_from(op[2], mapping)
    elif name == "close_incremental":
        # the operation's precondition: a closed graph
        g.close()
        r.close()
        g.close_incremental(*op[2:])
        r.close_incremental(*op[2:])
    elif name in ("join", "widen"):
        real[i] = getattr(g, name)(real[1 - i])
        ref[i] = getattr(r, name)(ref[1 - i])
    elif name == "copy":
        real[1 - i] = g.copy()
        ref[1 - i] = r.copy()


def _compare(real, ref) -> None:
    for g, r in zip(real, ref):
        assert g.infeasible == r.is_infeasible()
        names = VARS + [ZERO, "absent"]
        for x in names:
            for y in names:
                assert g.diff_bound(x, y) == r.diff_bound(x, y), (x, y)
        vocab = frozenset(VARS[::2])
        for expr in [LinearExpr.var(v) + 1 for v in VARS] + [LinearExpr.const(3)]:
            assert g.equivalents(expr, vocab) == r.equivalents(expr, vocab), expr
    # graphs with contradictory constraints are all bottom; their leftover
    # edges depend on the order a negative cycle was relaxed in
    if not (real[0].infeasible and real[1].infeasible):
        same = real[0].fingerprint() == real[1].fingerprint()
        assert same == (ref[0].fingerprint() == ref[1].fingerprint())
        assert real[0].equivalent_to(real[1]) == same


@settings(max_examples=250, deadline=None)
@given(ops=st.lists(_op, max_size=25))
def test_matrix_graph_matches_reference_dbm(ops):
    real = [ConstraintGraph(), ConstraintGraph()]
    ref = [RefDBM(), RefDBM()]
    for op in ops:
        _apply(real, ref, op)
    _compare(real, ref)
