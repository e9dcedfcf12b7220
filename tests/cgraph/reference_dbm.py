"""A small pure-Python difference-bound matrix: the differential-test oracle.

``RefDBM`` stores constraints as a dict of dicts (``bound[x][y] = c`` means
``y <= x + c``; a missing entry means unconstrained) and implements the
:class:`~repro.cgraph.constraint_graph.ConstraintGraph` operations with the
textbook loops, independently of that class's array representation.  It
keeps the same closedness protocol (queries close on demand; ``widen``
leaves its result flagged closed without re-closing; ``close_incremental``
assumes a closed graph) so the two agree on every query, not only on the
closed semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set

from repro.cgraph.constraint_graph import ZERO
from repro.expr.linear import LinearExpr


class RefDBM:
    def __init__(self) -> None:
        self.bound: Dict[str, Dict[str, int]] = {ZERO: {}}
        self.closed = True
        self.infeasible = False

    def copy(self) -> "RefDBM":
        clone = RefDBM()
        clone.bound = {src: dict(dsts) for src, dsts in self.bound.items()}
        clone.closed = self.closed
        clone.infeasible = self.infeasible
        return clone

    # -- constraints -------------------------------------------------------------

    def add_var(self, name: str) -> None:
        self.bound.setdefault(name, {})

    def add_diff(self, x: str, y: str, c: int) -> None:
        if self.infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        if x == y:
            self.infeasible = self.infeasible or c < 0
            return
        current = self.bound[x].get(y)
        if current is None or c < current:
            self.bound[x][y] = c
            self.closed = False

    def close(self) -> None:
        names = list(self.bound)
        dist = {
            (a, b): 0 if a == b else self.bound[a].get(b) for a in names for b in names
        }
        for k in names:
            for a in names:
                if dist[(a, k)] is None:
                    continue
                for b in names:
                    if dist[(k, b)] is None:
                        continue
                    via = dist[(a, k)] + dist[(k, b)]
                    if dist[(a, b)] is None or via < dist[(a, b)]:
                        dist[(a, b)] = via
        self.infeasible = self.infeasible or any(dist[(a, a)] < 0 for a in names)
        self.bound = {
            a: {b: dist[(a, b)] for b in names if b != a and dist[(a, b)] is not None}
            for a in names
        }
        self.closed = True

    def ensure_closed(self) -> None:
        if not self.closed and not self.infeasible:
            self.close()

    def close_incremental(self, x: str, y: str, c: int) -> None:
        if self.infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        if x == y:
            self.infeasible = c < 0
            self.closed = True
            return
        current = self.bound[x].get(y)
        if current is None or c < current:
            names = list(self.bound)
            to_x = {u: 0 if u == x else self.bound[u].get(x) for u in names}
            from_y = {v: 0 if v == y else self.bound[y].get(v) for v in names}
            for u in names:
                for v in names:
                    if to_x[u] is None or from_y[v] is None:
                        continue
                    total = to_x[u] + c + from_y[v]
                    if u == v:
                        self.infeasible = self.infeasible or total < 0
                    elif self.bound[u].get(v) is None or total < self.bound[u][v]:
                        self.bound[u][v] = total
        self.closed = True

    # -- transfer ----------------------------------------------------------------

    def havoc(self, name: str) -> None:
        self.ensure_closed()
        self.bound[name] = {}
        for dsts in self.bound.values():
            dsts.pop(name, None)

    def remove_vars(self, names: Iterable[str]) -> None:
        self.ensure_closed()
        for name in names:
            self.bound.pop(name, None)
            for dsts in self.bound.values():
                dsts.pop(name, None)

    def assign(self, target: str, expr: Optional[LinearExpr]) -> None:
        self.ensure_closed()
        if self.infeasible:
            return
        constant = None if expr is None else expr.as_constant()
        split = None if expr is None else expr.split_var_plus_const()
        if constant is not None:
            self.havoc(target)
            self.close_incremental(ZERO, target, constant)
            self.close_incremental(target, ZERO, -constant)
        elif split is None:
            self.havoc(target)
        elif split[0] == target:
            offset = split[1]
            self.add_var(target)
            for src, dsts in self.bound.items():
                if target in dsts:
                    dsts[target] += offset
            self.bound[target] = {
                dst: c - offset for dst, c in self.bound[target].items()
            }
        else:
            base, offset = split
            self.havoc(target)
            self.add_var(base)
            self.close_incremental(base, target, offset)
            self.close_incremental(target, base, -offset)

    def rename(self, mapping: Mapping[str, str]) -> None:
        def rn(name):
            return mapping.get(name, name)

        self.bound = {
            rn(src): {rn(dst): c for dst, c in dsts.items()}
            for src, dsts in self.bound.items()
        }

    def copy_namespace_from(self, sources: Iterable[str], mapping: Mapping[str, str]):
        self.ensure_closed()
        sources = set(sources)
        for name in mapping.values():
            self.add_var(name)
        additions = [
            (mapping.get(src, src) if src in sources else src,
             mapping.get(dst, dst) if dst in sources else dst, c)
            for src, dsts in self.bound.items()
            for dst, c in dsts.items()
            if src in sources or dst in sources
        ]
        for src, dst, c in additions:
            self.add_diff(src, dst, c)

    # -- lattice -----------------------------------------------------------------

    def _combine(self, other: "RefDBM", keep) -> "RefDBM":
        self.ensure_closed()
        other.ensure_closed()
        if self.infeasible:
            return other.copy()
        if other.infeasible:
            return self.copy()
        result = RefDBM()
        for name in set(self.bound) | set(other.bound):
            result.add_var(name)
        for src, dsts in self.bound.items():
            for dst, c in dsts.items():
                theirs = other.bound.get(src, {}).get(dst)
                value = None if theirs is None else keep(c, theirs)
                if value is not None:
                    result.bound[src][dst] = value
        return result

    def join(self, other: "RefDBM") -> "RefDBM":
        return self._combine(other, max)

    def widen(self, newer: "RefDBM") -> "RefDBM":
        return self._combine(newer, lambda c, nc: c if nc <= c else None)

    # -- queries -----------------------------------------------------------------

    def is_infeasible(self) -> bool:
        self.ensure_closed()
        return self.infeasible

    def diff_bound(self, x: str, y: str) -> Optional[int]:
        self.ensure_closed()
        if self.infeasible or x == y:
            return 0
        if x not in self.bound or y not in self.bound:
            return None
        return self.bound[x].get(y)

    def equivalents(self, expr: LinearExpr, vocabulary) -> Set[LinearExpr]:
        self.ensure_closed()
        result = {expr}
        if self.infeasible:
            return result
        split = expr.split_var_plus_const()
        constant = expr.as_constant()
        if split is not None:
            base, offset = split
        elif constant is not None:
            base, offset = ZERO, constant
        else:
            return result
        for other, forward in self.bound.get(base, {}).items():
            if self.bound[other].get(base) != -forward:
                continue
            # other == base + forward  =>  expr == other + offset - forward
            if other == ZERO:
                result.add(LinearExpr.const(offset - forward))
            elif other in vocabulary:
                result.add(LinearExpr.var(other) + (offset - forward))
        return result

    def fingerprint(self) -> tuple:
        """Feasibility plus the explicit constraints of the closed graph."""
        self.ensure_closed()
        return self.infeasible, frozenset(
            (src, dst, c) for src, dsts in self.bound.items() for dst, c in dsts.items()
        )
