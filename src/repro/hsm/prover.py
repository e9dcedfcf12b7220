"""Heuristically guided search prover for HSM equalities (Section VIII-B).

Proving two HSMs sequence-equal or set-equal requires finding a chain of
Table I rewrite rules turning one into the other.  The paper mechanizes this
"by using heuristically guided search, a standard technique in automated
theorem provers"; we implement a bounded breadth-first search over the
normalized rewrite graph, with the normal form acting as a strong
canonicalizer so most proofs close in one or two steps.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro import obs
from repro.expr.rewrite import InvariantSystem
from repro.hsm.hsm import Base, HSMOps
from repro.hsm.rules import seq_rewrites, set_rewrites


def _fingerprint(h: Base) -> str:
    return str(h)


class HSMProver:
    """Bounded-search equality prover over the Table I rules."""

    def __init__(
        self,
        inv: InvariantSystem,
        max_states: int = 400,
        max_depth: int = 8,
    ):
        self.inv = inv
        self.ops = HSMOps(inv)
        self.max_states = max_states
        self.max_depth = max_depth
        #: proof statistics (states explored per query), for the benches
        self.explored_counts = []
        #: memoized verdicts: (fingerprint(a), fingerprint(b), set_preserving)
        #: -> bool.  Sound per instance: verdicts depend only on the operand
        #: HSMs and this prover's invariant system and search budget.
        self._verdicts = {}
        #: provenance hook: when a list, every query appends a JSON-plain
        #: record ``{lhs, rhs, mode, verdict, explored, cached}`` — the
        #: proof/refutation trace attached to match-attempt events.  None
        #: (the default) keeps queries trace-free.
        self.trace = None

    # -- queries ---------------------------------------------------------------

    def seq_equal(self, a: Base, b: Base) -> bool:
        """Do the two HSMs denote the same sequence (same order)?"""
        return self._search(a, b, set_preserving=False)

    def set_equal(self, a: Base, b: Base) -> bool:
        """Do the two HSMs denote the same set of values (any order)?"""
        if self._search(a, b, set_preserving=False):
            return True
        return self._search(a, b, set_preserving=True)

    def is_identity_on(self, composed: Base, domain: Base) -> bool:
        """Section VIII-B(1): the composed expression equals the domain
        sequence element-for-element."""
        return self.seq_equal(composed, domain)

    def is_surjection_onto(self, image: Base, target: Base) -> bool:
        """Section VIII-B(2): the image covers the target set."""
        lhs_len = self.ops.length(image)
        rhs_len = self.ops.length(target)
        if not self.inv.equal(lhs_len, rhs_len):
            return False
        return self.set_equal(image, target)

    # -- search -----------------------------------------------------------------

    def _search(self, a: Base, b: Base, set_preserving: bool) -> bool:
        key = (_fingerprint(a), _fingerprint(b), set_preserving)
        cached = self._verdicts.get(key)
        if cached is not None:
            obs.incr("hsm.prove.cache_hits")
            self._trace(key, cached, explored=0, cached=True)
            return cached
        with obs.span("hsm.prove"):
            found = self._search_impl(a, b, set_preserving)
        self._verdicts[key] = found
        obs.incr("hsm.proof.attempts")
        obs.incr("hsm.proof.successes" if found else "hsm.proof.failures")
        if self.explored_counts:
            obs.observe("hsm.proof.explored", self.explored_counts[-1])
        self._trace(
            key,
            found,
            explored=self.explored_counts[-1] if self.explored_counts else 0,
            cached=False,
        )
        return found

    def _trace(self, key, verdict: bool, explored: int, cached: bool) -> None:
        if self.trace is None:
            return
        lhs, rhs, set_preserving = key
        self.trace.append(
            {
                "lhs": lhs,
                "rhs": rhs,
                "mode": "set" if set_preserving else "seq",
                "verdict": verdict,
                "explored": explored,
                "cached": cached,
            }
        )

    def _search_impl(self, a: Base, b: Base, set_preserving: bool) -> bool:
        start = self.ops.normalize(a)
        goal = self.ops.normalize(b)
        if self.ops.equal(start, goal):
            self.explored_counts.append(1)
            return True
        seen: Set[str] = {_fingerprint(start)}
        goal_print = _fingerprint(goal)
        queue = deque([(start, 0)])
        explored = 1
        while queue and explored < self.max_states:
            node, depth = queue.popleft()
            if depth >= self.max_depth:
                continue
            neighbors = list(seq_rewrites(node, self.ops))
            if set_preserving:
                neighbors.extend(set_rewrites(node, self.ops))
            for neighbor in neighbors:
                normal = self.ops.normalize(neighbor)
                print_ = _fingerprint(normal)
                if print_ in seen:
                    continue
                explored += 1
                if print_ == goal_print or self.ops.equal(normal, goal):
                    self.explored_counts.append(explored)
                    return True
                seen.add(print_)
                queue.append((normal, depth + 1))
        self.explored_counts.append(explored)
        return False
