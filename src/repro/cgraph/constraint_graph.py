"""Difference-bound constraint graphs.

A :class:`ConstraintGraph` is a conjunction of inequalities ``y <= x + c``
over named integer variables, plus a distinguished zero node so absolute
bounds (``x <= 5``) are the special case ``x <= ZERO + 5``.  This is the
constraint-graph representation of CLR ch. 24.4/25.5 used by the paper's
Section VII-A state analysis.

Consistency is maintained by transitive closure (Floyd–Warshall, O(n^3)) or
by an incremental single-constraint update (O(n^2)); both are instrumented
through :mod:`repro.cgraph.stats` because reproducing the paper's Section IX
profile requires counting exactly these operations.

Representation.  One dense float64 matrix per graph (``inf`` = no
constraint), indexed by variable name, held in a buffer with spare capacity
so new variables append in amortized O(1); every lattice operation is a
matrix operation.  The storage is **copy-on-write** between
:meth:`ConstraintGraph.copy` siblings (``cgraph.cow.*`` counters).  The
canonical *fingerprint* is the sorted variable names plus the matrix bytes
in that order, and both closures are memoized process-wide — the full one
keyed by the unclosed system, the incremental one by ``(fingerprint, added
constraint)`` (hits: ``cgraph.closure.cache_hits``).  ``naive_copy``
restores eager copies with no caches (the property-test oracle), and
``naive_closure`` (the Section IX ablation) also bypasses every cache and
runs the prototype's pure-Python O(n^3) loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro import obs as _obs
from repro.cgraph.stats import ClosureStats, global_stats, timed
from repro.expr.linear import LinearExpr

#: distinguished node representing the constant 0
ZERO = "__0__"

#: absence of a constraint (y - x unbounded above) in the query API
INF = None

_INF = np.inf

#: memoized closure results: key -> (buffer, names, index, infeasible,
#: fingerprint).  Cached storage is adopted copy-on-write and must never be
#: mutated in place (every adopter holds it with ``_shared = True``).
_CLOSURE_CACHE: Dict[tuple, tuple] = {}

#: crude epoch eviction: when the table fills up it is dropped wholesale,
#: which keeps behavior deterministic and bounds memory
_CLOSURE_CACHE_MAX = 4096


#: shared equivalence memos: semantic fingerprint -> {(expr, vocab): frozenset}.
#: Graphs adopt the dict matching their semantics, so enrichment work
#: survives copies, joins, and re-derivations of the same constraint system.
#: The dicts also map a base variable name to its equality class.
_EQUIV_REGISTRY: Dict[tuple, dict] = {}

#: interned ``name + c`` expressions: memoized equivalence sets share them
_VAR_PLUS: Dict[Tuple[str, int], LinearExpr] = {}


def clear_closure_caches() -> None:
    """Drop all memoized closure results (test/benchmark isolation)."""
    _CLOSURE_CACHE.clear()
    _EQUIV_REGISTRY.clear()
    _VAR_PLUS.clear()


def _cache_store(key: tuple, value) -> None:
    if len(_CLOSURE_CACHE) >= _CLOSURE_CACHE_MAX:
        _CLOSURE_CACHE.clear()
    _CLOSURE_CACHE[key] = value


def _blank(n: int) -> np.ndarray:
    """An ``n x n`` matrix with no constraints (``inf``, diagonal 0)."""
    matrix = np.full((n, n), _INF)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _sub(matrix: np.ndarray, rows) -> np.ndarray:
    """The (fresh) submatrix on ``rows`` x ``rows``, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    return matrix.take(rows, axis=0).take(rows, axis=1)


def _edges(matrix: np.ndarray) -> np.ndarray:
    """Mask of the explicit constraints (finite off-diagonal entries)."""
    mask = np.isfinite(matrix)
    np.fill_diagonal(mask, False)
    return mask


def _canonical(names: List[str], matrix: np.ndarray, keep=None) -> tuple:
    """``(names, bytes)`` of ``matrix`` reordered by sorted variable name,
    restricted to the rows flagged in ``keep`` when given."""
    order = sorted(range(len(names)), key=names.__getitem__)
    if keep is not None:
        order = [i for i in order if keep[i]]
    if order != list(range(len(names))):
        matrix = _sub(matrix, order)
    return "\0".join([names[i] for i in order]), matrix.tobytes()


def _floyd_warshall(matrix: np.ndarray) -> bool:
    """Min-plus Floyd-Warshall closure in place; True iff a negative cycle
    exists.  Only a node with both incoming and outgoing edges can be a
    path's inner node, and one with neither is on no path, so the kernel
    relaxes through the former on a contiguous copy of the rows and
    columns that carry a constraint."""
    mask = _edges(matrix)
    has_in, has_out = mask.any(axis=0), mask.any(axis=1)
    live = np.flatnonzero(has_in | has_out)
    sub = _sub(matrix, live)
    for k in np.flatnonzero((has_in & has_out)[live]).tolist():
        np.minimum(sub, sub[:, k : k + 1] + sub[k : k + 1, :], out=sub)
    infeasible = bool((sub.diagonal() < 0).any())
    np.fill_diagonal(sub, 0.0)
    matrix[np.ix_(live, live)] = sub
    return infeasible


def _floyd_warshall_python(matrix: np.ndarray) -> bool:
    """The paper prototype's straightforward O(n^3) closure loop, in place;
    True iff a negative cycle exists."""
    rows = matrix.tolist()
    n = len(rows)
    for k in range(n):
        row_k = rows[k]
        for i in range(n):
            row_i = rows[i]
            via = row_i[k]
            if via == _INF:
                continue
            for j in range(n):
                total = via + row_k[j]
                if total < row_i[j]:
                    row_i[j] = total
    matrix[...] = rows
    np.fill_diagonal(matrix, 0.0)
    return any(rows[i][i] < 0 for i in range(n))


class ConstraintGraph:
    """A (possibly infeasible) conjunction of difference constraints.

    The graph is *closed* when all transitively implied constraints are
    explicit; query methods close on demand.  ``bottom`` (infeasible) states
    arise from contradictory constraints and absorb all further additions.
    """

    def __init__(
        self,
        stats: Optional[ClosureStats] = None,
        naive_closure: bool = False,
        naive_copy: bool = False,
    ):
        # _m[i, j] = c  <=>  names[j] <= names[i] + c  (edge i --c--> j).
        # _m is the leading n x n block of _buf; the rest of _buf stays
        # blank, so appending a variable writes nothing
        self._use(np.zeros((1, 1)), [ZERO], {ZERO: 0})
        self._closed = True
        self._infeasible = False
        #: cached canonical fingerprints: every tracked variable (the
        #: full-closure memo key) and constrained variables only (semantics)
        self._rep_fp: Optional[tuple] = None
        self._fp: Optional[tuple] = None
        #: memoized ``equivalents`` results, shared between COW siblings and
        #: replaced (never cleared in place) on semantic mutation
        self._equiv_cache: dict = {}
        self._stats = stats if stats is not None else global_stats()
        #: ablation switch reproducing the paper's prototype cost profile:
        #: re-run the full O(n^3) closure before every query instead of
        #: tracking closedness (Section IX's dominant cost)
        self.naive_closure = naive_closure
        #: ablation switch restoring the pre-COW lattice: eager copies and
        #: no closure/equivalence caches (the property-test oracle)
        self.naive_copy = naive_copy

    # -- copy-on-write plumbing ------------------------------------------------

    def _caching(self) -> bool:
        """True when memoization is allowed (both ablations disable it)."""
        return not (self.naive_closure or self.naive_copy)

    def _use(self, buf: np.ndarray, names: List[str], index=None, shared=False) -> None:
        """Install storage; ``shared`` storage may be referenced by another
        graph or by the closure cache, so mutation must copy it first."""
        n = len(names)
        self._buf, self._m, self._names = buf, buf[:n, :n], names
        self._index = {name: i for i, name in enumerate(names)} if index is None else index
        self._shared = shared

    def _materialize(self, extra: int = 0) -> None:
        """Give this graph private storage, with room for ``extra`` more
        variables, before in-place mutation."""
        n, cap = len(self._names), self._buf.shape[0]
        if n + extra > cap:
            buf = _blank(max(n + extra, cap + cap // 2 + 4))
            buf[:n, :n] = self._m
        elif self._shared:
            buf = self._buf.copy()
        else:
            return
        if self._shared:
            self._stats.record_cow_materialization()
        self._use(buf, list(self._names), dict(self._index))

    def _adopt(self, entry: tuple) -> None:
        """Share the storage of a closure-cache entry."""
        self._use(*entry[:3], shared=True)
        self._closed = True
        self._rep_fp = entry[4]
        self._fp = None

    def _cache_entry(self, infeasible: bool) -> tuple:
        """This graph's storage as a closure-cache value (now shared)."""
        self._shared = True
        return (self._buf, self._names, self._index, infeasible, self._rep_fingerprint())

    def _invalidate(self) -> None:
        """Constraint set changed: drop fingerprints and equivalence memos."""
        self._rep_fp = None
        self._fp = None
        # Re-bind instead of clearing: COW siblings still using the old
        # semantics keep their (still-valid) shared memo dict.  This must
        # happen even when the dict is currently empty — a sibling sharing
        # it could populate it later with entries for the *old* semantics.
        self._equiv_cache = {}

    def _edge_items(self) -> tuple:
        """Canonical tuple of all explicit constraints (sorted edge list)."""
        rows, cols = np.nonzero(_edges(self._m))
        names = self._names
        return tuple(sorted(
            (names[i], names[j], int(c))
            for i, j, c in zip(rows.tolist(), cols.tolist(), self._m[rows, cols].tolist())
        ))

    def _rep_fingerprint(self) -> tuple:
        """Representational fingerprint: feasibility, variables, matrix."""
        if self._rep_fp is None:
            self._rep_fp = (self._infeasible,) + _canonical(self._names, self._m)
        return self._rep_fp

    def _semantic_fingerprint(self) -> tuple:
        """:meth:`_rep_fingerprint` without the unconstrained variables."""
        if self._fp is None:
            mask = _edges(self._m)
            keep = mask.any(axis=0) | mask.any(axis=1)
            self._fp = self._rep_fingerprint() if keep.all() else (
                (self._infeasible,) + _canonical(self._names, self._m, keep.tolist())
            )
        return self._fp

    def fingerprint(self) -> tuple:
        """Canonical fingerprint of the *closed* constraint system.

        Two closed graphs are :meth:`equivalent_to` iff their fingerprints
        are equal (untracked-but-unconstrained variables are ignored, like
        the matrix comparison this replaces).  Closes on demand.
        """
        self._ensure_closed()
        return self._semantic_fingerprint()

    # -- snapshot serialization -------------------------------------------------

    def to_state(self) -> dict:
        """Representational state for the checkpoint codec.

        Captures the explicit constraints (closed or not), feasibility, the
        closedness flag and the ablation switches — everything needed to
        rebuild a graph that behaves identically, including its canonical
        :meth:`fingerprint`.
        """
        return {
            "vars": sorted(self.variables()),
            "edges": list(self._edge_items()),
            "closed": self._closed,
            "infeasible": self._infeasible,
            "naive_closure": self.naive_closure,
            "naive_copy": self.naive_copy,
        }

    @classmethod
    def from_state(cls, data: Mapping) -> "ConstraintGraph":
        """Rebuild a graph from :meth:`to_state` output (stats sink is the
        process-global one; snapshots don't carry profiling state)."""
        graph = cls(
            naive_closure=bool(data.get("naive_closure", False)),
            naive_copy=bool(data.get("naive_copy", False)),
        )
        graph._add_vars(data["vars"])
        for src, dst, c in data["edges"]:
            graph._add_vars((src, dst))
            graph._m[graph._index[src], graph._index[dst]] = c
        graph._closed = bool(data["closed"])
        graph._infeasible = bool(data["infeasible"])
        return graph

    # -- basics ---------------------------------------------------------------

    def copy(self) -> "ConstraintGraph":
        """Copy sharing the stats sink.

        Copy-on-write by default: the storage is shared until either side
        mutates.  With ``naive_copy`` an eager copy is made instead.
        """
        clone = ConstraintGraph(
            self._stats, self.naive_closure, naive_copy=self.naive_copy
        )
        if self.naive_copy:
            clone._use(self._buf.copy(), list(self._names), dict(self._index))
        else:
            self._shared = True
            clone._use(self._buf, self._names, self._index, shared=True)
            clone._rep_fp = self._rep_fp
            clone._fp = self._fp
            clone._equiv_cache = self._equiv_cache
            self._stats.record_cow_share()
        clone._closed = self._closed
        clone._infeasible = self._infeasible
        return clone

    @property
    def infeasible(self) -> bool:
        """True iff the constraints are contradictory (bottom state)."""
        self._ensure_closed()
        return self._infeasible

    def variables(self) -> Set[str]:
        """All tracked variable names (excluding the zero node)."""
        names = set(self._names)
        names.discard(ZERO)
        return names

    def _add_vars(self, names: Iterable[str]) -> None:
        """Track every new name in ``names`` (initially unconstrained)."""
        fresh = [name for name in dict.fromkeys(names) if name not in self._index]
        if fresh:
            # closedness and the equivalence memos are unaffected, but the
            # variable list is part of the representational fingerprint
            self._materialize(len(fresh))
            for name in fresh:
                self._index[name] = len(self._names)
                self._names.append(name)
            n = len(self._names)
            self._m = self._buf[:n, :n]
            self._rep_fp = None

    def add_var(self, name: str) -> None:
        """Track a variable (initially unconstrained)."""
        if name not in self._index:
            self._add_vars((name,))

    def has_var(self, name: str) -> bool:
        """True iff the variable is tracked."""
        return name in self._index

    # -- constraint entry -------------------------------------------------------

    def add_diff(self, x: str, y: str, c: int) -> None:
        """Assert ``y <= x + c``."""
        if self._infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        if x == y:
            if c < 0:
                self._infeasible = True
                self._invalidate()
            return
        i, j = self._index[x], self._index[y]
        if c < self._m[i, j]:
            self._materialize()
            self._m[i, j] = c
            self._closed = False
            self._invalidate()

    def add_upper(self, x: str, c: int) -> None:
        """Assert ``x <= c``."""
        self.add_diff(ZERO, x, c)

    def add_lower(self, x: str, c: int) -> None:
        """Assert ``x >= c``."""
        self.add_diff(x, ZERO, -c)

    def set_const(self, x: str, c: int) -> None:
        """Assert ``x == c``."""
        self.add_upper(x, c)
        self.add_lower(x, c)

    def add_eq_diff(self, x: str, y: str, c: int) -> None:
        """Assert ``y == x + c``."""
        self.add_diff(x, y, c)
        self.add_diff(y, x, -c)

    def assume_leq(self, lhs: LinearExpr, rhs: LinearExpr) -> bool:
        """Assert ``lhs <= rhs`` when expressible as a difference constraint.

        Returns False (and adds nothing) when the inequality is outside the
        difference-constraint fragment; callers treat that as "no
        information", which is sound.
        """
        delta = lhs - rhs  # want delta <= 0
        coeffs = delta.coeffs
        const = delta.constant
        names = sorted(coeffs)
        if not names:
            if const > 0:
                self._infeasible = True
                self._invalidate()
            return True
        if len(names) == 1:
            name = names[0]
            coeff = coeffs[name]
            if coeff == 1:
                self.add_upper(name, -const)
                return True
            if coeff == -1:
                self.add_lower(name, const)
                return True
            return False
        if len(names) == 2:
            a, b = names
            ca, cb = coeffs[a], coeffs[b]
            if ca == 1 and cb == -1:
                # a - b + const <= 0  =>  a <= b - const
                self.add_diff(b, a, -const)
                return True
            if ca == -1 and cb == 1:
                self.add_diff(a, b, -const)
                return True
        return False

    def assume_eq(self, lhs: LinearExpr, rhs: LinearExpr) -> bool:
        """Assert ``lhs == rhs`` (both directions must be expressible)."""
        first = self.assume_leq(lhs, rhs)
        second = self.assume_leq(rhs, lhs)
        return first and second

    # -- closure ---------------------------------------------------------------

    def _ensure_closed(self) -> None:
        if self.naive_closure and not self._infeasible:
            self.close()
            return
        if not self._closed and not self._infeasible:
            self.close()

    def close(self) -> None:
        """Full O(n^3) transitive closure (Floyd-Warshall), instrumented.

        Memoized (outside the ablation modes) on the unclosed constraint
        set: re-closing an already-seen system adopts the cached matrix
        copy-on-write instead of re-running Floyd-Warshall.
        """
        caching = self._caching()
        if caching:
            key = ("full",) + self._rep_fingerprint()
            hit = _CLOSURE_CACHE.get(key)
            if hit is not None:
                self._adopt(hit)
                self._infeasible = self._infeasible or hit[3]
                self._stats.record_cache_hit()
                return
        self._materialize()
        with _obs.span("cgraph.closure.full"), timed() as clock:
            if self.naive_closure:
                infeasible = _floyd_warshall_python(self._m)
            else:
                infeasible = _floyd_warshall(self._m)
        self._stats.record_full(len(self._names) - 1, clock.elapsed)
        self._infeasible = self._infeasible or infeasible
        self._closed = True
        self._rep_fp = None
        self._fp = None
        if caching:
            _cache_store(key, self._cache_entry(infeasible))

    def close_incremental(self, x: str, y: str, c: int) -> None:
        """O(n^2) re-closure after adding the single constraint ``y <= x + c``.

        Precondition: the graph was closed before the constraint was added.
        Used by hot paths (assignment transfer); instrumented separately.
        Memoized on ``(fingerprint, x, y, c)``: re-deriving the same closed
        system plus the same single constraint adopts the cached matrix
        copy-on-write.
        """
        if self._infeasible:
            return
        key = None
        if self._closed and self._caching():
            key = ("incr", self._rep_fingerprint(), x, y, c)
            hit = _CLOSURE_CACHE.get(key)
            if hit is not None:
                self._adopt(hit)
                self._infeasible = hit[3]
                self._equiv_cache = {}
                self._stats.record_cache_hit()
                return
        self.add_var(x)
        self.add_var(y)
        n = len(self._names)
        with _obs.span("cgraph.closure.incremental"), timed() as clock:
            i, j = self._index[x], self._index[y]
            if x == y:
                # a self-loop only matters when negative (an empty cycle)
                if c < 0:
                    self._infeasible = True
                    self._invalidate()
            elif c < self._m[i, j]:
                self._materialize()
                self._invalidate()
                matrix = self._m
                to_x = matrix[:, i] + c
                from_y = matrix[j, :]
                if (to_x + from_y < 0).any():
                    self._infeasible = True
                np.minimum(matrix, to_x[:, None] + from_y[None, :], out=matrix)
                np.fill_diagonal(matrix, 0.0)
        self._closed = True
        self._stats.record_incremental(n - 1, clock.elapsed)
        if key is not None:
            _cache_store(key, self._cache_entry(self._infeasible))

    # -- queries ---------------------------------------------------------------

    def diff_bound(self, x: str, y: str) -> Optional[int]:
        """The least c with ``y <= x + c`` implied, or None if unbounded."""
        self._ensure_closed()
        if self._infeasible:
            return 0
        if x == y:
            return 0
        i = self._index.get(x)
        j = self._index.get(y)
        if i is None or j is None:
            return None
        c = self._m[i, j]
        return None if c == _INF else int(c)

    def entails_diff(self, x: str, y: str, c: int) -> bool:
        """True iff ``y <= x + c`` is implied."""
        self._ensure_closed()
        if self._infeasible:
            return True
        bound = self.diff_bound(x, y)
        return bound is not None and bound <= c

    def entails_leq(self, lhs: LinearExpr, rhs: LinearExpr) -> Optional[bool]:
        """Three-valued entailment of ``lhs <= rhs``.

        True: implied.  False: the negation is implied.  None: unknown or
        outside the difference fragment.
        """
        self._ensure_closed()
        if self._infeasible:
            return True
        delta = lhs - rhs
        coeffs = delta.coeffs
        const = delta.constant
        names = sorted(coeffs)
        if not names:
            return const <= 0
        if len(names) == 1:
            name = names[0]
            if not self.has_var(name):
                return None
            coeff = coeffs[name]
            if coeff == 1:
                if self.entails_diff(ZERO, name, -const):
                    return True
                if self.entails_diff(name, ZERO, const - 1):
                    # name >= 1 - const  =>  delta >= 1 > 0
                    return False
                return None
            if coeff == -1:
                # delta = -name + const <= 0  <=>  name >= const
                if self.entails_diff(name, ZERO, -const):
                    return True
                # negation: name <= const - 1
                if self.entails_diff(ZERO, name, const - 1):
                    return False
                return None
            return None
        if len(names) == 2:
            a, b = names
            ca, cb = coeffs[a], coeffs[b]
            if not (self.has_var(a) and self.has_var(b)):
                return None
            if ca == 1 and cb == -1:
                if self.entails_diff(b, a, -const):
                    return True
                if self.entails_diff(a, b, const - 1):
                    return False
                return None
            if ca == -1 and cb == 1:
                if self.entails_diff(a, b, -const):
                    return True
                if self.entails_diff(b, a, const - 1):
                    return False
                return None
        return None

    def entails_eq(self, lhs: LinearExpr, rhs: LinearExpr) -> Optional[bool]:
        """Three-valued entailment of ``lhs == rhs``."""
        first = self.entails_leq(lhs, rhs)
        second = self.entails_leq(rhs, lhs)
        if first is True and second is True:
            return True
        if first is False or second is False:
            return False
        return None

    def const_value(self, name: str) -> Optional[int]:
        """The exact value of a variable, when pinned."""
        upper = self.diff_bound(ZERO, name)
        lower = self.diff_bound(name, ZERO)
        if upper is not None and lower is not None and upper == -lower:
            return upper
        return None

    def eval_const(self, expr: LinearExpr) -> Optional[int]:
        """Exact integer value of an affine expression, when pinned."""
        total = expr.constant
        for name, coeff in expr.coeffs.items():
            value = self.const_value(name)
            if value is None:
                return None
            total += coeff * value
        return total

    def equivalents(self, expr: LinearExpr, vocabulary: Iterable[str]) -> Set[LinearExpr]:
        """All ``var + c`` / constant expressions provably equal to ``expr``.

        ``expr`` must be of shape ``var + c0`` or a constant; this is the
        bound-equivalence-set operation the Section VII process-set
        representation relies on.  Results are memoized per closed graph
        (the memo is shared across copy-on-write siblings, so enrichment of
        many states over the same underlying graph pays for one scan).
        """
        self._ensure_closed()
        key = None
        cache = None
        if self._caching():
            vocab = (
                vocabulary
                if isinstance(vocabulary, frozenset)
                else frozenset(vocabulary)
            )
            key = (expr, vocab)
            cache = self._equiv_cache
            if not cache:
                # adopt the registry dict shared by every graph with these
                # semantics; a mutation re-binds to a fresh dict, so the next
                # query adopts the dict of the new fingerprint
                if len(_EQUIV_REGISTRY) >= _CLOSURE_CACHE_MAX:
                    _EQUIV_REGISTRY.clear()
                    _VAR_PLUS.clear()
                cache = self._equiv_cache = _EQUIV_REGISTRY.setdefault(
                    self.fingerprint(), self._equiv_cache
                )
            hit = cache.get(key)
            if hit is not None:
                return set(hit)
            vocabulary = vocab
        result = self._compute_equivalents(expr, vocabulary, cache)
        if key is not None:
            cache[key] = frozenset(result)
        return result

    def _equality_class(self, base: str) -> List[Tuple[str, int]]:
        """``[(other, forward)]`` with ``other == base + forward``: the
        opposite tight edges (``M[b, o] == -M[o, b]``) of the closed matrix.
        Memoized per semantics, so an ``equivalents`` query walks only the
        (tiny) class of its base variable instead of the vocabulary."""
        i = self._index.get(base)
        if i is None:
            return []
        row = self._m[i]
        names = self._names
        tight = np.flatnonzero(row == -self._m[:, i]).tolist()
        return [(names[j], int(c)) for j, c in zip(tight, row[tight].tolist()) if j != i]

    def _compute_equivalents(
        self, expr: LinearExpr, vocabulary: Iterable[str], cache: Optional[dict]
    ) -> Set[LinearExpr]:
        result: Set[LinearExpr] = {expr}
        if self._infeasible:
            return result
        split = expr.split_var_plus_const()
        # a constant is ZERO + constant
        base, offset = split if split is not None else (ZERO, expr.as_constant())
        if offset is None:
            return result
        pairs = cache.get(base) if cache is not None else None
        if pairs is None:
            pairs = self._equality_class(base)
            if cache is not None:
                cache[base] = pairs
        interned = _VAR_PLUS
        for other, forward in pairs:
            # other == base + forward  =>  expr == other + offset - forward
            c = offset - forward
            if other == ZERO:
                result.add(LinearExpr.const(c))
            elif other in vocabulary:
                term = interned.get((other, c))
                if term is None:
                    term = interned[(other, c)] = LinearExpr._raw(c, ((other, 1),))
                result.add(term)
        return result

    # -- transfer ---------------------------------------------------------------

    def havoc(self, name: str) -> None:
        """Forget everything about a variable (e.g. ``x = input()``)."""
        self._ensure_closed()
        i = self._index.get(name)
        if i is None:
            self.add_var(name)
            return
        self._materialize()
        self._invalidate()
        matrix = self._m
        matrix[i, :] = _INF
        matrix[:, i] = _INF
        matrix[i, i] = 0.0
        # projection of a closed graph stays closed

    def remove_var(self, name: str) -> None:
        """Project a variable out entirely."""
        self.remove_vars((name,))

    def remove_vars(self, names: Iterable[str]) -> None:
        """Project several variables out."""
        self._ensure_closed()
        index = self._index
        doomed = {index[name] for name in names if name in index}
        if not doomed:
            return
        keep = [i for i in range(len(self._names)) if i not in doomed]
        if self._shared:
            self._stats.record_cow_materialization()
        self._invalidate()
        self._use(_sub(self._m, keep), [self._names[i] for i in keep])

    def assign(self, target: str, expr: Optional[LinearExpr]) -> None:
        """Transfer function for ``target = expr``.

        ``expr`` of shape ``target + c`` is the in-place increment (the
        Fig. 5 loop counter); other affine single-variable or constant
        expressions re-bind the target; anything else (or ``None``) havocs.
        """
        self._ensure_closed()
        if self._infeasible:
            return
        if expr is None:
            self.havoc(target)
            return
        constant = expr.as_constant()
        if constant is not None:
            self.havoc(target)
            self.close_incremental(ZERO, target, constant)
            self.close_incremental(target, ZERO, -constant)
            return
        split = expr.split_var_plus_const()
        if split is None:
            self.havoc(target)
            return
        base, offset = split
        if base == target:
            # x := x + c  — shift every bound that mentions x (the diagonal
            # entry moves by +c and -c, staying 0)
            self.add_var(target)
            self._materialize()
            self._invalidate()
            t = self._index[target]
            self._m[:, t] += offset
            self._m[t, :] -= offset
            return
        self.havoc(target)
        self.add_var(base)
        self.close_incremental(base, target, offset)
        self.close_incremental(target, base, -offset)

    def rename(self, mapping: Mapping[str, str]) -> None:
        """Rename variables (used when process-set ids change).

        Relabels the index only; the matrix is not copied.  The renaming
        must be injective on the tracked variables.
        """
        names = [mapping.get(name, name) for name in self._names]
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("rename would merge two tracked variables")
        self._names, self._index = names, index
        self._invalidate()

    def copy_namespace_from(
        self, source_vars: Iterable[str], mapping: Mapping[str, str]
    ) -> None:
        """Duplicate constraints of ``source_vars`` onto fresh copies.

        For each constraint among the source variables (and between a source
        variable and any outside variable), the same constraint is added with
        source variables replaced via ``mapping``.  This implements the
        "state of the new set is a copy of the old set" rule for process-set
        splits.
        """
        self._ensure_closed()
        self._add_vars(mapping.values())
        if self._infeasible:
            return
        index = self._index
        n = len(self._names)
        image = np.arange(n)
        for name in set(source_vars) & index.keys():
            image[index[name]] = index[mapping.get(name, name)]
        moved = image != np.arange(n)
        rows, cols = np.nonzero(_edges(self._m) & (moved[:, None] | moved[None, :]))
        values = self._m[rows, cols]
        rows, cols = image[rows], image[cols]
        loops = rows == cols
        if (values[loops] < 0).any():
            self._infeasible = True  # a copied cycle is empty
            self._invalidate()
            return
        rows, cols, values = rows[~loops], cols[~loops], values[~loops]
        if (values < self._m[rows, cols]).any():
            self._materialize()
            np.minimum.at(self._m, (rows, cols), values)
            self._closed = False
            self._invalidate()

    # -- lattice ----------------------------------------------------------------

    def _pointwise(self, other: "ConstraintGraph", combine) -> "ConstraintGraph":
        """A fresh graph over both variable sets whose bound between two
        shared variables is ``combine(mine, theirs)``; every other pair is
        unconstrained."""
        result = ConstraintGraph(self._stats, self.naive_closure, self.naive_copy)
        if self._names == other._names:
            result._use(combine(self._m, other._m), list(self._names))
            return result
        theirs = other._index
        names = self._names + [name for name in other._names if name not in self._index]
        shared = [i for i, name in enumerate(self._names) if name in theirs]
        mapped = [theirs[self._names[i]] for i in shared]
        buf = _blank(len(names))
        buf[np.ix_(shared, shared)] = combine(_sub(self._m, shared), _sub(other._m, mapped))
        result._use(buf, names)
        return result

    def join(self, other: "ConstraintGraph") -> "ConstraintGraph":
        """Least upper bound (union of solution sets, convex-hull approx)."""
        self._ensure_closed()
        other._ensure_closed()
        if self._infeasible:
            return other.copy()
        if other._infeasible:
            return self.copy()
        # max of two closed DBMs is closed
        return self._pointwise(other, np.maximum)

    def meet(self, other: "ConstraintGraph") -> "ConstraintGraph":
        """Greatest lower bound (conjunction of both constraint sets)."""
        result = self.copy()
        for src, dst, c in other._edge_items():
            result.add_diff(src, dst, c)
        result._closed = False
        return result

    def widen(self, newer: "ConstraintGraph") -> "ConstraintGraph":
        """Standard DBM widening: drop constraints the new state weakened."""
        self._ensure_closed()
        newer._ensure_closed()
        if self._infeasible:
            return newer.copy()
        if newer._infeasible:
            return self.copy()
        # deliberately NOT re-closed: re-closing after widening can undo it;
        # the result is still a sound (weaker) constraint set
        return self._pointwise(
            newer, lambda mine, theirs: np.where(theirs <= mine, mine, _INF)
        )

    def equivalent_to(self, other: "ConstraintGraph") -> bool:
        """Semantic equality of two constraint graphs.

        Compares cached canonical fingerprints of the closed systems — a
        bytes comparison instead of two fresh closures plus a matrix walk.
        Already-closed graphs (the common case: both sides of an engine
        fixed-point check) are never re-closed, even under the
        ``naive_closure`` ablation, which used to run two full O(n^3)
        closures per call.
        """
        for graph in (self, other):
            if not graph._closed and not graph._infeasible:
                graph.close()
        if self._infeasible or other._infeasible:
            return self._infeasible == other._infeasible
        if self._buf is other._buf and self._names is other._names:
            return True  # COW siblings, no mutation since the share
        # variables that are tracked but unconstrained are invisible
        return self._semantic_fingerprint() == other._semantic_fingerprint()

    def __repr__(self) -> str:
        if self._infeasible:
            return "ConstraintGraph(bottom)"
        parts = [f"{dst} <= {src} + {c}" for src, dst, c in self._edge_items()]
        return f"ConstraintGraph({'; '.join(parts)})"


def edge_diff(
    old: Optional["ConstraintGraph"], new: Optional["ConstraintGraph"]
) -> Optional[dict]:
    """JSON-plain diff of two graphs' explicit constraint sets.

    The provenance flight recorder attaches this to transfer/join/widen
    events so ``repro explain`` can show exactly which difference bounds an
    event added, dropped, or loosened.  Constraints render as the
    ``y <= x + c`` inequalities they encode.  Returns None when nothing
    changed (so silent transfers attach no data); ``old=None`` reports the
    entire new graph as added.
    """
    before = {} if old is None else {
        (src, dst): c for src, dst, c in old._edge_items()
    }
    after = {} if new is None else {
        (src, dst): c for src, dst, c in new._edge_items()
    }

    def _render(src: str, dst: str, c: int) -> str:
        return f"{dst} <= {c}" if src == ZERO else f"{dst} <= {src} + {c}"

    added = [
        _render(src, dst, c)
        for (src, dst), c in sorted(after.items())
        if (src, dst) not in before
    ]
    removed = [
        _render(src, dst, before[(src, dst)])
        for (src, dst) in sorted(before)
        if (src, dst) not in after
    ]
    changed = [
        f"{_render(src, dst, before[(src, dst)])} -> {_render(src, dst, c)}"
        for (src, dst), c in sorted(after.items())
        if (src, dst) in before and before[(src, dst)] != c
    ]
    diff: dict = {}
    if added:
        diff["added"] = added
    if removed:
        diff["removed"] = removed
    if changed:
        diff["changed"] = changed
    if old is not None and new is not None:
        if old.infeasible != new.infeasible:
            diff["infeasible"] = new.infeasible
    return diff or None
