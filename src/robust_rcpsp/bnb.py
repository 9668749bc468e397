"""Self-contained exact solver: branch-and-bound over conflict resolutions.

Search nodes carry a partial selection.  Branching picks the first
unresolved minimal forbidden set and adds one ordered precedence pair from
it per child; the worst-case makespan of the partial extension is a valid
lower bound because adding arcs never shortens the adversary's longest
path.  Children come from ``network.branch``, the child step the
exhaustive ``enumerate_sufficient_selections`` shares, which merges
extensions reaching an already-seen transitive closure.

The search runs on bitsets.  A node holds its closure (one reachability
bitmask per activity) and its unresolved catalog sets as one bitmask over
catalog indices.  With ``member[a]`` the sets holding activity ``a``, adding
arc (i, j) resolves exactly the sets that touch both the ancestors-or-self
of ``i`` and the descendants-or-self of ``j`` (two disjoint node sets in an
acyclic graph), so a child costs a few big-int operations per activity
rather than a pair scan of every open set.  The branching set is the lowest
unresolved index.

Every bound comes from the adversary DP's leveled rows.  The root takes
its rows and bound from one ``worst_case_makespan_dp`` call.  Each node
keeps its predecessor lists (the parent's plus ``i`` appended to ``j``'s)
and its rows; a child raises, with ``relax_leveled_rows``, only the rows of
``j`` and its descendants, in the order the closure gives (an activity
reaches strictly more activities than each of its descendants), starting
from ``i`` as the one dirty predecessor.  Adding an arc only lengthens
paths, so no other row can change.  The predecessors appended after the
root's are the node's added arcs, so a leaf's selection is read from them.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from ._graph import closure_bitsets, predecessors
from .adversary import relax_leveled_rows, worst_case_makespan_dp
from .heuristics import warm_start
from .instance import ProjectInstance
from .network import (
    Selection,
    branch,
    first_set,
    membership_masks,
    minimal_forbidden_sets,
    unresolved_sets,
)


@dataclass(frozen=True)
class OptResult:
    selection: Selection
    value: int
    status: str  # "optimal" | "incumbent"
    nodes: int
    time_s: float
    best_bound: int


def solve_exact(inst: ProjectInstance, gamma: int, *,
                time_limit_s: float | None = None,
                node_cap: int | None = None) -> OptResult:
    """Best-first search for the minimum worst-case makespan.

    The incumbent starts from the LFT warm start.  Nodes whose bound
    reaches the incumbent are pruned; when the best open bound reaches the
    incumbent the incumbent is optimal.
    """
    t0 = time.perf_counter()
    catalog = minimal_forbidden_sets(inst)
    warm = warm_start(inst, gamma)
    incumbent_value, incumbent_sel = warm.upper_bound, warm.selection

    n_nodes = inst.n_nodes
    member = membership_masks(n_nodes, catalog)
    nominal = inst.nominal_duration
    delayed = tuple(inst.worst_case_duration(i) for i in range(n_nodes))
    root_closure = tuple(closure_bitsets(n_nodes, inst.precedence))
    root_pred = tuple(tuple(p) for p in predecessors(n_nodes, inst.precedence))
    root = worst_case_makespan_dp(inst, Selection(), gamma)
    root_bound = root.value
    # Lists, not the DP's tuples: the kernel compares a copied row with
    # the old one to see whether it rose.
    root_rows = [list(row) for row in root.leveled_starts]
    # Heap entries: (bound, tie-break counter, closure, predecessor lists,
    # DP rows, unresolved-set mask).
    heap = [(root_bound, 0, root_closure, root_pred, root_rows,
             unresolved_sets(root_closure, member, len(catalog)))]
    counter = 0
    seen = {root_closure}
    nodes_explored = 0

    def result(status, best_bound):
        return OptResult(
            selection=incumbent_sel, value=incumbent_value, status=status,
            nodes=nodes_explored, time_s=time.perf_counter() - t0,
            best_bound=best_bound,
        )

    while heap:
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            return result("incumbent", heap[0][0])
        if node_cap is not None and nodes_explored >= node_cap:
            return result("incumbent", heap[0][0])
        bound, _, closure, pred, rows, unresolved = heapq.heappop(heap)
        nodes_explored += 1
        if bound >= incumbent_value:
            return result("optimal", incumbent_value)
        if not unresolved:
            incumbent_value = bound
            incumbent_sel = Selection(frozenset(
                (i, j) for j in range(n_nodes) for i in pred[j][len(root_pred[j]):]))
            continue
        fset = catalog.sets[first_set(unresolved)]
        for i, j, key, resolved in branch(closure, member, fset, seen):
            child_pred = list(pred)
            child_pred[j] += (i,)
            child_rows = list(rows)
            order = _bits(key[j] | (1 << j))
            order.sort(key=lambda v: -key[v].bit_count())
            relax_leveled_rows(child_rows, order, 1 << i, child_pred, nominal, delayed)
            child_bound = child_rows[-1][gamma]
            if child_bound >= incumbent_value:
                continue
            counter += 1
            heapq.heappush(heap, (child_bound, counter, key, child_pred, child_rows,
                                  unresolved & ~resolved))
    return result("optimal", incumbent_value)


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def optimality_gap(result: OptResult) -> float | None:
    """Relative gap in percent: 100 * (incumbent - bound) / incumbent.

    Returns None when the incumbent is not positive.
    """
    incumbent = result.value
    if incumbent <= 0:
        return None
    if result.status == "optimal":
        return 0.0
    return max(0.0, 100.0 * (incumbent - result.best_bound) / incumbent)
