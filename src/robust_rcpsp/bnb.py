"""Self-contained exact solver: branch-and-bound over conflict resolutions.

Search nodes carry a partial selection.  Branching picks the first
unresolved minimal forbidden set and adds one ordered precedence pair from
it per child; the worst-case makespan of the partial extension is a valid
lower bound because adding arcs never shortens the adversary's longest
path.  The child step is the one the exhaustive
``enumerate_sufficient_selections`` shares: ``network.branch`` yields the
arcs of a node's children and ``network.child_closure`` builds a child.

The search runs on bitsets.  A node holds its closure (one reachability
bitmask per activity) and its unresolved catalog sets as one bitmask over
catalog indices.  With ``member[a]`` the sets holding activity ``a``, adding
arc (i, j) resolves exactly the sets that touch both the ancestors-or-self
of ``i`` and the descendants-or-self of ``j`` (two disjoint node sets in an
acyclic graph), so a child costs a few big-int operations per activity
rather than a pair scan of every open set.  The branching set is the lowest
unresolved index.

Every bound is the adversary DP's value, read from two tables of leveled
rows that an expanded node keeps: head rows W (``rows[v][g]``, the longest
path from the source to the start of ``v`` with at most ``g`` delays) and
tail rows T (``tails[v][g]``, from the finish of ``v`` to the sink).  A
longest path of the child with arc (i, j) either avoids the arc, and is no
longer than the node's bound, or uses it once, so ``arc_bound`` gives the
child's exact DP value in O(gamma) from ``W(i, .)`` and ``T(j, .)``.

A child costs only that bound until it is popped.  Open nodes are heap
entries ``(bound, counter, parent, i, j)``, where ``parent = (closure,
unresolved, pred, rows, succ, tails)`` is one tuple of the expanded node
that all its children share.  Expanding a node tests each ordered pair of
the branching set for reach, bounds it and pushes the entry; no closure is
built.  On pop the child's closure, the sets its arc resolves and the
ancestors-or-self of ``i`` come from ``child_closure`` on a copy of the
parent's, and the closure is checked against ``seen``, the closures of
the nodes popped so far:

- A closure already in ``seen`` makes the entry a duplicate.  It is
  dropped and is not a node.
- Otherwise the closure joins ``seen``, the node cap and the time limit
  are checked with this entry's bound as the best open bound, and then the
  bound and leaf checks run.

This is the search that merging children when they are made would give.
A child's bound is the exact DP value of its closure, and the DP value
depends on the closure only, so all entries with one closure share one
bound; the first pushed has the lowest counter and is popped first.  A
duplicate of a pruned child is pruned too, since the incumbent only falls.
So nodes, values, bounds and selections are those of merging at push time,
and a limit exit reports the best bound of the entries that are not
duplicates.

A popped, unpruned node derives its own state from the parent's.  Its
predecessor lists are the parent's plus ``i`` appended to ``j``'s; those
appended after the root's are the node's added arcs, so a leaf's selection
is read from them and a leaf needs nothing more.  Otherwise
``relax_leveled_rows`` raises the head rows of ``j`` and its descendants
(in the closure's descending-reach order, which is topological) from
``i`` as the one dirty predecessor, and the tail rows of ``i`` and its
ancestors (ascending reach, on successor lists) from ``j`` as the one
dirty successor.  Adding an arc only lengthens paths, so no other row can
change.  The root is an entry without an arc, made before the search
from one ``worst_case_makespan_dp`` call (its head rows and bound) and
``tail_rows`` (its tail rows).
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from ._graph import closure_bitsets, predecessors, successors
from .adversary import relax_leveled_rows, tail_rows, worst_case_makespan_dp
from .heuristics import warm_start
from .instance import ProjectInstance
from .network import (
    Selection,
    branch,
    child_closure,
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
    incumbent the incumbent is optimal, also when the time limit or the
    node cap stops the search.
    """
    t0 = time.perf_counter()
    catalog = minimal_forbidden_sets(inst)
    warm = warm_start(inst, gamma)
    incumbent_value, incumbent_sel = warm.upper_bound, warm.selection

    n_nodes = inst.n_nodes
    member = membership_masks(n_nodes, catalog)
    nominal = inst.nominal_duration
    delayed = inst.worst_case_duration
    root_closure = tuple(closure_bitsets(n_nodes, inst.precedence))
    root_pred = tuple(tuple(p) for p in predecessors(n_nodes, inst.precedence))
    root_succ = tuple(tuple(s) for s in successors(n_nodes, inst.precedence))
    root = worst_case_makespan_dp(inst, Selection(), gamma)
    # Lists, not the DP's tuples: the kernel compares a copied row with
    # the old one to see whether it rose.
    root_rows = [list(row) for row in root.leveled_starts]
    # The root's entry has no arc, and its "parent" is its own state.
    heap = [(root.value, 0, (root_closure, unresolved_sets(root_closure, member, len(catalog)),
                             root_pred, root_rows, root_succ, tail_rows(inst, gamma)),
             None, None)]
    counter = 0
    seen = set()
    nodes_explored = 0

    def result(status, best_bound):
        return OptResult(
            selection=incumbent_sel, value=incumbent_value, status=status,
            nodes=nodes_explored, time_s=time.perf_counter() - t0,
            best_bound=best_bound,
        )

    while heap:
        bound, _, (closure, unresolved, pred, rows, succ, tails), i, j = heapq.heappop(heap)
        if i is not None:
            closure, resolved, above = child_closure(closure, member, i, j)
            unresolved &= ~resolved
        if closure in seen:
            continue
        seen.add(closure)
        # The limits are checked after the dedup, so that a limit exit
        # reports the bound of an entry that is not a duplicate.
        if ((time_limit_s is not None and time.perf_counter() - t0 > time_limit_s)
                or (node_cap is not None and nodes_explored >= node_cap)):
            if bound >= incumbent_value:
                return result("optimal", incumbent_value)
            return result("incumbent", bound)
        nodes_explored += 1
        if bound >= incumbent_value:
            return result("optimal", incumbent_value)
        if i is not None:
            pred = list(pred)
            pred[j] += (i,)
        if not unresolved:
            incumbent_value = bound
            incumbent_sel = Selection(frozenset(
                (a, b) for b in range(n_nodes) for a in pred[b][len(root_pred[b]):]))
            continue
        if i is not None:
            rows = list(rows)
            down = _bits(closure[j] | (1 << j))
            down.sort(key=lambda v: -closure[v].bit_count())
            relax_leveled_rows(rows, down, 1 << i, pred, nominal, delayed)
            succ = list(succ)
            succ[i] += (j,)
            tails = list(tails)
            up = _bits(above)
            up.sort(key=lambda v: closure[v].bit_count())
            relax_leveled_rows(tails, up, 1 << j, succ, nominal, delayed)
        parent = (closure, unresolved, pred, rows, succ, tails)
        for a, b in branch(closure, catalog[first_set(unresolved)]):
            child_bound = max(bound, arc_bound(rows[a], tails[b], nominal[a], delayed[a],
                                               nominal[b], delayed[b]))
            if child_bound >= incumbent_value:
                continue
            counter += 1
            heapq.heappush(heap, (child_bound, counter, parent, a, b))
    return result("optimal", incumbent_value)


def arc_bound(head, tail, nominal_i, delayed_i, nominal_j, delayed_j):
    """Longest source-sink path through a new arc (i, j) with at most
    ``gamma = len(head) - 1`` delays, from ``head = W(i, .)`` and
    ``tail = T(j, .)``.

    The path runs from the source to the start of ``i``, through ``i`` and
    ``j`` (each nominal or delayed), and from the finish of ``j`` to the
    sink: the max over g of the finish of ``j`` with g delays plus
    ``tail[gamma - g]``.
    """
    gamma = len(head) - 1
    start = head[0] + nominal_i  # the start of j through i, with g delays
    best = start + nominal_j + tail[gamma]
    for g in range(1, gamma + 1):
        lower = start
        start = head[g] + nominal_i
        x = head[g - 1] + delayed_i
        if x > start:
            start = x
        finish = start + nominal_j
        x = lower + delayed_j
        if x > finish:
            finish = x
        x = finish + tail[gamma - g]
        if x > best:
            best = x
    return best


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def gap_percent(status, objective, bound) -> float | None:
    """Relative gap in percent, ``max(0, 100 * (objective - bound) / objective)``:
    0.0 for a proven optimum, else None without a bound or a positive objective."""
    if status == "optimal":
        return 0.0
    if bound is None or objective is None or objective <= 0:
        return None
    return max(0.0, 100.0 * (objective - bound) / objective)


def optimality_gap(result: OptResult) -> float | None:
    return gap_percent(result.status, result.value, result.best_bound)
