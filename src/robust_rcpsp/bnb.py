"""Self-contained exact solver: branch-and-bound over conflict resolutions.

Search nodes carry a partial selection.  Branching picks the smallest
unresolved minimal forbidden set, ties broken lexicographically, and adds
one ordered precedence pair from it per child; the worst-case makespan of
the partial extension is a valid lower bound because adding arcs never
shortens the adversary's longest path.  The branching routine is the one
the exhaustive ``enumerate_sufficient_selections`` shares:
``network.conflict_finder`` gives a node's branching set, an antichain of
the node's closure, so each of its ordered pairs is the arc of a child,
and ``network.child_closure`` builds a child.

The search builds no catalog of minimal forbidden sets, so everything
after the warm start and the root bound runs under the time limit.  A
node holds its closure (one reachability bitmask per activity) and the
closure's transpose (one ancestor mask per activity), and finds its own
branching set from them alone: its first unresolved conflicting pair,
from per-activity pair masks; when every pair is resolved, its first
unresolved triple, from the instance's triple rows; and only when no
triple is left either, the lexicographically first unresolved set of the
least size, from the kernel under a size cap of 4, 5, ... (see
``conflict_finder``).  The masks and rows test an overload on the packed
resource sums, as the kernel does, and each is filled the first time a
node's scan reaches it, so a search pays only for the ones it reads.  So a
node branches into as few children as its unresolved sets allow: two for
a pair, k(k - 1) for a set of k members.

Every bound is the adversary DP's value, read from two tables of leveled
rows that an expanded node keeps: head rows W (``rows[v][g]``, the longest
path from the source to the start of ``v`` with at most ``g`` delays) and
tail rows T (``tails[v][g]``, from the finish of ``v`` to the sink).  A
longest path of the child with arc (i, j) either avoids the arc, and is no
longer than the node's bound, or uses it once, so ``arc_bound`` gives the
child's exact DP value in O(gamma) from ``W(i, .)`` and ``T(j, .)``.

A child costs only that bound until it is popped.  Open nodes are heap
entries ``(bound, counter, parent, i, j)``, where ``parent = (closure,
ancestors, pred, rows, succ, tails, stale_rows, stale_tails)`` is one
tuple of the expanded node that all its children share.  Expanding a
node bounds each ordered pair of the branching set and pushes the entry;
no closure is built.  On pop the child's closure, its transpose and the
ancestors-or-self of ``i`` come from ``child_closure`` on a copy of the
parent's, and the closure is checked against ``seen``, the closures of
the nodes popped so far:

- A closure already in ``seen`` makes the entry a duplicate.  It is
  dropped and is not a node.
- Otherwise the closure joins ``seen``, the node cap and the time limit
  are checked with this entry's bound as the best open bound, and then the
  bound and leaf checks run.

This is the search that merging children when they are made would give.
A child's bound is the exact DP value of its closure, and both the DP
value and the branching set depend on the closure only, so all entries
with one closure share one bound and one subtree; the first pushed has
the lowest counter and is popped first.  A duplicate of a pruned child is
pruned too, since the incumbent only falls.  So nodes, values, bounds and
selections are those of merging at push time, and a limit exit reports
the best bound of the entries that are not duplicates.

A popped, unpruned node derives its own state from the parent's.  Its
predecessor lists are the parent's plus ``i`` appended to ``j``'s; those
appended after the root's are the node's added arcs.  A node for which
the finder returns no set is a leaf: its selection is read from them and
it needs nothing more.  Any other node appends ``j`` to ``i``'s successor
list and keeps its rows lazily, with two masks in its parent tuple:
``stale_rows`` and ``stale_tails``.  A row outside its mask is exact for
the node.  A stale row is the row of an ancestor node, whose graph has
fewer arcs, so it is a lower bound.

- *Marking.*  The arc (i, j) lengthens only the paths through it, so it
  can raise only the head rows of ``j`` and its descendants,
  ``closure[j] | 1 << j``, and the tail rows of ``i`` and its ancestors,
  ``above``.  The node adds those to its parent's masks.
- *Settling.*  The children's bounds read only ``rows[a]`` and
  ``tails[b]`` for members a and b of the branching set.  So the node
  settles the stale head rows among the members' ancestors-or-self, in
  descending order of their closure masks read as ints, and the stale
  tail rows among their descendants-or-self, in ascending order.  Both
  orders are topological: a node's mask strictly contains each
  descendant's, so it is the larger int.  Each settle is one
  ``_graph.relax_leveled_rows`` run, the one longest-path kernel, over
  every predecessor of each settled row.  It is exact.  Each predecessor
  of a settled row is one of its ancestors, so it is either not stale,
  hence exact, or stale and settled before it; the run raises the row's
  lower bound to the max over those exact predecessor rows, which is the
  exact row.  Settled rows leave the masks, and ``rows`` or ``tails`` is
  copied only when a row is settled: every other row stays shared with
  the parent, and the kernel replaces a row that rises with a copy.

The root is an entry without an arc, made before the search from the
instance's derived tuples: ``closure`` and ``ancestors`` are its closure
and transpose, ``pred`` and ``succ`` its predecessor and successor lists,
and nothing is derived from the arcs again.  Its head rows are
``leveled_rows`` over ``order`` and ``pred``, none stale, and their sink
row at ``gamma`` is its bound.  Its tail rows start as one shared zero row,
all stale, so a solve runs no backward pass before its search: the
root settles the tail rows its children read, and its descendants the
rest as they need them.

A result's ``time_s`` runs from before the warm start until the open
entries and the seen closures have been freed, so it covers the release
of the search as well as the search.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import permutations

from ._collector import collector_paused
from ._graph import leveled_rows, relax_leveled_rows
# The root reads its rows from ``leveled_rows``, not from the DP;
# perfbench's ExactSearch hooks this name by ``getattr``, so a traced root
# bound reads 0 until the hook moves.
from .adversary import worst_case_makespan_dp  # noqa: F401
# perfbench's ExactSearch hooks this name too, and here it is called.
from .heuristics import warm_start
from .instance import ProjectInstance
from .network import Selection, child_closure, conflict_finder
# The search never builds the catalog; perfbench's ExactSearch wraps this
# name to record the solver's catalog, and checks against a fresh one
# when the solver built none.
from .network import minimal_forbidden_sets  # noqa: F401


@dataclass(frozen=True)
class OptResult:
    selection: Selection
    value: int
    status: str  # "optimal" | "incumbent"
    nodes: int
    time_s: float
    best_bound: int


@collector_paused
def solve_exact(inst: ProjectInstance, gamma: int, *,
                time_limit_s: float | None = None,
                node_cap: int | None = None) -> OptResult:
    """Best-first search for the minimum worst-case makespan.

    The incumbent starts from the LFT warm start.  Nodes whose bound
    reaches the incumbent are pruned; when the best open bound reaches the
    incumbent the incumbent is optimal, also when the time limit or the
    node cap stops the search.  The cyclic collector is paused while the
    solve runs (``_collector.collector_paused``): the open entries hold no
    reference cycle, and one full collection over them can span a time
    limit.

    The head and tail rows are settled only where the children's bounds
    read them (see the module docstring).  ``time_s`` counts from before
    the warm start to after the release of the open entries and the
    seen closures.
    """
    t0 = time.perf_counter()
    warm = warm_start(inst, gamma)
    incumbent_value, incumbent_sel = warm.upper_bound, warm.selection

    n_nodes = inst.n_nodes
    first_conflict = conflict_finder(inst)
    nominal = inst.nominal_duration
    delayed = inst.worst_case_duration
    root_pred = inst.pred
    root_rows = leveled_rows(nominal, delayed, gamma, inst.order, root_pred)
    # One shared zero row, every tail row stale: the nodes settle what
    # their children's bounds read.
    root_tails = [[0] * (gamma + 1)] * n_nodes
    # The root's entry has no arc, and its "parent" is its own state.
    heap = [(root_rows[inst.sink][gamma], 0,
             (inst.closure, inst.ancestors, root_pred, root_rows, inst.succ, root_tails,
              0, (1 << n_nodes) - 1),
             None, None)]
    counter = 0
    seen = set()
    nodes_explored = 0

    def result(status, best_bound):
        # The open entries and the seen closures are freed before the
        # clock is read, so that ``time_s`` covers their release.
        heap.clear()
        seen.clear()
        return OptResult(
            selection=incumbent_sel, value=incumbent_value, status=status,
            nodes=nodes_explored, time_s=time.perf_counter() - t0,
            best_bound=best_bound,
        )

    while heap:
        (bound, _, (closure, ancestors, pred, rows, succ, tails, stale_rows, stale_tails),
         i, j) = heappop(heap)
        if i is not None:
            closure, ancestors, above = child_closure(closure, ancestors, i, j)
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
        fset = first_conflict(closure, ancestors)
        if fset is None:
            incumbent_value = bound
            incumbent_sel = Selection(frozenset(
                (a, b) for b in range(n_nodes) for a in pred[b][len(root_pred[b]):]))
            continue
        if i is not None:
            succ = list(succ)
            succ[i] += (j,)
            stale_rows |= closure[j] | 1 << j
            stale_tails |= above
        up = down = 0
        for v in fset:
            up |= ancestors[v] | 1 << v
            down |= closure[v] | 1 << v
        up &= stale_rows
        if up:
            stale_rows ^= up
            order = _bits(up)
            order.sort(key=closure.__getitem__, reverse=True)
            rows = list(rows)
            relax_leveled_rows(rows, order, pred, nominal, delayed)
        down &= stale_tails
        if down:
            stale_tails ^= down
            order = _bits(down)
            order.sort(key=closure.__getitem__)
            tails = list(tails)
            relax_leveled_rows(tails, order, succ, nominal, delayed)
        parent = (closure, ancestors, pred, rows, succ, tails, stale_rows, stale_tails)
        for a, b in permutations(fset, 2):
            child_bound = max(bound, arc_bound(rows[a], tails[b], nominal[a], delayed[a],
                                               nominal[b], delayed[b]))
            if child_bound >= incumbent_value:
                continue
            counter += 1
            heappush(heap, (child_bound, counter, parent, a, b))
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
