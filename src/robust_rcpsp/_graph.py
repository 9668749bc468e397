"""Directed-graph primitives that every other module may import, the
instance module included.

Nodes are integers 0..n-1 and reachability sets are kept as bitmasks.
``arc_graph`` is the one from-scratch derivation of an arc set: its
topological order, its closure and its predecessor and successor lists,
which the instance, the adversary DP and its brute force, the adversary's
constraint matrix, ``verify_selection`` and the MST's arc binaries read.
Its closure is one backward ``reach_bitsets`` pass over successor lists;
forward over predecessor lists the same pass gives the transpose (the
ancestors), each with one OR per arc.  An instance derives both once for
its arcs, and ``network.child_closure`` extends a closure and its
transpose by an arc; nothing transposes a closure bit by bit.

``relax_leveled_rows`` is the one longest-path kernel over leveled states
(node, number of delays so far) and ``leveled_rows`` its one from-scratch
run.  Forward, on predecessor lists in topological order, it gives the
adversary DP, the time windows' earliest starts and the
branch-and-bound's head rows; backward, on successor lists in reversed
order, the instance's ``nominal_tail`` and the branch-and-bound's tail
rows.  ``schedule_rows`` gives the same rows over a transitive order held
as ``(order, cut)``, the form ``network.schedule_order`` returns: one
sweep with the kernel's relaxation once per node and no predecessor
lists, which the warm start's leveled starts and bound read.
"""
from __future__ import annotations

import heapq

from .errors import CyclicGraphError


def successors(n_nodes, arcs):
    succ = [[] for _ in range(n_nodes)]
    for i, j in arcs:
        succ[i].append(j)
    return succ


def predecessors(n_nodes, arcs):
    pred = [[] for _ in range(n_nodes)]
    for i, j in arcs:
        pred[j].append(i)
    return pred


def arc_graph(n_nodes, arcs):
    """``(order, closure, pred, succ)`` of the arcs ``arcs`` over nodes
    0..n_nodes-1: the Kahn topological order, ties broken by smallest id;
    per node the bitmask of the nodes it strictly reaches, from one
    backward ``reach_bitsets`` pass; and the predecessor and successor
    lists, in arc order.  Raises CyclicGraphError with a witness cycle."""
    pred = predecessors(n_nodes, arcs)
    succ = successors(n_nodes, arcs)
    indeg = [len(tails) for tails in pred]
    ready = [v for v in range(n_nodes) if not indeg[v]]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(ready, w)
    if len(order) < n_nodes:
        raise CyclicGraphError(_find_cycle(pred, indeg))
    return order, reach_bitsets(reversed(order), succ), pred, succ


def _find_cycle(pred, indeg):
    # Every node left after Kahn has a predecessor that is also left, so a
    # backward walk must revisit a node; the revisited stretch is a cycle.
    seen = {}
    path = []
    v = min(v for v, d in enumerate(indeg) if d)
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(i for i in pred[v] if indeg[i])
    cycle = path[seen[v]:]
    cycle.reverse()  # report in arc direction
    return cycle


def reach_bitsets(order, adj):
    """Per node, the bitmask of the nodes reachable from it along ``adj``
    by nonempty paths, from one OR pass over ``order``, which must list
    every node after the nodes of its ``adj`` list.  Successor lists in
    reversed topological order give the closure; predecessor lists in
    topological order give its transpose, the ancestors."""
    reach = [0] * len(adj)
    for v in order:
        acc = 0
        for w in adj[v]:
            acc |= reach[w] | (1 << w)
        reach[v] = acc
    return reach


def relax_leveled_rows(rows, order, pred, nominal, delayed):
    """The leveled longest-path kernel: raise each row of the nodes in
    ``order``, in that order, to the max of its old value and every
    predecessor's contribution.

    ``rows[j][g]`` is the longest path from the source to ``j`` with at
    most ``g`` delays:
    W(j, g) = max over i in pred[j] of max(W(i, g) + nominal_i,
    W(i, g-1) + delayed_i), with W(source, .) = 0.  Durations are
    nonnegative and every activity is reachable from the source, so rows
    that start at zero and are only raised hold no unreachable state.

    ``order`` must be topological.  A row that rises is replaced by a
    raised copy and one that does not stays in place, so rows shared with
    other tables are never written.  When each old row is a lower bound
    and each predecessor's row is exact or earlier in ``order``, the
    raised rows are exact: so the branch-and-bound settles its stale rows.

    Run on successor lists, in an order where every node comes after its
    successors, the sink plays the source: ``rows[j][g]`` becomes the
    longest path from the finish of ``j`` to the sink with at most ``g``
    delays.  Every activity reaches the sink, so the same zero start holds
    no unreachable state.

    Each predecessor's row is walked once, level by level, carrying the
    delayed term ``W(i, g-1) + delayed_i`` over from the level before.  At
    level 0 that term is seeded with the nominal one, which it ties, so
    the walk needs no first-level case and reads the row by iteration.
    """
    for j in order:
        old = rows[j]
        new = list(old)
        for i in pred[j]:
            a = nominal[i]
            b = delayed[i]
            row = rows[i]
            y = row[0] + a
            g = 0
            for cur in row:
                x = cur + a
                if y > x:
                    x = y
                if x > new[g]:
                    new[g] = x
                y = cur + b
                g += 1
        if new != old:
            rows[j] = new


def schedule_rows(nominal, delayed, gamma: int, order, cut) -> list[tuple[int, ...]]:
    """The rows of ``leveled_rows`` over every pair of a transitive order,
    in one sweep: node ``order[q]`` precedes exactly ``order[cut[q]:]``,
    with ``cut[q] > q``, as in ``network.schedule_order``.  Rejects a
    negative ``gamma``.

    The predecessors of ``order[p]`` are the ``order[q]`` with ``cut[q] <=
    p``, a set that only grows with ``p``.  So the sweep keeps ``best``,
    the max of the contributions of the nodes released so far, releases
    each node once its cut is reached, with the kernel's own relaxation,
    and reads each row off ``best``: one relaxation per node, none per
    pair or covering arc, and no predecessor lists.  A node at whose
    position no node is released has the predecessors of the node before
    it, and shares its row tuple.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    released = [[] for _ in range(len(order) + 1)]
    for i, c in zip(order, cut):
        released[c].append(i)
    best = [0] * (gamma + 1)
    row = tuple(best)
    rows = [row] * len(nominal)
    for j, due in zip(order, released):
        if due:
            for i in due:
                a = nominal[i]
                b = delayed[i]
                cur_row = rows[i]
                y = cur_row[0] + a
                g = 0
                for cur in cur_row:
                    x = cur + a
                    if y > x:
                        x = y
                    if x > best[g]:
                        best[g] = x
                    y = cur + b
                    g += 1
            row = tuple(best)
        rows[j] = row
    return rows


def leveled_rows(nominal, delayed, gamma: int, order, adj) -> list[list[int]]:
    """``relax_leveled_rows`` from scratch, all rows zero, over a
    topological ``order`` and predecessor lists ``adj`` (or the reverse,
    on successor lists), with one entry per node in the duration vectors
    ``nominal`` and ``delayed``.  Rejects a negative ``gamma``."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    rows = [[0] * (gamma + 1)] * len(nominal)  # one shared row: the kernel copies before it raises
    relax_leveled_rows(rows, order, adj, nominal, delayed)
    return rows
