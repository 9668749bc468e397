"""Directed-graph primitives that every other module may import, the
instance module included.

Nodes are integers 0..n-1 and reachability sets are kept as bitmasks.
``reach_bitsets`` is the one from-scratch closure pass: backward over
successor lists it gives a closure, forward over predecessor lists its
transpose (the ancestors), each with one OR per arc.  An instance
derives both once for its arcs, and ``network.child_closure`` extends a
closure and its transpose by an arc; nothing transposes a closure bit by
bit.

``relax_leveled_rows`` is the one longest-path kernel over leveled states
(node, number of delays so far) and ``leveled_rows`` its one from-scratch
run.  Forward, on predecessor lists in topological order, it gives the
adversary DP, the warm start's leveled starts, the time windows' earliest
starts and the branch-and-bound's head rows; backward, on successor lists
in reversed order, the instance's ``nominal_tail`` and the
branch-and-bound's tail rows.
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


def topological_order(n_nodes, arcs):
    """Kahn topological sort; raises CyclicGraphError with a witness cycle.

    Ties are broken by smallest node id so the order is deterministic.
    """
    return _kahn_order(successors(n_nodes, arcs))


def _kahn_order(succ):
    """``topological_order`` of the arcs whose successor lists are ``succ``."""
    n_nodes = len(succ)
    indeg = [0] * n_nodes
    for heads in succ:
        for j in heads:
            indeg[j] += 1
    ready = [v for v in range(n_nodes) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) < n_nodes:
        raise CyclicGraphError(_find_cycle(n_nodes, succ, indeg))
    return order


def _find_cycle(n_nodes, succ, indeg):
    # Every node left after Kahn has a predecessor that is also left, so a
    # backward walk must revisit a node; the revisited stretch is a cycle.
    remaining = {v for v in range(n_nodes) if indeg[v] > 0}
    pred_in = {v: [] for v in remaining}
    for v in remaining:
        for w in succ[v]:
            if w in remaining:
                pred_in[w].append(v)
    seen = {}
    path = []
    v = min(remaining)
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(pred_in[v])
    cycle = path[seen[v]:]
    cycle.reverse()  # report in arc direction
    return cycle


def closure_bitsets(n_nodes, arcs):
    """Per-node bitmask of strictly reachable nodes (nonempty paths only)."""
    return ordered_closure(successors(n_nodes, arcs))[1]


def ordered_closure(succ):
    """``(topological_order, closure_bitsets)`` of the arcs whose successor
    lists are ``succ``, from one sort over those lists."""
    order = _kahn_order(succ)
    return order, reach_bitsets(reversed(order), succ)


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


def reaches(reach, i, j):
    return bool((reach[i] >> j) & 1)


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
