"""Small directed-graph primitives shared by the instance and network modules.

Nodes are integers 0..n-1 and reachability sets are kept as bitmasks, which
keeps closure updates cheap inside the branch-and-bound search.
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
    indeg = [0] * n_nodes
    succ = successors(n_nodes, arcs)
    for _, j in arcs:
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
    return ordered_closure(n_nodes, arcs)[1]


def ordered_closure(n_nodes, arcs):
    """``(topological_order(n_nodes, arcs), closure_bitsets(n_nodes, arcs))``
    from one sort."""
    order = topological_order(n_nodes, arcs)
    succ = successors(n_nodes, arcs)
    reach = [0] * n_nodes
    for v in reversed(order):
        acc = 0
        for w in succ[v]:
            acc |= reach[w] | (1 << w)
        reach[v] = acc
    return order, reach


def ancestor_bitsets(n_nodes, arcs):
    """Per-node bitmask of the nodes that strictly reach it: the transpose
    of ``closure_bitsets``."""
    return closure_bitsets(n_nodes, [(j, i) for i, j in arcs])


def transpose_bitsets(reach):
    """The transpose of a closure ``reach``: per node, the bitmask of the
    nodes whose mask holds it, from one pass over the set bits."""
    ancestors = [0] * len(reach)
    for v, mask in enumerate(reach):
        bit = 1 << v
        while mask:
            low = mask & -mask
            ancestors[low.bit_length() - 1] |= bit
            mask ^= low
    return ancestors


def add_arc_to_closure(reach, ancestors, u, v):
    """Update a closure and its transpose in place for a new arc (u, v).

    Assumes v does not already reach u, i.e. the extended graph stays
    acyclic.  The arc relates every ancestor-or-self of u to every
    descendant-or-self of v, so only those nodes' masks grow; they are
    read from ``ancestors[u]`` and ``reach[v]``.  Returns the bitmask of u
    and its ancestors.
    """
    above = ancestors[u] | (1 << u)
    below = reach[v] | (1 << v)
    mask = above
    while mask:
        low = mask & -mask
        reach[low.bit_length() - 1] |= below
        mask ^= low
    mask = below
    while mask:
        low = mask & -mask
        ancestors[low.bit_length() - 1] |= above
        mask ^= low
    return above


def reaches(reach, i, j):
    return bool((reach[i] >> j) & 1)
