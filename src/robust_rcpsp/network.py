"""Precedence-graph algebra: closures, minimal forbidden sets, selections.

A selection is a set of extra precedence arcs resolving resource conflicts.
It is sufficient when the extended graph is acyclic and every minimal
forbidden set contains two activities that became precedence-related.
The catalog of those sets is the sorted tuple ``minimal_forbidden_sets``
returns; a search refers to a set by its index in it.

``branch`` and ``child_closure`` are the one child step of every search
over selections: the branch-and-bound and the exhaustive
``enumerate_sufficient_selections`` both extend a closure by one ordered
pair of the first unresolved set.  ``branch`` yields the arcs only, and
``child_closure`` builds a child's closure, resolved-set mask and the
ancestors of the arc's tail when the caller needs them.  Each caller keeps its own ``seen`` set of closures to
merge children that reach one closure: the enumerator checks it when it
visits a child, the branch-and-bound when it pops one.
``verify_selection`` checks a finished selection independently, pair by
pair, without the membership masks.  The CLI writes their JSON itself.

``schedule_order`` is the one source of the order a schedule implies,
with its tie rule; the warm start reads both its selection
(``selection_from_order``) and its DP's input from it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations, repeat

from ._graph import add_arc_to_closure, closure_bitsets, reaches, topological_order
from .errors import CapExceeded, CyclicGraphError
from .instance import ProjectInstance


@dataclass(frozen=True)
class Selection:
    """Extra precedence arcs added on top of the instance arcs."""

    added_arcs: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def from_pairs(cls, pairs):
        """The selection of the ``(i, j)`` pairs; raises ``ValueError`` for
        an entry that is not a pair of ints (a bool or 1.5 is not one)."""
        arcs = []
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(x) is int for x in pair)):
                raise ValueError(f"selection entry {pair!r} is not a pair of integers")
            arcs.append(tuple(pair))
        return cls(frozenset(arcs))

    def sorted_arcs(self):
        return tuple(sorted(self.added_arcs))


@dataclass(frozen=True)
class SelectionVerdict:
    sufficient: bool
    violated_set: tuple[int, ...] | None = None
    cycle: tuple[int, ...] | None = None


def extended_arcs(inst: ProjectInstance, sel: Selection) -> tuple[tuple[int, int], ...]:
    """Instance arcs plus selection arcs, validated and sorted.

    Self-loops are kept: they surface as cycles wherever acyclicity is
    checked, which is the verdict verify_selection is meant to deliver.
    """
    base = set(inst.precedence)
    n_nodes = inst.n_nodes
    for i, j in sel.added_arcs:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"selection arc ({i}, {j}) references an unknown activity")
        if (i, j) in base:
            raise ValueError(f"selection arc ({i}, {j}) duplicates an instance arc")
    return tuple(sorted(base | sel.added_arcs))


def minimal_forbidden_sets(inst: ProjectInstance,
                           max_sets: int = 10**6) -> tuple[tuple[int, ...], ...]:
    """All minimal forbidden sets, sorted, by depth-first antichain growth.

    Candidates are the activities with a positive requirement; activity
    ids double as bit positions.  A node of the search is an antichain
    (members added in increasing id order) and an ``allowed`` mask of the
    larger candidates unrelated to every member; it tries them lowest bit
    first.  Supersets of a forbidden set are never explored, and a hard cap
    guards pathological inputs.

    Resource sums are packed into one int with a field of ``w`` bits per
    resource, resource k in bits ``[k*w, (k+1)*w)``.  Field k starts at
    ``2**(w-1) - 1 - cap[k]``, so its top bit (the overflow bit) is set
    exactly when the summed requirement exceeds ``cap[k]``; ``w`` leaves
    room for every requirement sum plus the largest capacity, so no carry
    crosses into the next field.  Adding an activity is one int add and the
    overload test is ``total & high``.  An overloaded antichain is minimal
    when dropping any member clears every overflow bit; each field holds at
    least that member's requirement, so the subtraction borrows nothing.

    The usable-resource cut is exact.  A set that overloads resource k is
    minimal only if every member has a positive requirement on k, since
    dropping a member with none on k leaves k overloaded.  So the search
    carries ``usable``, the overflow bits of the resources on which every
    member is positive, rejects an overload that touches a resource outside
    it, and extends only with candidates positive on some usable resource:
    any other extension leaves no usable resource, and no set below it can
    be minimal.  Both cuts skip only antichains that lead to no minimal
    forbidden set, so the sets are found in the same order as without them.
    """
    req = inst.requirement
    cap = inst.capacity
    k_range = inst.resource_types
    cands = [i for i in range(1, inst.sink) if any(req[i][k] > 0 for k in k_range)]
    if not cands:
        return ()

    reach = closure_bitsets(inst.n_nodes, inst.precedence)
    reached_by = closure_bitsets(inst.n_nodes, [(j, i) for i, j in inst.precedence])
    cand_mask = sum(1 << c for c in cands)
    unrelated = [cand_mask & ~(r | b | (1 << c))
                 for c, (r, b) in enumerate(zip(reach, reached_by))]

    bound = max(sum(row[k] for row in req) for k in k_range) + max(cap)
    w = bound.bit_length() + 1
    top = 1 << (w - 1)
    high = sum(top << (k * w) for k in k_range)
    empty = sum((top - 1 - cap[k]) << (k * w) for k in k_range)
    packed = [sum(r[k] << (k * w) for k in k_range) for r in req]
    positive = [sum(top << (k * w) for k in k_range if r[k] > 0) for r in req]

    positive_on_memo = {}

    def positive_on(usable):
        mask = positive_on_memo.get(usable)
        if mask is None:
            mask = sum(1 << c for c in cands if positive[c] & usable)
            positive_on_memo[usable] = mask
        return mask

    results = []
    members = []

    def grow(allowed, total, usable):
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            c = low.bit_length() - 1
            new_total = total + packed[c]
            new_usable = usable & positive[c]
            over = new_total & high
            if over:
                if over & ~new_usable:
                    continue
                for m in members:
                    if (new_total - packed[m]) & high:
                        break
                else:
                    results.append((*members, c))
                    if len(results) > max_sets:
                        raise CapExceeded(
                            f"more than {max_sets} minimal forbidden sets; raise max_sets"
                        )
            else:
                child = allowed & unrelated[c] & positive_on(new_usable)
                if child:
                    members.append(c)
                    grow(child, new_total, new_usable)
                    members.pop()

    grow(cand_mask, empty, high)
    return tuple(sorted(results))


def verify_selection(inst: ProjectInstance, sel: Selection, catalog) -> SelectionVerdict:
    """Check sufficiency: acyclic extension and every catalog set resolved."""
    arcs = extended_arcs(inst, sel)
    try:
        reach = closure_bitsets(inst.n_nodes, arcs)
    except CyclicGraphError as exc:
        return SelectionVerdict(sufficient=False, cycle=exc.cycle)
    for fset in catalog:
        if not _resolved(reach, fset):
            return SelectionVerdict(sufficient=False, violated_set=fset)
    return SelectionVerdict(sufficient=True)


def _resolved(reach, fset):
    return any(reaches(reach, i, j) for i, j in permutations(fset, 2))


# ---------------------------------------------------------------------------
# Catalog membership masks: the resolution primitive of the search
#
# Sets of catalog indices are kept as int bitmasks.  ``member[a]`` holds the
# indices of the forbidden sets containing activity ``a``, so the sets that
# hold some activity of a node bitmask are the OR of their members' masks.


def membership_masks(n_nodes: int, catalog) -> list[int]:
    """Per activity, the bitmask of catalog indices of the sets holding it.

    Bits are set in one little-endian byte buffer per activity and each
    buffer is converted once, which keeps the build linear in the catalog.
    """
    n_bytes = (len(catalog) + 7) // 8
    buffers = [bytearray(n_bytes) for _ in range(n_nodes)]
    for idx, fset in enumerate(catalog):
        byte, bit = idx >> 3, 1 << (idx & 7)
        for a in fset:
            buffers[a][byte] |= bit
    return [int.from_bytes(buf, "little") for buf in buffers]


def _sets_touching(nodes: int, member) -> int:
    """Catalog indices of the sets that hold some node of the bitmask."""
    acc = 0
    while nodes:
        low = nodes & -nodes
        acc |= member[low.bit_length() - 1]
        nodes ^= low
    return acc


def unresolved_sets(reach, member, n_sets: int) -> int:
    """Bitmask of the catalog sets no precedence-related pair resolves."""
    resolved = 0
    for a, sets in enumerate(member):
        if sets:
            resolved |= sets & _sets_touching(reach[a], member)
    return ((1 << n_sets) - 1) & ~resolved


def first_set(unresolved: int) -> int:
    """Catalog index of the lowest unresolved set; the branching set."""
    return (unresolved & -unresolved).bit_length() - 1


def branch(closure, fset):
    """Arcs of the children of a search node that branches on the
    forbidden set ``fset``.

    Yields every ordered pair (i, j) of ``fset`` with j not reaching i;
    the child is the closure extended by arc (i, j).  No pair of an
    unresolved set is related, so the reach test only guards the
    acyclicity that ``child_closure`` assumes.  Only the arc is yielded:
    a caller builds the child with ``child_closure`` when it needs it, and
    owns the ``seen`` set that merges children reaching one closure.
    """
    for i, j in permutations(fset, 2):
        if not reaches(closure, j, i):
            yield i, j


def child_closure(closure, member, i, j):
    """The child of arc (i, j): ``(key, resolved, above)``, with ``key``
    the extended closure as a tuple, ``resolved`` the catalog sets the arc
    resolves and ``above`` the mask of ``i`` and its ancestors.
    ``closure`` is left as it is; ``j`` must not reach ``i``.

    The arc relates every ancestor-or-self of i to every descendant-or-self
    of j and nothing else.  In an acyclic graph those two node sets are
    disjoint, so a set holding a node of each contains a newly related pair:
    the newly resolved sets are exactly the AND of the two touching masks.
    """
    child = list(closure)
    below = child[j] | (1 << j)
    above = add_arc_to_closure(child, i, j)
    resolved = _sets_touching(above, member) & _sets_touching(below, member)
    return tuple(child), resolved, above


def schedule_order(inst: ProjectInstance, start):
    """The order start times imply under the nominal durations: i before j
    whenever j starts after i ends.

    Returns ``(order, cut)``.  ``order`` lists the nodes by start time,
    zero-duration nodes first, then by tie rank: the position in
    ``topological_order`` of the instance arcs.  Node ``order[q]`` precedes
    exactly the nodes ``order[cut[q]:]``: those after it that start when
    it ends or later.  A pair qualifies both ways only between
    zero-duration nodes starting together; the arc then goes the way of the
    tie rank, which is the way of any instance arc between them.  Every
    related pair goes forward in ``order``, so the order is acyclic, and
    it is transitive.  For start times that respect the instance arcs, it
    holds every instance arc.
    """
    dur = inst.nominal_duration
    n_nodes = inst.n_nodes
    rank = [0] * n_nodes
    for r, v in enumerate(topological_order(n_nodes, inst.precedence)):
        rank[v] = r
    order = sorted(range(n_nodes), key=lambda v: (start[v], dur[v] > 0, rank[v]))
    starts = [start[v] for v in order]
    cut = [max(q + 1, bisect_left(starts, start[v] + dur[v])) for q, v in enumerate(order)]
    return order, cut


def selection_from_order(inst: ProjectInstance, order, cut) -> Selection:
    """Every pair a ``schedule_order`` relates that is not an instance arc."""
    pairs = set()
    for i, c in zip(order, cut):
        pairs.update(zip(repeat(i), order[c:]))
    return Selection(frozenset(pairs.difference(inst.precedence)))


def enumerate_sufficient_selections(inst: ProjectInstance, catalog, max_non_dummies: int = 8):
    """Yield one selection per closure-minimal sufficient extension.

    Exhaustive search for tiny instances: a depth-first search over the
    same ``branch`` children as the branch-and-bound, without a bound, then
    keeps only closures not strictly containing another sufficient closure.
    A child is built when it is visited and skipped when its closure was
    visited before, so the subtrees of earlier siblings are in ``seen`` by
    then.
    Deterministic order: sorted added-arc tuples.
    """
    if inst.n_activities > max_non_dummies:
        raise CapExceeded(
            f"{inst.n_activities} non-dummy activities exceed the cap of {max_non_dummies}"
        )
    n_nodes = inst.n_nodes
    root = tuple(closure_bitsets(n_nodes, inst.precedence))
    member = membership_masks(n_nodes, catalog)
    leaves = {}
    seen = {root}

    def visit(closure, added, unresolved):
        if not unresolved:
            leaves[closure] = tuple(sorted(added))
            return
        fset = catalog[first_set(unresolved)]
        for i, j in branch(closure, fset):
            key, resolved, _ = child_closure(closure, member, i, j)
            if key not in seen:
                seen.add(key)
                visit(key, added | {(i, j)}, unresolved & ~resolved)

    visit(root, frozenset(), unresolved_sets(root, member, len(catalog)))

    # A leaf is kept unless another leaf's closure is a strict subset of its
    # own.  Each closure is packed into one int of n_nodes**2 bits; in order
    # of bit count, only earlier closures can be strict subsets, and o is a
    # subset of rel exactly when rel | o == rel.
    packed = sorted(((sum(row << (i * n_nodes) for i, row in enumerate(key)), arcs)
                     for key, arcs in leaves.items()), key=lambda leaf: leaf[0].bit_count())
    rels = [rel for rel, _ in packed]
    minimal = [arcs for idx, (rel, arcs) in enumerate(packed)
               if rel not in map(rel.__or__, rels[:idx])]
    for arcs in sorted(minimal):
        yield Selection(frozenset(arcs))
