"""Precedence-graph algebra: closures, minimal forbidden sets, selections.

A selection is a set of extra precedence arcs resolving resource conflicts.
It is sufficient when the extended graph is acyclic and every minimal
forbidden set contains two activities that became precedence-related.

One depth-first kernel, ``_antichain_search``, lists the minimal forbidden
sets that are antichains of a closure, in lexicographic order.
``minimal_forbidden_sets`` takes all of the instance's: the catalog, which
the CLI's ``forbidden``, ``verify_selection`` and the tests read.  The
searches over selections keep no catalog.

``conflict_finder``, ``branch`` and ``child_closure`` are the one
branching routine of the branch-and-bound and of the exhaustive
``enumerate_sufficient_selections``: the finder gives a node's first
unresolved set (the kernel's first hit after the parent's set), ``branch``
the arcs of its children, and ``child_closure`` a child's closure, its
transpose and the ancestors of the arc's tail.  Each caller keeps its own
``seen`` set of closures to merge children that reach one closure: the
enumerator checks it when it visits a child, the branch-and-bound when it
pops one.
``verify_selection`` checks a finished selection independently, pair by
pair, against a catalog.  The CLI writes their JSON itself.

``schedule_order`` is the one source of the order a schedule implies,
with its tie rule; the warm start reads both its selection
(``selection_from_order``) and its DP's input from it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, permutations, repeat

from ._graph import add_arc_to_closure, closure_bitsets, reaches, transpose_bitsets
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


def _antichain_search(inst: ProjectInstance):
    """The one depth-first kernel over minimal forbidden sets.

    Returns ``search(reach, reached_by, after=())``, a generator of the
    minimal forbidden sets that are antichains of the closure ``reach``
    (with its transpose ``reached_by``) and come after the sorted tuple
    ``after``, in lexicographic order.  ``minimal_forbidden_sets`` takes
    every set of the instance's own closure, and ``conflict_finder`` the
    first set of a search node's.

    Candidates are the activities with a positive requirement; activity
    ids double as bit positions.  A node of the search is an antichain
    (members added in increasing id order) and an ``allowed`` mask of the
    larger candidates unrelated to every member; it tries them lowest bit
    first, so sets are found in lexicographic order.  Supersets of a
    forbidden set are never explored.

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

    A run after ``after`` resumes the search where it left ``after``:
    it walks down ``after``'s members while they extend an antichain that
    is not overloaded and passes the usable cut, and each level it enters
    keeps only the candidates above the member it took.  Lexicographic
    order is the search's order, so what follows is exactly the sets
    after ``after``.  The DFS keeps its levels on int stacks and
    allocates no container per step.
    """
    req = inst.requirement
    cap = inst.capacity
    bound = max(map(sum, zip(*req)), default=0) + max(cap, default=0)
    w = bound.bit_length() + 1
    top = 1 << (w - 1)
    shifts = [k * w for k in inst.resource_types]
    high = sum(top << s for s in shifts)
    empty = sum((top - 1 - c) << s for c, s in zip(cap, shifts))
    packed = []
    positive = []
    for row in req:
        total = on = 0
        for r, s in zip(row, shifts):
            if r:
                total += r << s
                on += top << s
        packed.append(total)
        positive.append(on)
    cands = [i for i in range(1, inst.sink) if positive[i]]
    cand_mask = sum(1 << c for c in cands)

    # ``positive_on[usable]``: the candidates positive on some usable
    # resource, filled by ``usable_candidates`` once per ``usable``.
    positive_on = {}

    def usable_candidates(usable):
        mask = positive_on[usable] = sum(1 << c for c in cands if positive[c] & usable)
        return mask

    def search(reach, reached_by, after=()):
        members = []
        # The allowed candidates and usable resources of the levels above.
        allowed_above = []
        usable_above = []
        allowed, total, usable = cand_mask, empty, high
        for a in after:
            above = allowed & -(2 << a)
            new_total = total + packed[a]
            if not (allowed >> a) & 1 or new_total & high:
                allowed = above
                break
            allowed_above.append(above)
            usable_above.append(usable)
            members.append(a)
            usable &= positive[a]
            allowed = above & ~(reach[a] | reached_by[a]) & (
                positive_on[usable] if usable in positive_on else usable_candidates(usable))
            total = new_total
        while True:
            if not allowed:
                if not members:
                    return
                total -= packed[members.pop()]
                allowed = allowed_above.pop()
                usable = usable_above.pop()
                continue
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
                    yield (*members, c)
            else:
                child = allowed & ~(reach[c] | reached_by[c]) & (
                    positive_on[new_usable] if new_usable in positive_on
                    else usable_candidates(new_usable))
                if child:
                    allowed_above.append(allowed)
                    usable_above.append(usable)
                    members.append(c)
                    allowed, total, usable = child, new_total, new_usable

    return search


def minimal_forbidden_sets(inst: ProjectInstance,
                           max_sets: int = 10**6) -> tuple[tuple[int, ...], ...]:
    """All minimal forbidden sets of the instance, sorted (the catalog).

    One run of the ``_antichain_search`` kernel on the instance's closure;
    a hard cap guards pathological inputs.
    """
    sets = _antichain_search(inst)(inst.closure, transpose_bitsets(inst.closure))
    found = tuple(islice(sets, max_sets + 1))
    if len(found) > max_sets:
        raise CapExceeded(f"more than {max_sets} minimal forbidden sets; raise max_sets")
    return found


def conflict_finder(inst: ProjectInstance):
    """The branching rule of every search over selections, for one instance.

    Returns ``first_conflict(closure, ancestors, after=())``: the
    lexicographically first minimal forbidden set that is an antichain of
    ``closure`` (with its transpose ``ancestors``) and comes after the set
    ``after``, or None when the closure resolves every such set.  It is
    one run of the ``_antichain_search`` kernel that stops at its first
    hit.

    A search node passes its parent's branching set as ``after``.  Every
    set before that one was resolved in the parent, and the arc that made
    the node resolves the set itself, so the first set after it is the
    node's first unresolved set of the whole catalog: the branching set
    the catalog's lowest unresolved index would give, found without the
    catalog.
    """
    search = _antichain_search(inst)

    def first_conflict(closure, ancestors, after=()):
        return next(search(closure, ancestors, after), None)

    return first_conflict


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


def child_closure(closure, ancestors, i, j):
    """The child of arc (i, j): ``(key, ancestors, above)``, with ``key``
    the extended closure as a tuple, ``ancestors`` its transpose as a tuple
    and ``above`` the mask of ``i`` and its ancestors.  The node's tuples
    are left as they are; ``j`` must not reach ``i``.
    """
    child = list(closure)
    child_ancestors = list(ancestors)
    above = add_arc_to_closure(child, child_ancestors, i, j)
    return tuple(child), tuple(child_ancestors), above


def schedule_order(inst: ProjectInstance, start):
    """The order start times imply under the nominal durations: i before j
    whenever j starts after i ends.

    Returns ``(order, cut)``.  ``order`` lists the nodes by start time,
    zero-duration nodes first, then by tie rank: the position in
    ``inst.order``, the topological order of the instance arcs.  Node
    ``order[q]`` precedes exactly the nodes ``order[cut[q]:]``: those after
    it that start when it ends or later.  A pair qualifies both ways only between
    zero-duration nodes starting together; the arc then goes the way of the
    tie rank, which is the way of any instance arc between them.  Every
    related pair goes forward in ``order``, so the order is acyclic, and
    it is transitive.  For start times that respect the instance arcs, it
    holds every instance arc.
    """
    dur = inst.nominal_duration
    n_nodes = inst.n_nodes
    rank = [0] * n_nodes
    for r, v in enumerate(inst.order):
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


def enumerate_sufficient_selections(inst: ProjectInstance, max_non_dummies: int = 8):
    """Yield one selection per closure-minimal sufficient extension.

    Exhaustive search for tiny instances: a depth-first search over the
    same ``branch`` children of the same ``conflict_finder`` sets as the
    branch-and-bound, without a bound, then keeps only closures not
    strictly containing another sufficient closure.  A child is built when
    it is visited and skipped when its closure was visited before, so the
    subtrees of earlier siblings are in ``seen`` by then.
    Deterministic order: sorted added-arc tuples.
    """
    if inst.n_activities > max_non_dummies:
        raise CapExceeded(
            f"{inst.n_activities} non-dummy activities exceed the cap of {max_non_dummies}"
        )
    n_nodes = inst.n_nodes
    first_conflict = conflict_finder(inst)
    root = inst.closure
    leaves = {}
    seen = {root}

    def visit(closure, ancestors, added, after):
        fset = first_conflict(closure, ancestors, after)
        if fset is None:
            leaves[closure] = tuple(sorted(added))
            return
        for i, j in branch(closure, fset):
            key, key_ancestors, _ = child_closure(closure, ancestors, i, j)
            if key not in seen:
                seen.add(key)
                visit(key, key_ancestors, added | {(i, j)}, fset)

    visit(root, tuple(transpose_bitsets(root)), frozenset(), ())

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
