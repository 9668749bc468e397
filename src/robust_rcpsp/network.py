"""Precedence-graph algebra: closures, minimal forbidden sets, selections.

A selection is a set of extra precedence arcs resolving resource conflicts.
It is sufficient when the extended graph is acyclic and every minimal
forbidden set contains two activities that became precedence-related.

One depth-first kernel, ``_antichain_search``, lists the minimal forbidden
sets that are antichains of a closure, in lexicographic order, on the
instance's packed resource sums (``ProjectInstance.resource_fields``),
which the LFT schedule shares; a size cap limits a run to the sets of at
most that many members.
``minimal_forbidden_sets`` takes all of the instance's, with no cap: the
catalog, which the CLI's ``forbidden``, ``verify_selection`` and the
tests read.  The searches over selections keep no catalog.

``conflict_finder`` and ``child_closure`` are the one branching routine
of the branch-and-bound and of the exhaustive
``enumerate_sufficient_selections``: the finder gives a node's smallest
unresolved set, ties broken lexicographically, as a function of the
node's closure alone.  It tests an overload as the kernel does, on the
packed resource sums, and looks in three stages: pair masks; once no
pair is left, triple rows; and once no triple is left either, the kernel
under a size cap of 4, 5, ....  Each pair mask and triple row is filled
the first time a scan reaches its activity.  The set is an antichain of
the node's closure, so every ordered pair (i, j) of it is the arc of a
child, with no reach test;
``child_closure`` gives a child's closure, its transpose and the
ancestors of the arc's tail.  Each caller keeps its own ``seen`` set of
closures to merge children that reach one closure: the enumerator checks
it when it visits a child, the branch-and-bound when it pops one.
``verify_selection`` checks a finished selection independently, pair by
pair, against a catalog.  The CLI writes their JSON itself.

``schedule_order`` is the one source of the order a schedule implies,
with its tie rule: the warm start sweeps it for its DP rows
(``_graph.schedule_rows``), and ``covering_arcs`` gives that order's
covering pairs, whose closure is the order, for its selection.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, islice, permutations

from ._graph import arc_graph
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

    Returns ``search(reach, reached_by, cap=...)``, a generator of the
    minimal forbidden sets of at most ``cap`` members that are antichains
    of the closure ``reach`` (with its transpose ``reached_by``), in
    lexicographic order.  Its return value (the ``StopIteration`` value)
    tells whether the cap cut a branch.  ``minimal_forbidden_sets`` takes
    every set of the instance's own closure, with no cap, and
    ``conflict_finder`` the first set of a search node's under a cap of
    4, 5, ... once no pair or triple is left.

    Candidates are the activities with a positive requirement; activity
    ids double as bit positions.  A node of the search is an antichain
    (members added in increasing id order) and an ``allowed`` mask of the
    larger candidates unrelated to every member; it tries them lowest bit
    first, so sets are found in lexicographic order.  Supersets of a
    forbidden set are never explored.

    Resource sums are the ints of the instance's ``resource_fields``,
    tested with ``& high``.  ``positive[i]``, derived here alone, holds the
    overflow bits of the resources i needs.  An overloaded antichain is
    minimal when dropping any member clears every overflow bit; each field
    holds at least that member's requirement, so the subtraction borrows
    nothing.

    The usable-resource cut is exact.  A set that overloads resource k is
    minimal only if every member has a positive requirement on k, since
    dropping a member with none on k leaves k overloaded.  So the search
    carries ``usable``, the overflow bits of the resources on which every
    member is positive, rejects an overload that touches a resource outside
    it, and extends only with candidates positive on some usable resource:
    any other extension leaves no usable resource, and no set below it can
    be minimal.  Both cuts skip only antichains that lead to no minimal
    forbidden set, so the sets are found in the same order as without them.

    The size cap is the one cut that may skip a set: an antichain of
    ``cap`` members that is not overloaded is not extended, and the run
    notes that it cut a branch only when some candidate was left to
    extend it with.  Every prefix of a minimal forbidden set is an
    antichain that is not overloaded, so a run under ``cap`` finds exactly
    the sets of at most ``cap`` members, in lexicographic order.  A run
    that cut no branch explored what a run without the cap would have, so
    when it found nothing the closure resolves every minimal forbidden
    set.  The DFS keeps its levels on int stacks and allocates no
    container per step.
    """
    packed, high, empty = inst.resource_fields
    # ``2**(w-1) - 1`` in every field: a requirement, below ``2**(w-1)``,
    # sets its field's top bit in ``r + fill`` exactly when it is positive.
    fill = high - high // (high & -high or 1)
    positive = [(p + fill) & high for p in packed]
    cands = [i for i in range(1, inst.sink) if positive[i]]
    cand_mask = sum(1 << c for c in cands)

    # ``positive_on[usable]``: the candidates positive on some usable
    # resource, filled by ``usable_candidates`` once per ``usable``.
    positive_on = {}

    def usable_candidates(usable):
        mask = positive_on[usable] = sum(1 << c for c in cands if positive[c] & usable)
        return mask

    def search(reach, reached_by, cap=len(cands)):
        members = []
        # The allowed candidates and usable resources of the levels above.
        allowed_above = []
        usable_above = []
        allowed, total, usable = cand_mask, empty, high
        cut = False
        while True:
            if not allowed:
                if not members:
                    return cut
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
                    if len(members) + 1 >= cap:
                        cut = True
                        continue
                    allowed_above.append(allowed)
                    usable_above.append(usable)
                    members.append(c)
                    allowed, total, usable = child, new_total, new_usable

    return search


def minimal_forbidden_sets(inst: ProjectInstance,
                           max_sets: int = 10**6) -> tuple[tuple[int, ...], ...]:
    """All minimal forbidden sets of the instance, sorted (the catalog).

    One run of the ``_antichain_search`` kernel on the instance's
    ``closure`` and ``ancestors``; a hard cap guards pathological inputs.
    """
    sets = _antichain_search(inst)(inst.closure, inst.ancestors)
    found = tuple(islice(sets, max_sets + 1))
    if len(found) > max_sets:
        raise CapExceeded(f"more than {max_sets} minimal forbidden sets; raise max_sets")
    return found


def conflict_finder(inst: ProjectInstance):
    """The branching rule of every search over selections, for one instance.

    Returns ``first_conflict(closure, ancestors)``: the smallest minimal
    forbidden set that is an antichain of ``closure`` (with its transpose
    ``ancestors``), ties broken lexicographically, or None when the closure
    resolves every minimal forbidden set.  The set depends on the closure
    alone.  The candidates are the activities with a positive requirement,
    in increasing order, as in ``_antichain_search``, and a set overloads a
    resource when ``empty`` plus its members' ``packed`` ints has a bit of
    ``high`` (``inst.resource_fields``), the kernel's own test.  The finder
    looks in three stages, each reached only when the one before finds
    nothing:

    1. *Pair masks.*  Every requirement fits its capacity (the instance
       checks it), so two activities that overload a resource together form
       a minimal forbidden set.  ``later[a]`` is the mask of the candidates
       after ``a`` that overload a resource with it.  A node's first
       unresolved pair is the first ``a`` whose mask has a bit outside
       ``closure[a] | ancestors[a]``, with that bit's lowest ``b``.  The
       masks are filled in candidate order, each the first time a scan
       reaches it: a scan reads the filled masks that are not zero, then
       fills on from where the fill stopped, so it reads no more masks than
       a table of every candidate's would hold.
    2. *Triple rows.*  With no pair left, every pair mask is filled, and a
       set of three is minimal exactly when it overloads a resource and
       none of its pairs does.  Row ``a`` maps each later ``b`` that fits
       with ``a`` to the mask of the candidates ``c > b`` that overload a
       resource with both and are in neither ``later[a]`` nor ``later[b]``;
       a ``b`` whose mask is zero is left out, so the rows hold exactly the
       minimal forbidden sets of three members, whatever their precedence.
       The scan walks the rows in increasing ``a`` and each row in
       increasing ``b``; the first ``(a, b, c)`` with ``b`` and ``c``
       unrelated to ``a``, and ``c`` unrelated to ``b``, is the
       lexicographically smallest unresolved triple.  A row is filled when
       a scan first reaches its ``a``, so a short search pays only for the
       rows it reads.
    3. *The kernel from cap 4.*  With no triple left either, the
       ``_antichain_search`` kernel runs under a size cap of 4, 5, ... and
       the first set it finds is the answer; the first run that finds none
       and cut no branch proves the closure a leaf.

    A solve stopped before its first node (``node_cap=0``) fills no mask
    and builds no kernel.
    """
    packed, high, empty = inst.resource_fields
    cands = [i for i in range(1, inst.sink) if packed[i]]
    later = [0] * inst.n_nodes  # the filled pair masks
    pairs = []  # (a, later[a]) for each filled mask that is not zero
    rows = [None] * len(cands)  # the triple rows filled so far
    filled = 0  # the candidates whose pair masks are filled
    search = None

    def triple_row(idx):
        a = cands[idx]
        row = []
        for at in range(idx + 1, len(cands)):
            b = cands[at]
            if (later[a] >> b) & 1:
                continue
            both = empty + packed[a] + packed[b]
            third = sum(1 << c for c in cands[at + 1:] if (both + packed[c]) & high)
            third &= ~(later[a] | later[b])
            if third:
                row.append((b, third))
        return row

    def first_conflict(closure, ancestors):
        nonlocal filled, search
        for a, conf in pairs:
            free = conf & ~(closure[a] | ancestors[a])
            if free:
                return a, (free & -free).bit_length() - 1
        while filled < len(cands):
            a = cands[filled]
            filled += 1
            alone = empty + packed[a]
            conf = later[a] = sum(1 << b for b in cands[filled:] if (alone + packed[b]) & high)
            if conf:
                pairs.append((a, conf))
                free = conf & ~(closure[a] | ancestors[a])
                if free:
                    return a, (free & -free).bit_length() - 1
        for idx, a in enumerate(cands):
            row = rows[idx]
            if row is None:
                row = rows[idx] = triple_row(idx)
            if row:
                free = ~(closure[a] | ancestors[a])
                for b, third in row:
                    if (free >> b) & 1:
                        third &= free & ~(closure[b] | ancestors[b])
                        if third:
                            return a, b, (third & -third).bit_length() - 1
        if search is None:
            search = _antichain_search(inst)
        for cap in count(4):
            try:
                return next(search(closure, ancestors, cap))
            except StopIteration as done:
                if not done.value:  # the run cut no branch: no set is left
                    return None

    return first_conflict


def verify_selection(inst: ProjectInstance, sel: Selection, catalog) -> SelectionVerdict:
    """Check sufficiency: acyclic extension and every catalog set resolved."""
    arcs = extended_arcs(inst, sel)
    try:
        reach = arc_graph(inst.n_nodes, arcs)[1]
    except CyclicGraphError as exc:
        return SelectionVerdict(sufficient=False, cycle=exc.cycle)
    for fset in catalog:
        if not _resolved(reach, fset):
            return SelectionVerdict(sufficient=False, violated_set=fset)
    return SelectionVerdict(sufficient=True)


def _resolved(reach, fset):
    return any((reach[i] >> j) & 1 for i, j in permutations(fset, 2))


def child_closure(closure, ancestors, i, j):
    """The child of arc (i, j): ``(key, ancestors, above)``, with ``key``
    the extended closure as a tuple, ``ancestors`` its transpose as a tuple
    and ``above`` the mask of ``i`` and its ancestors.  The node's closure
    and transpose are left as they are; ``j`` must not reach ``i``.

    The arc relates every ancestor-or-self of ``i`` to every
    descendant-or-self of ``j``, so only those nodes' masks grow: each in
    ``above`` gains ``below``, the mask of ``j`` and its descendants, and
    each in ``below`` gains ``above``.
    """
    above = ancestors[i] | 1 << i
    below = closure[j] | 1 << j
    child = list(closure)
    mask = above
    while mask:
        low = mask & -mask
        child[low.bit_length() - 1] |= below
        mask ^= low
    child_ancestors = list(ancestors)
    mask = below
    while mask:
        low = mask & -mask
        child_ancestors[low.bit_length() - 1] |= above
        mask ^= low
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

    ``order`` is a stable sort of ``inst.order`` by ``2 * start + (d > 0)``,
    so nodes that tie keep their places in ``inst.order``: the stable sort
    is the tie rank, and no rank list is built.
    """
    dur = inst.nominal_duration
    key = [2 * s + (d > 0) for s, d in zip(start, dur)]
    order = sorted(inst.order, key=key.__getitem__)
    starts = [start[v] for v in order]
    cut = [max(q + 1, bisect_left(starts, start[v] + dur[v])) for q, v in enumerate(order)]
    return order, cut


def covering_arcs(order, cut):
    """The covering pairs of a ``schedule_order``: the (i, j) with i
    before j and no node after i and before j, listed by the position of
    i in ``order``, then by that of j.

    Their closure is the whole order.  Node ``order[q]`` precedes
    ``order[cut[q]:]``, and the successor at position p is covered when
    some successor m has ``cut[m] <= p``, so the covering successors lie
    before the least cut from ``cut[q]`` on: ``least[x] = min(cut[x:])``.
    """
    least = cut + [len(order)]
    for x in reversed(range(len(order))):
        if least[x] > least[x + 1]:
            least[x] = least[x + 1]
    return [(i, j) for i, c in zip(order, cut) for j in order[c:least[c]]]


MAX_NON_DUMMIES = 8  # the most activities enumerate_sufficient_selections searches


def enumerate_sufficient_selections(inst: ProjectInstance):
    """Yield one selection per closure-minimal sufficient extension.

    Exhaustive search for tiny instances: a depth-first search over the
    same children as the branch-and-bound, one per ordered pair of each
    ``conflict_finder`` set, without a bound, then keeps only closures not
    strictly containing another sufficient closure.  A child is built when
    it is visited and skipped when its closure was visited before, so the
    subtrees of earlier siblings are in ``seen`` by then.
    Deterministic order: sorted added-arc tuples.
    """
    if inst.n_activities > MAX_NON_DUMMIES:
        raise CapExceeded(
            f"{inst.n_activities} non-dummy activities exceed the cap of {MAX_NON_DUMMIES}")
    n_nodes = inst.n_nodes
    first_conflict = conflict_finder(inst)
    leaves = {}
    seen = {inst.closure}

    def visit(closure, ancestors, added):
        fset = first_conflict(closure, ancestors)
        if fset is None:
            leaves[closure] = tuple(sorted(added))
            return
        for i, j in permutations(fset, 2):
            key, key_ancestors, _ = child_closure(closure, ancestors, i, j)
            if key not in seen:
                seen.add(key)
                visit(key, key_ancestors, added | {(i, j)})

    visit(inst.closure, inst.ancestors, frozenset())

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
