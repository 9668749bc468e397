"""Deterministic scheduling heuristics and big-M time windows.

A latest-finish-time priority rule drives a serial schedule-generation
scheme on the nominal durations and the instance's packed resource sums
(``ProjectInstance.resource_fields``), which the forbidden-set kernel
reads too.  An activity of duration d
started at t holds its resources over the buckets
``range(t, t + max(d, 1))``, so a zero-duration activity holds its start
bucket and no activity that would overload a resource together with it
runs across that instant.  Two activities the schedule leaves unordered
then hold a common bucket, so the members of a forbidden set cannot all
be unordered: the implied selection is sufficient.  The warm start
builds the schedule's order once (``network.schedule_order``).  One
sweep over that order (``_graph.schedule_rows``) gives the leveled start
times and the upper bound that seed both the branch-and-bound and the
compact model, with no arcs and no predecessor lists; the order's
covering arcs (``network.covering_arcs``) less the instance arcs, whose
closure is the whole order, give only the selection.
The time windows run no DP: their earliest starts are the level-zero
column of ``leveled_rows`` forward over the instance's ``pred`` at no
delay; their latest finishes, like the LFT priorities, and the critical
path a horizon is checked against come from the instance's
``nominal_tail``, the same kernel run backward once with the instance.
Neither regroups the instance arcs: the LFT schedule releases activities
along the instance's ``succ`` and counts their predecessors from its
``pred``, tuples derived once with the instance.  Its heap holds one int
key per eligible activity, the tail and the id packed together, and its
window scan skips the buckets an earlier try already verified.  The key
list is the one place where the priority rule enters the schedule.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from ._graph import leveled_rows, schedule_rows
from .errors import InvalidHorizonError
from .instance import ProjectInstance
from .network import Selection, covering_arcs, schedule_order


@dataclass(frozen=True)
class TimeWindows:
    """Per-activity earliest starts and latest nominal finishes.

    ``es[j]`` lower-bounds every start of j and ``lf[i]`` upper-bounds every
    nominal finish of i in any leveled solution whose makespan stays within
    ``horizon``.  Both passes run over the instance arcs only, so the
    windows remain valid for every selection the compact model may pick.
    The compact model reads them as per-arc big-Ms and as the bounds
    ``es[i] <= S_i_g <= lf[i] - d_i`` of every start column
    (``milp.build_compact``'s ``tighten``).
    """

    es: tuple[int, ...]
    lf: tuple[int, ...]
    horizon: int


@dataclass(frozen=True)
class WarmStart:
    """LFT selection, its schedule's start times, leveled starts and the
    implied bound.  The selection holds the covering arcs of the
    schedule's order that are no instance arcs, not the order's closure."""

    selection: Selection
    start: tuple[int, ...]
    leveled_starts: tuple[tuple[int, ...], ...]  # [node][level]
    upper_bound: int


def lft_schedule(inst: ProjectInstance) -> tuple[int, ...]:
    """Start times of a serial schedule-generation scheme under the LFT
    priority rule.

    Activities become eligible once all predecessors are scheduled; the
    eligible activity with the smallest latest finish (ties by id) is placed
    at its earliest precedence- and resource-feasible start.  An activity
    joins the heap of eligible ones when its count of unscheduled
    predecessors reaches zero, under one int key,
    ``(tail[0] - tail[v]) * n_nodes + v``: ``tail[0]`` is the largest tail,
    so the key is nonnegative and orders the activities as the tuple
    (latest finish, id) does, and a pop reads the id as ``key % n_nodes``.

    The latest finishes come from ``inst.nominal_tail``, the longest
    nominal path from each finish to the sink, and the successors and
    predecessor counts from ``inst.succ`` and ``inst.pred``.

    A bucket's usage is one int of ``inst.resource_fields``.  A window is
    tested from its last bucket down, and an overloaded bucket moves the
    start past it, as every earlier start holds it too.  The buckets from
    the new start to the old window's end were tested for the same
    requirement against the same profile, so the next scan stops at the
    old end.  No carry crosses a field: a bucket holds at most ``cap[k]``
    in field k and a requirement adds at most ``cap[k]``, and ``w`` leaves
    room for the largest capacity.
    """
    n_nodes = inst.n_nodes
    durations = inst.nominal_duration
    horizon = sum(durations) + durations.count(0) + 1  # sum(max(d, 1)) + 1
    tail = inst.nominal_tail
    top = tail[0]  # the largest tail: the source reaches every finish
    key = [(top - t) * n_nodes + v for v, t in enumerate(tail)]
    succ = inst.succ
    waiting = list(map(len, inst.pred))  # unscheduled predecessors
    packed, high, empty = inst.resource_fields
    profile = [empty] * horizon  # per bucket: empty plus the packed usage
    start = [0] * n_nodes
    earliest = [0] * n_nodes
    ready = [key[0]]

    while ready:
        j = heapq.heappop(ready) % n_nodes
        need = packed[j]
        d = durations[j]
        t = lo = earliest[j]
        u = end = t + (d or 1)  # buckets t..lo-1 and u..end-1 fit
        while u > lo:
            u -= 1
            if (profile[u] + need) & high:
                t = u + 1
                lo = end
                u = end = t + (d or 1)
        for u in range(t, end):
            profile[u] += need
        start[j] = t
        finish = t + d
        for w in succ[j]:
            if finish > earliest[w]:
                earliest[w] = finish
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, key[w])
    return tuple(start)


def warm_start(inst: ProjectInstance, gamma: int) -> WarmStart:
    """LFT schedule -> its order -> adversary DP: leveled starts and bound.

    The selection and the DP both read one ``schedule_order``.  The DP is
    ``_graph.schedule_rows``, the kernel's rows over every pair of the
    order, in one sweep that relaxes each node once.  The selection is the
    order's covering arcs less the instance arcs, which has the order's
    closure; so its DP rows are the sweep's, since an arc a longer path
    implies raises no row when durations are nonnegative.
    """
    start = lft_schedule(inst)
    order, cut = schedule_order(inst, start)
    rows = schedule_rows(inst.nominal_duration, inst.worst_case_duration, gamma, order, cut)
    arcs = frozenset(covering_arcs(order, cut))
    return WarmStart(selection=Selection(arcs.difference(inst.precedence)), start=start,
                     leveled_starts=tuple(rows), upper_bound=rows[inst.sink][gamma])


def time_windows(inst: ProjectInstance, sel: Selection | None, gamma: int,
                 horizon: int) -> TimeWindows:
    """Nominal forward/backward passes over the instance arcs: the
    level-zero column of ``leveled_rows`` over ``inst.order`` and
    ``inst.pred`` at no delay, and the instance's ``nominal_tail``, that
    of the backward run.

    The selection and budget do not enter the passes; windows computed from
    the instance arcs alone are valid bounds for every selection, which is
    what the big-M tightening and the start bounds require.  At the warm
    start's bound as the horizon they keep the optimum; at a horizon below
    the optimum the bounded model is infeasible.  Raises
    InvalidHorizonError when the horizon cannot accommodate even the
    nominal critical path, ``inst.nominal_tail[0]`` (the source has zero
    duration).
    """
    del sel, gamma  # part of the call contract; see docstring
    critical = inst.nominal_tail[0]
    if horizon < critical:
        raise InvalidHorizonError(
            f"horizon {horizon} is below the nominal critical path {critical}"
        )
    rows = leveled_rows(inst.nominal_duration, inst.worst_case_duration, 0, inst.order, inst.pred)
    es = tuple(row[0] for row in rows)
    lf = tuple(horizon - t for t in inst.nominal_tail)
    return TimeWindows(es=es, lf=lf, horizon=horizon)
