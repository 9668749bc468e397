"""Deterministic scheduling heuristics and big-M time windows.

A latest-finish-time priority rule drives a serial schedule-generation
scheme on the nominal durations.  An activity of duration d started at t
holds its resources over the buckets ``range(t, t + max(d, 1))``, so a
zero-duration activity holds its start bucket and no activity that would
overload a resource together with it runs across that instant.  Two
activities the schedule leaves unordered then hold a common bucket, so
the members of a forbidden set cannot all be unordered: the implied
selection is sufficient.  Its adversary DP gives the leveled start times
and the upper bound that seed both the branch-and-bound and the compact
model.  The earliest starts of the time windows are the DP's level-zero
column.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._graph import predecessors, successors, topological_order
from .adversary import worst_case_makespan_dp
from .errors import InvalidHorizonError
from .instance import ProjectInstance
from .network import Selection, selection_from_schedule


@dataclass(frozen=True)
class TimeWindows:
    """Per-activity earliest starts and latest nominal finishes.

    ``es[j]`` lower-bounds every start of j and ``lf[i]`` upper-bounds every
    nominal finish of i in any leveled solution whose makespan stays within
    ``horizon``.  Both passes run over the instance arcs only, so the
    windows remain valid for every selection the compact model may pick.
    """

    es: tuple[int, ...]
    lf: tuple[int, ...]
    horizon: int


@dataclass(frozen=True)
class WarmStart:
    """LFT selection, its schedule's start times, leveled starts and the
    implied bound."""

    selection: Selection
    start: tuple[int, ...]
    leveled_starts: tuple[tuple[int, ...], ...]  # [node][level]
    upper_bound: int


def _latest_finishes(inst: ProjectInstance, horizon: int) -> tuple[int, ...]:
    """Latest nominal finishes from a backward pass over the instance arcs."""
    succ = successors(inst.n_nodes, inst.precedence)
    lf = [horizon] * inst.n_nodes
    for v in reversed(topological_order(inst.n_nodes, inst.precedence)):
        if succ[v]:
            lf[v] = min(lf[w] - inst.nominal_duration[w] for w in succ[v])
    return tuple(lf)


def lft_schedule(inst: ProjectInstance) -> tuple[int, ...]:
    """Start times of a serial schedule-generation scheme under the LFT
    priority rule.

    Activities become eligible once all predecessors are scheduled; the
    eligible activity with the smallest latest finish (ties by id) is placed
    at its earliest precedence- and resource-feasible start.
    """
    n_nodes = inst.n_nodes
    durations = inst.nominal_duration
    horizon = sum(max(d, 1) for d in durations) + 1
    priorities = _latest_finishes(inst, sum(durations))
    pred = predecessors(n_nodes, inst.precedence)
    usage = [[0] * horizon for _ in inst.resource_types]
    start: list[int | None] = [None] * n_nodes
    start[0] = 0
    unscheduled = set(range(1, n_nodes))

    while unscheduled:
        eligible = [j for j in unscheduled if all(start[p] is not None for p in pred[j])]
        j = min(eligible, key=lambda a: (priorities[a], a))
        needs = [(k, need) for k, need in enumerate(inst.requirement[j]) if need]
        t = max((start[p] + durations[p] for p in pred[j]), default=0)
        while True:
            span = range(t, t + max(durations[j], 1))
            clash = _first_conflict(inst, usage, needs, span)
            if clash is None:
                break
            t = clash + 1
        start[j] = t
        for k, need in needs:
            for u in span:
                usage[k][u] += need
        unscheduled.discard(j)
    return tuple(start)


def _first_conflict(inst, usage, needs, span):
    # ``span`` is every bucket the activity holds, its start bucket even at
    # zero duration; the first one without headroom for a need is returned.
    for k, need in needs:
        for u in span:
            if usage[k][u] + need > inst.capacity[k]:
                return u
    return None


def validate_schedule(inst: ProjectInstance, start) -> None:
    """Raise ValueError unless the start times are precedence- and
    resource-feasible under the nominal durations (checked by a
    per-time-unit resource profile)."""
    dur = inst.nominal_duration
    if start[0] != 0:
        raise ValueError("dummy source must start at time 0")
    if any(s < 0 for s in start):
        raise ValueError("negative start time")
    for i, j in inst.precedence:
        if start[j] < start[i] + dur[i]:
            raise ValueError(f"precedence ({i}, {j}) violated")
    makespan = start[-1] + dur[-1]
    for k in inst.resource_types:
        profile = [0] * (makespan + 1)
        for i in inst.activities:
            for t in range(start[i], start[i] + dur[i]):
                profile[t] += inst.requirement[i][k]
        for t, load in enumerate(profile):
            if load > inst.capacity[k]:
                raise ValueError(f"resource {k} overloaded at time {t}: {load}")


def warm_start(inst: ProjectInstance, gamma: int) -> WarmStart:
    """LFT schedule -> selection -> adversary DP: leveled starts and bound."""
    start = lft_schedule(inst)
    sel = selection_from_schedule(inst, start)
    dp = worst_case_makespan_dp(inst, sel, gamma)
    return WarmStart(selection=sel, start=start, leveled_starts=dp.leveled_starts,
                     upper_bound=dp.value)


def time_windows(inst: ProjectInstance, sel: Selection | None, gamma: int,
                 horizon: int) -> TimeWindows:
    """Nominal forward/backward passes over the instance arcs.

    The selection and budget do not enter the passes; windows computed from
    the instance arcs alone are valid bounds for every selection, which is
    what the big-M tightening requires.  Raises InvalidHorizonError when the
    horizon cannot accommodate even the nominal critical path.
    """
    del sel, gamma  # part of the call contract; see docstring
    nominal = worst_case_makespan_dp(inst, Selection(), 0)
    if horizon < nominal.value:
        raise InvalidHorizonError(
            f"horizon {horizon} is below the nominal critical path {nominal.value}"
        )
    es = tuple(row[0] for row in nominal.leveled_starts)
    return TimeWindows(es=es, lf=_latest_finishes(inst, horizon), horizon=horizon)
