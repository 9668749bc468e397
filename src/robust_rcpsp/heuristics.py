"""Deterministic scheduling heuristics and big-M time windows.

A latest-finish-time priority rule drives a serial schedule-generation
scheme on the nominal durations.  The resulting schedule yields a feasible
selection whose adversary DP gives the leveled start times and the upper
bound that seed both the branch-and-bound and the compact model.  The
earliest starts of the time windows are the DP's level-zero column.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._graph import predecessors, successors, topological_order
from .adversary import worst_case_makespan_dp
from .errors import InvalidHorizonError
from .instance import ProjectInstance
from .network import Selection, selection_from_schedule


@dataclass(frozen=True)
class Schedule:
    """Start times plus the durations they were computed with."""

    start: tuple[int, ...]
    durations_used: tuple[int, ...]

    @property
    def makespan(self):
        return self.start[-1] + self.durations_used[-1]


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
    """LFT selection, its schedule, leveled starts and the implied bound."""

    selection: Selection
    schedule: Schedule
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


def lft_schedule(inst: ProjectInstance) -> Schedule:
    """Serial schedule-generation scheme under the LFT priority rule.

    Activities become eligible once all predecessors are scheduled; the
    eligible activity with the smallest latest finish (ties by id) is placed
    at its earliest precedence- and resource-feasible start.
    """
    n_nodes = inst.n_nodes
    durations = inst.nominal_duration
    horizon = sum(durations) + 1
    priorities = _latest_finishes(inst, sum(durations))
    pred = predecessors(n_nodes, inst.precedence)
    usage = [[0] * horizon for _ in inst.resource_types]
    start: list[int | None] = [None] * n_nodes
    start[0] = 0
    unscheduled = set(range(1, n_nodes))

    while unscheduled:
        eligible = [j for j in unscheduled if all(start[p] is not None for p in pred[j])]
        j = min(eligible, key=lambda a: (priorities[a], a))
        est = max((start[p] + durations[p] for p in pred[j]), default=0)
        t = est
        while True:
            clash = _first_conflict(inst, usage, j, t)
            if clash is None:
                break
            t = clash + 1
        start[j] = t
        for k in inst.resource_types:
            need = inst.requirement[j][k]
            if need:
                for u in range(t, t + durations[j]):
                    usage[k][u] += need
        unscheduled.discard(j)
    return Schedule(start=tuple(start), durations_used=durations)


def _first_conflict(inst, usage, j, t):
    # Zero-duration activities occupy no bucket, but their requirement must
    # still be handed over at the start instant, so they are placed only
    # where the current bucket leaves enough headroom.
    dur = inst.nominal_duration[j]
    span = range(t, t + dur) if dur else (t,)
    for k in inst.resource_types:
        need = inst.requirement[j][k]
        if not need:
            continue
        for u in span:
            if usage[k][u] + need > inst.capacity[k]:
                return u
    return None


def validate_schedule(inst: ProjectInstance, sched: Schedule) -> None:
    """Raise ValueError unless the schedule is precedence- and
    resource-feasible (checked by a per-time-unit resource profile)."""
    start = sched.start
    dur = sched.durations_used
    if start[0] != 0:
        raise ValueError("dummy source must start at time 0")
    if any(s < 0 for s in start):
        raise ValueError("negative start time")
    for i, j in inst.precedence:
        if start[j] < start[i] + dur[i]:
            raise ValueError(f"precedence ({i}, {j}) violated")
    makespan = sched.makespan
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
    sched = lft_schedule(inst)
    sel = selection_from_schedule(inst, sched.start, sched.durations_used)
    dp = worst_case_makespan_dp(inst, sel, gamma)
    return WarmStart(selection=sel, schedule=sched, leveled_starts=dp.leveled_starts,
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
