import dataclasses
import hashlib
import heapq
import random

import pytest

from gen import (
    closure_relation,
    make_instance,
    pairwise_order,
    random_dag_instance,
    random_psplib_instance,
    shuffled_ids,
    tail_rows,
    validate_schedule,
)
from robust_rcpsp.adversary import counterexample_instance, worst_case_makespan_dp
from robust_rcpsp.bench import build_variant
from robust_rcpsp.bnb import solve_exact
from robust_rcpsp.errors import InvalidHorizonError
from robust_rcpsp.heuristics import (
    lft_schedule,
    time_windows,
    warm_start,
)
from robust_rcpsp.instance import robustify
from robust_rcpsp.milp import check_assignment
from robust_rcpsp.network import Selection, minimal_forbidden_sets, verify_selection


def test_unconstrained_schedule_is_earliest_start():
    inst = make_instance([0, 2, 3, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (5,))
    assert lft_schedule(inst) == (0, 0, 0, 3)


def test_pair_conflict_serializes():
    inst = make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (2,), (2,), (0,)], (2,))
    start = lft_schedule(inst)
    assert sorted(start[1:3]) == [0, 1]
    assert start[inst.sink] == 2
    validate_schedule(inst, start)


@pytest.mark.parametrize("start, message", [
    ((1, 1, 3, 6), "dummy source must start at time 0"),
    ((0, -1, 1, 4), "negative start time"),
    ((0, 0, 2, 2), r"precedence \(2, 3\) violated"),
    ((0, 0, 0, 3), "resource 0 overloaded at time 0: 2"),
], ids=["late_source", "negative_start", "violated_arc", "overloaded_resource"])
def test_validate_schedule_rejects_each_broken_rule(start, message):
    inst = make_instance([0, 2, 3, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (1,))
    validate_schedule(inst, (0, 0, 2, 5))
    with pytest.raises(ValueError, match=message):
        validate_schedule(inst, start)


def test_lft_schedules_are_feasible_and_sufficient():
    rng = random.Random(21)
    cases = [random_dag_instance(rng, rng.randint(1, 8), n_res=rng.randint(1, 3))
             for _ in range(25)]
    # zero-duration activity 3 holds its start bucket, so activity 4, which
    # overloads resource 0 with it, may not straddle it; a schedule with 3
    # at 1 and 4 over [0, 6) leaves {3, 4} unresolved
    cases.append(make_instance(
        (0, 1, 1, 0, 6, 0),
        ((0, 1), (0, 2), (0, 4), (1, 3), (2, 5), (3, 5), (4, 5)),
        ((0, 0, 0), (0, 2, 0), (2, 0, 1), (4, 1, 2), (2, 1, 0), (0, 0, 0)),
        (5, 4, 2)))
    for inst in cases:
        validate_schedule(inst, lft_schedule(inst))
        warm = warm_start(inst, 1)
        catalog = minimal_forbidden_sets(inst)
        assert verify_selection(inst, warm.selection, catalog).sufficient


def test_lft_on_synthetic_psplib_instances():
    rng = random.Random(5)
    for _ in range(3):
        inst = random_psplib_instance(rng)
        validate_schedule(inst, lft_schedule(inst))
        warm = warm_start(inst, 3)
        catalog = minimal_forbidden_sets(inst)
        assert verify_selection(inst, warm.selection, catalog).sufficient


def brute_force_sgs(inst):
    """The LFT serial schedule by its definition: activities are placed in
    the order a heap keyed by (-longest nominal path from the finish to
    the sink, id) releases them once their predecessors are placed, each
    at the least t from its precedence-earliest start at which every
    bucket of ``[t, t + max(d, 1))`` fits every resource beside the
    activities placed before it."""
    dur, req, cap = inst.nominal_duration, inst.requirement, inst.capacity
    n = inst.n_nodes
    succ = [[j for i, j in inst.precedence if i == v] for v in range(n)]
    pred = [[i for i, j in inst.precedence if j == v] for v in range(n)]
    tail = {}

    def to_sink(v):
        if v not in tail:
            tail[v] = max((to_sink(w) + dur[w] for w in succ[v]), default=0)
        return tail[v]

    def holds(i, u):
        return start[i] <= u < start[i] + max(dur[i], 1)

    def fits(j, t):
        return all(req[j][k] + sum(req[i][k] for i in start if holds(i, u)) <= cap[k]
                   for u in range(t, t + max(dur[j], 1)) for k in range(len(cap)))

    start = {}
    ready = [(-to_sink(0), 0)]
    while ready:
        _, j = heapq.heappop(ready)
        t = max((start[i] + dur[i] for i in pred[j]), default=0)
        while not fits(j, t):
            t += 1
        start[j] = t
        for w in succ[j]:
            if all(i in start for i in pred[w]):
                heapq.heappush(ready, (-to_sink(w), w))
    return tuple(start[v] for v in range(n))


def test_lft_schedule_is_the_serial_scheme_by_its_definition():
    # requirements equal to the capacity serialize; zero-duration activity
    # 2 needs all of resource 0, so it waits out activity 1 and then holds
    # bucket 3, which delays activity 3 by a bucket
    cases = [make_instance([0, 3, 2, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                           [(0,), (4,), (4,), (0,)], (4,)),
             make_instance([0, 3, 0, 2, 0], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                           [(0, 0), (2, 1), (2, 0), (1, 1), (0, 0)], (2, 1))]
    assert [lft_schedule(inst) for inst in cases] == [(0, 0, 3, 5), (0, 0, 3, 4, 6)]
    rng = random.Random(29)
    cases += [shuffled_ids(rng, random_dag_instance(rng, rng.randint(0, 10),
                                                    n_res=rng.randint(0, 3),
                                                    max_dur=rng.choice((0, 2))))
              for _ in range(60)]
    cases += [shuffled_ids(rng, random_psplib_instance(rng, n_act, n_res))
              for n_res in range(1, 7) for n_act in (5, 20, 60)]
    for inst in cases:
        assert lft_schedule(inst) == brute_force_sgs(inst)


def test_lft_window_scan_jumps():
    """Hand-made jumps of the window scan, one resource each.

    - Activity 5 (3 periods) meets activity 3 in bucket 1, then activity 4
      in bucket 3, the first bucket past the tested ones: each jump skips
      the buckets an earlier try verified (2, then 4) and starts at 4.
    - Zero-duration activity 2 needs one unit while activity 1 saturates
      buckets 0 and 1: it starts at 2 and holds that bucket, so activity
      3, which fills the resource, may not straddle it and starts at 3.
    - Activities 1 and 2 have equal tails, so the id puts 1 first; 3, the
      largest id, has the largest tail and goes before both.
    """
    jumps = make_instance([0, 1, 3, 1, 1, 3, 10, 0],
                          [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4), (3, 6), (4, 6),
                           (5, 7), (6, 7)],
                          [(0,), (0,), (0,), (1,), (1,), (1,), (0,), (0,)], (1,))
    saturated = make_instance([0, 2, 0, 3, 0],
                              [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                              [(0,), (2,), (1,), (2,), (0,)], (2,))
    tie = make_instance([0, 2, 2, 1, 3, 5, 0],
                        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 6), (5, 6)],
                        [(0,), (1,), (1,), (1,), (0,), (0,), (0,)], (1,))
    assert tie.nominal_tail[1] == tie.nominal_tail[2] < tie.nominal_tail[3]
    cases = [(jumps, (0, 0, 0, 1, 3, 4, 4, 14)),
             (saturated, (0, 0, 2, 3, 6)),
             (tie, (0, 1, 3, 0, 5, 1, 8))]
    for inst, start in cases:
        assert lft_schedule(inst) == start == brute_force_sgs(inst)
        validate_schedule(inst, start)


def test_warm_start_budget_zero_is_deterministic_makespan():
    inst = make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (2,), (2,), (0,)], (2,))
    warm = warm_start(inst, 0)
    assert warm.upper_bound == warm.start[inst.sink] == 2


def test_warm_start_on_diamond():
    # the diamond has no resources, so the warm selection only adds
    # transitive arcs and the bound matches the adversary value 3
    inst = counterexample_instance()
    warm = warm_start(inst, 1)
    assert warm.upper_bound == 3
    assert warm.upper_bound == worst_case_makespan_dp(inst, warm.selection, 1).value


def test_warm_start_bound_equals_dp_of_selection():
    rng = random.Random(90)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 7), n_res=rng.randint(0, 2))
        gamma = rng.randint(0, 3)
        warm = warm_start(inst, gamma)
        assert warm.upper_bound == worst_case_makespan_dp(inst, warm.selection, gamma).value



def test_zero_duration_tie_follows_the_instance_arc():
    # zero-duration activities 1 and 2 start together and the instance
    # orders 2 before 1: the tie goes the instance arc's way, where "smaller
    # id first" added (1, 2) and made the warm selection cyclic
    inst = make_instance([0, 0, 0, 0], [(0, 2), (2, 1), (1, 3)])
    warm = warm_start(inst, 1)
    assert warm.start == (0, 0, 0, 0)
    # the order is the instance's chain 0, 2, 1, 3, all of whose covering
    # arcs are instance arcs
    closure = closure_relation(inst, warm.selection.added_arcs)
    assert closure == pairwise_order(inst, warm.start)
    assert (2, 1) in closure and (1, 2) not in closure
    assert warm.selection.added_arcs == frozenset()
    assert warm.upper_bound == 0
    assert warm.leveled_starts == worst_case_makespan_dp(inst, warm.selection, 1).leveled_starts
    res = solve_exact(inst, 1)
    assert (res.status, res.value) == ("optimal", 0)
    # with resources the two still hold one bucket together, and the warm
    # assignment routes flows along the instance arc
    inst = make_instance([0, 0, 0, 0], [(0, 2), (2, 1), (1, 3)],
                         [(0,), (1,), (2,), (0,)], (3,))
    for variant in ("warm", "warm+trans"):
        model, assignment = build_variant(inst, 1, variant)
        assert check_assignment(model, assignment) == []


def test_warm_table_is_the_dp_table_of_its_selection():
    rng = random.Random(91)
    cases = [(robustify(random_psplib_instance(rng, n_act=rng.randint(5, 20))), rng.randint(0, 7))
             for _ in range(10)]
    cases += [(shuffled_ids(rng, random_dag_instance(rng, rng.randint(1, 8),
                                                     n_res=rng.randint(0, 2),
                                                     max_dur=rng.choice((0, 3, 9)))),
               rng.randint(0, 4))
              for _ in range(40)]
    for inst, gamma in cases:
        warm = warm_start(inst, gamma)
        dp = worst_case_makespan_dp(inst, warm.selection, gamma)
        assert warm.leveled_starts == dp.leveled_starts
        assert warm.upper_bound == dp.value


def test_every_warm_arc_is_covering():
    """The warm selection closes, with the instance arcs, to the pairwise
    order of its schedule, and no node lies between the ends of one of
    its arcs in that closure: it holds exactly the order's covering arcs
    that are no instance arcs."""
    rng = random.Random(92)
    cases = [robustify(random_psplib_instance(rng, n_act=rng.randint(5, 20)))
             for _ in range(10)]
    cases += [shuffled_ids(rng, random_dag_instance(rng, rng.randint(1, 8),
                                                    n_res=rng.randint(0, 2),
                                                    max_dur=rng.choice((0, 3, 9))))
              for _ in range(40)]
    for inst in cases:
        warm = warm_start(inst, 1)
        closure = closure_relation(inst, warm.selection.added_arcs)
        assert closure == pairwise_order(inst, warm.start)
        nodes = range(inst.n_nodes)
        for i, j in warm.selection.added_arcs:
            assert not any((i, k) in closure and (k, j) in closure for k in nodes), (i, j)


# SHA-256 of the warm starts of warm_start_pins(), per family.
PINNED_WARM_SHA256 = {
    "psplib": "8d5348cff56d15d2c15d5a55e544d0f63a1786fc57958a26625e18bcb4239d7e",
    "zero-dag": "557723afc29fee7135fbd6d3a1c4ce4328635bb56ec19467ac8fe3bb8472352f",
}


def warm_start_pins():
    """(family, warm start) over seeded j10/j20/j30-shaped instances and
    zero-duration DAGs, each at gamma 0, 3 and 7."""
    rng = random.Random(2024)
    for n_act in (10, 20, 30):
        for _ in range(3):
            inst = robustify(random_psplib_instance(rng, n_act=n_act))
            for gamma in (0, 3, 7):
                yield "psplib", warm_start(inst, gamma)
    for _ in range(12):
        inst = random_dag_instance(rng, rng.randint(1, 9), n_res=rng.randint(0, 3), max_dur=0)
        for gamma in (0, 3, 7):
            yield "zero-dag", warm_start(inst, gamma)


def test_warm_start_is_pinned():
    records = {family: [] for family in PINNED_WARM_SHA256}
    for family, warm in warm_start_pins():
        records[family].append((warm.start, warm.selection.sorted_arcs(),
                                warm.leveled_starts, warm.upper_bound))
    for family, recs in records.items():
        digest = hashlib.sha256(repr(recs).encode()).hexdigest()
        assert digest == PINNED_WARM_SHA256[family], family


def nominal_tails(inst):
    """Referee: the longest nominal path from each node's finish to the
    sink, by the plain recursion over successors, memoised per node."""
    succ = {v: [j for i, j in inst.precedence if i == v] for v in range(inst.n_nodes)}
    tail = {}

    def of(v):
        if v not in tail:
            tail[v] = max((of(j) + inst.nominal_duration[j] for j in succ[v]), default=0)
        return tail[v]
    return tuple(map(of, range(inst.n_nodes)))


def nominal_tail_cases(rng):
    """Shuffled ids, deviations drawn apart from the durations (a delayed
    tail then orders the activities otherwise than the nominal one) and
    zero durations."""
    cases = [robustify(shuffled_ids(rng, random_psplib_instance(rng, n_act=rng.randint(4, 20))))
             for _ in range(12)]
    for _ in range(12):
        inst = random_psplib_instance(rng, n_act=rng.randint(4, 20))
        deviations = [0] + [rng.randint(0, 12) for _ in range(inst.n_activities)] + [0]
        cases.append(dataclasses.replace(inst, max_deviation=tuple(deviations)))
    cases += [random_dag_instance(rng, rng.randint(1, 9), n_res=2, max_dur=rng.choice((0, 5)))
              for _ in range(8)]
    return cases


def test_the_nominal_tail_is_the_level_zero_column_of_tail_rows():
    """An instance's ``nominal_tail``, which gives the LFT schedule its
    priorities and the time windows their latest finishes and critical
    path, is the plain successor recursion's tails, and the level-zero
    column of the backward pass at every gamma."""
    for inst in nominal_tail_cases(random.Random(31)):
        assert inst.nominal_tail == nominal_tails(inst)
        for gamma in (0, 2, 5):
            assert list(inst.nominal_tail) == [row[0] for row in tail_rows(inst, gamma)]


def reversed_instance(inst):
    """The project with every arc turned around and node v renamed
    ``sink - v``, so the old sink is the new source."""
    sink = inst.sink
    return make_instance(inst.nominal_duration[::-1], [(sink - j, sink - i)
                                                       for i, j in inst.precedence])


def test_time_windows_are_those_of_the_nominal_dp():
    """The windows equal those the adversary DP of the empty selection at
    gamma 0 gives: ``es`` its level-zero column, ``lf`` the horizon less
    the same DP's on the reversed project, and the horizon is refused one
    period below the DP value and accepted at it."""
    rng = random.Random(33)
    for inst in nominal_tail_cases(rng):
        dp = worst_case_makespan_dp(inst, Selection(), 0)
        back = worst_case_makespan_dp(reversed_instance(inst), Selection(), 0)
        horizon = dp.value + rng.choice((0, 0, 1, 6))
        tw = time_windows(inst, None, rng.randint(0, 3), horizon)
        assert tw.es == tuple(row[0] for row in dp.leveled_starts)
        assert tw.lf == tuple(horizon - row[0] for row in back.leveled_starts[::-1])
        assert tw.horizon == horizon
        assert time_windows(inst, None, 0, dp.value).lf[inst.sink] == dp.value
        with pytest.raises(InvalidHorizonError):
            time_windows(inst, None, 0, dp.value - 1)


def test_leveled_starts_satisfy_recursion_bounds():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_dag_instance(rng, rng.randint(1, 6), n_res=1)
        gamma = rng.randint(0, 2)
        warm = warm_start(inst, gamma)
        starts = warm.leveled_starts
        arcs = set(inst.precedence) | warm.selection.added_arcs
        for i, j in arcs:
            for g in range(gamma + 1):
                assert starts[j][g] >= starts[i][g] + inst.nominal_duration[i]
                if g:
                    assert starts[j][g] >= starts[i][g - 1] + inst.worst_case_duration[i]
        sink_row = starts[inst.sink]
        assert all(a <= b for a, b in zip(sink_row, sink_row[1:]))


def test_time_windows_forward_pass_diamond():
    inst = counterexample_instance()
    tw = time_windows(inst, Selection(), 1, horizon=3)
    assert tw.es == (0, 0, 1, 1, 2)
    assert tw.es[0] == 0


def test_time_windows_backward_pass_chain():
    inst = make_instance([0, 1, 0], [(0, 1), (1, 2)], deviations=[0, 1, 0])
    tw = time_windows(inst, Selection(), 1, horizon=2)
    # nominal backward pass: lf bounds the nominal finish of each activity
    assert tw.lf == (1, 2, 2)
    assert tw.horizon == 2


def test_time_windows_invalid_horizon():
    inst = counterexample_instance()
    with pytest.raises(InvalidHorizonError):
        time_windows(inst, Selection(), 1, horizon=1)


def test_window_invariants_along_instance_arcs():
    rng = random.Random(3)
    for _ in range(15):
        inst = random_dag_instance(rng, rng.randint(1, 7), n_res=1)
        warm = warm_start(inst, 2)
        tw = time_windows(inst, warm.selection, 2, warm.upper_bound)
        for i, j in inst.precedence:
            assert tw.es[j] >= tw.es[i] + inst.nominal_duration[i]
            assert tw.lf[i] <= tw.lf[j] - inst.nominal_duration[j]
        assert tw.lf[inst.sink] == tw.horizon


def test_leveled_starts_usable_without_warm_start():
    inst = counterexample_instance()
    starts = worst_case_makespan_dp(inst, Selection(), 1).leveled_starts
    assert starts[0][0] == 0
    assert starts[inst.sink][1] == 3
