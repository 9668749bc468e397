import random

import pytest

from gen import make_instance, random_dag_instance, random_psplib_instance
from robust_rcpsp.adversary import counterexample_instance, worst_case_makespan_dp
from robust_rcpsp.errors import InvalidHorizonError
from robust_rcpsp.heuristics import (
    lft_schedule,
    time_windows,
    validate_schedule,
    warm_start,
)
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
                    assert starts[j][g] >= starts[i][g - 1] + inst.worst_case_duration(i)
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
