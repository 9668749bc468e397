import random
from fractions import Fraction

import pytest

from gen import (
    make_instance,
    random_dag_instance,
    random_psplib_instance,
    random_selection,
    shuffled_ids,
    tail_rows,
)
from robust_rcpsp._graph import arc_graph, leveled_rows, schedule_rows
from robust_rcpsp.adversary import (
    build_adversary_constraint_matrix,
    check_fractional_certificate,
    counterexample_certificate,
    counterexample_instance,
    ghouila_houri_refute,
    refutation_row_subset,
    worst_case_makespan_bruteforce,
    worst_case_makespan_dp,
)
from robust_rcpsp.bnb import solve_exact
from robust_rcpsp.errors import CapExceeded, CyclicGraphError
from robust_rcpsp.heuristics import warm_start
from robust_rcpsp.instance import robustify
from robust_rcpsp.network import Selection

EMPTY = Selection()


def path_certificate(path, delayed) -> dict[str, int]:
    """Integral certificate routing the unit flow along one path, with the
    activities in ``delayed`` delayed."""
    cert = {f"d_{i}": 1 for i in delayed}
    for i, j in zip(path, path[1:]):
        cert[f"a_{i}_{j}"] = 1
        if i in delayed:
            cert[f"w_{i}_{j}"] = 1
    return cert


# ---------------------------------------------------------------------------
# dynamic program


def test_diamond_budget_one_value_three():
    dp = worst_case_makespan_dp(counterexample_instance(), EMPTY, 1)
    assert dp.value == 3
    assert len(dp.delayed) <= 1


def test_budget_zero_is_nominal_critical_path():
    inst = counterexample_instance()
    dp = worst_case_makespan_dp(inst, EMPTY, 0)
    assert dp.value == 2
    assert dp.delayed == frozenset()


def test_diamond_budget_two_value_four():
    inst = counterexample_instance()
    dp = worst_case_makespan_dp(inst, EMPTY, 2)
    assert dp.value == worst_case_makespan_bruteforce(inst, EMPTY, 2) == 4


def test_dp_table_invariants():
    inst = counterexample_instance()
    dp = worst_case_makespan_dp(inst, EMPTY, 2)
    starts = dp.leveled_starts
    assert starts[0][0] == 0
    sink_row = starts[inst.sink]
    assert all(a <= b for a, b in zip(sink_row, sink_row[1:]))
    # rows hold "at most g delays": the source starts at 0 on every level
    assert starts[0][1] == 0


def test_dp_rejects_cyclic_extension():
    inst = counterexample_instance()
    with pytest.raises(CyclicGraphError):
        worst_case_makespan_dp(inst, Selection.from_pairs([(2, 3), (3, 2)]), 1)


def test_dp_matches_bruteforce_randomised():
    rng = random.Random(4242)
    for _ in range(40):
        inst = random_dag_instance(rng, rng.randint(1, 7))
        sel = random_selection(rng, inst)
        for gamma in (0, 1, 2, 3):
            dp = worst_case_makespan_dp(inst, sel, gamma)
            assert dp.value == worst_case_makespan_bruteforce(inst, sel, gamma)
    for _ in range(20):
        inst = robustify(random_psplib_instance(rng, rng.randint(10, 14), 4))
        sel = random_selection(rng, inst, max_arcs=rng.randint(0, 6))
        gamma = rng.randint(0, 3)
        dp = worst_case_makespan_dp(inst, sel, gamma)
        assert dp.value == worst_case_makespan_bruteforce(inst, sel, gamma)


def test_dp_matches_bruteforce_past_the_activity_count():
    """At gamma = n_activities and n_activities + 2 the kernel's rows are
    longer than any path has delays, and zero durations leave ties
    between a predecessor's nominal and delayed terms: every level of the
    sink's row is the delay-subset value at that budget."""
    rng = random.Random(4243)
    for _ in range(30):
        n_act = rng.randint(1, 6)
        inst = random_dag_instance(rng, n_act, max_dur=rng.choice((0, 1, 3)))
        sel = random_selection(rng, inst)
        for gamma in (n_act, n_act + 2):
            row = worst_case_makespan_dp(inst, sel, gamma).leveled_starts[inst.sink]
            assert list(row) == [worst_case_makespan_bruteforce(inst, sel, g, max_budget=gamma)
                                 for g in range(gamma + 1)]


def test_tail_rows_are_the_backward_dp():
    """The source's tail row is the DP value of the empty selection at
    every level, and the sink's row is all zeros; shuffled ids put
    instance arcs from higher to lower ids.  Both read the instance's
    ``order``, and their rows are those of ``leveled_rows`` over a fresh
    topological sort of the arcs."""
    rng = random.Random(29)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 8), n_res=1)
        if rng.random() < 0.5:
            inst = shuffled_ids(rng, inst)
        gamma = rng.randint(0, 4)
        tails = tail_rows(inst, gamma)
        assert tails[0] == [worst_case_makespan_dp(inst, EMPTY, g).value
                            for g in range(gamma + 1)]
        assert tails[inst.sink] == [0] * (gamma + 1)
        order, _, pred, succ = arc_graph(inst.n_nodes, inst.precedence)
        durations = inst.nominal_duration, inst.worst_case_duration
        assert tails == leveled_rows(*durations, gamma, reversed(order), succ)
        rows = worst_case_makespan_dp(inst, EMPTY, gamma).leveled_starts
        assert list(map(list, rows)) == leveled_rows(*durations, gamma, order, pred)


def test_schedule_rows_are_the_kernel_over_the_whole_order():
    """For any ``cut`` with ``cut[q] > q`` over a shuffled order, node
    ``order[q]`` preceding ``order[cut[q]:]`` is a transitive order, and
    the sweep's rows equal ``leveled_rows`` over every pair of it, as
    tuples: with zero durations, at gamma 0 and above the activity count.
    A negative gamma is rejected as the kernel rejects it."""
    rng = random.Random(49)
    for _ in range(300):
        n_nodes = rng.randint(1, 12)
        order = rng.sample(range(n_nodes), n_nodes)
        cut = [rng.randint(q + 1, n_nodes) for q in range(n_nodes)]
        nominal = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n_nodes)]
        delayed = [d + rng.choice((0, 0, 1, 3)) for d in nominal]
        pred = [[] for _ in range(n_nodes)]
        for q, i in enumerate(order):
            for j in order[cut[q]:]:
                pred[j].append(i)
        for gamma in (0, rng.randint(1, 3), n_nodes + 1):
            rows = schedule_rows(nominal, delayed, gamma, order, cut)
            assert all(type(row) is tuple for row in rows)
            assert rows == list(map(tuple, leveled_rows(nominal, delayed, gamma, order, pred)))
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        schedule_rows(nominal, delayed, -1, order, cut)


@pytest.mark.parametrize("entry", [
    lambda inst: worst_case_makespan_dp(inst, EMPTY, -1),
    lambda inst: tail_rows(inst, -1),
    lambda inst: warm_start(inst, -1),
    lambda inst: solve_exact(inst, -1),
], ids=["worst_case_makespan_dp", "tail_rows", "warm_start", "solve_exact"])
def test_a_negative_gamma_is_rejected(entry):
    """Every caller of ``leveled_rows`` rejects a negative budget."""
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        entry(counterexample_instance())


def test_dp_delayed_set_reproduces_value():
    rng = random.Random(31)
    for _ in range(25):
        inst = random_dag_instance(rng, rng.randint(1, 6))
        gamma = rng.randint(0, 3)
        dp = worst_case_makespan_dp(inst, EMPTY, gamma)
        assert len(dp.delayed) <= gamma
        # no vacuous delays: every reported delay lengthens the path
        assert all(inst.max_deviation[i] > 0 for i in dp.delayed)
        cert = path_certificate(dp.path, dp.delayed & set(dp.path))
        check = check_fractional_certificate(inst, EMPTY, gamma, cert)
        assert check.feasible
        assert check.objective == dp.value


def test_gamma_monotone_and_saturates():
    rng = random.Random(8)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 6))
        sel = random_selection(rng, inst)
        values = [worst_case_makespan_dp(inst, sel, g).value for g in range(9)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        # with the budget at the activity count the value is the all-worst path
        worst = worst_case_makespan_bruteforce(
            inst, sel, inst.n_activities,
            max_budget=inst.n_activities,
        )
        assert values[-1] == worst
        assert values[inst.n_activities] == worst


def test_arc_monotonicity():
    rng = random.Random(15)
    for _ in range(25):
        inst = random_dag_instance(rng, rng.randint(2, 6))
        small = random_selection(rng, inst, max_arcs=1)
        grown = random_selection(rng, inst, max_arcs=4)
        merged = small.added_arcs | grown.added_arcs
        try:
            big_value = worst_case_makespan_dp(inst, Selection(frozenset(merged)), 2).value
        except CyclicGraphError:
            continue
        assert big_value >= worst_case_makespan_dp(inst, small, 2).value


def test_bruteforce_caps():
    rng = random.Random(2)
    inst = random_dag_instance(rng, 4)
    with pytest.raises(CapExceeded):
        worst_case_makespan_bruteforce(inst, EMPTY, 4)
    with pytest.raises(CapExceeded):
        worst_case_makespan_bruteforce(inst, EMPTY, 1, max_activities=3)


# ---------------------------------------------------------------------------
# fractional certificates


def test_diamond_fractional_certificate():
    inst = counterexample_instance()
    check = check_fractional_certificate(inst, EMPTY, 1, counterexample_certificate())
    assert check.feasible
    assert check.objective == Fraction(7, 2)


def test_all_zero_certificate_infeasible():
    inst = counterexample_instance()
    check = check_fractional_certificate(inst, EMPTY, 1, {})
    assert not check.feasible
    assert "source: 0 = 1 violated" in check.violations


def test_integral_path_certificate_value_three():
    inst = counterexample_instance()
    cert = path_certificate((0, 1, 2, 4), {2})
    check = check_fractional_certificate(inst, EMPTY, 1, cert)
    assert check.feasible
    assert check.objective == 3


def test_certificate_foreign_arc_rejected():
    # a_0_4 names an arc outside the extended network, z_1 no column at all
    inst = counterexample_instance()
    for label in ("a_0_4", "z_1"):
        with pytest.raises(ValueError, match="outside"):
            check_fractional_certificate(inst, EMPTY, 1, {label: 1})


def test_certificate_budget_violation_detected():
    inst = counterexample_instance()
    cert = counterexample_certificate()
    cert["d_1"] = 1
    check = check_fractional_certificate(inst, EMPTY, 0, cert)
    assert not check.feasible
    assert any("budget" in v for v in check.violations)


def test_cyclic_certificate_raises():
    # the checker evaluates the matrix rows, so a cyclic extension is
    # rejected as in the DP and the matrix builder
    inst = counterexample_instance()
    cyclic = Selection.from_pairs([(3, 2), (2, 3)])
    with pytest.raises(CyclicGraphError):
        check_fractional_certificate(inst, cyclic, 1, counterexample_certificate())


def _diamond_edit(**labels):
    return {**counterexample_certificate(), **labels}


half, quarter = Fraction(1, 2), Fraction(1, 4)


@pytest.mark.parametrize("gamma, cert, violations", [
    # one edit per row group.  Every arc enters two of the flow, source and
    # sink rows, so an edit of alpha that keeps the rest feasible breaks two
    # of them.
    (1, _diamond_edit(a_1_2=Fraction(3, 4)),
     ("flow_1: -1/4 = 0 violated", "flow_2: 1/4 = 0 violated")),
    (1, _diamond_edit(a_0_1=Fraction(3, 4)),
     ("flow_1: -1/4 = 0 violated", "source: 3/4 = 1 violated")),
    (1, _diamond_edit(a_2_4=1),
     ("flow_2: -1/2 = 0 violated", "sink: 3/2 = 1 violated")),
    (1, _diamond_edit(w_2_4=half), ("wle_d_2_4: 1/4 <= 0 violated",)),
    (2, _diamond_edit(d_2=1, w_2_4=Fraction(3, 4)),
     ("wle_a_2_4: 1/4 <= 0 violated",)),
    (0, counterexample_certificate(), ("budget: 1 <= 0 violated",)),
    (3, _diamond_edit(d_4=Fraction(3, 2)), ("dub_4: 3/2 <= 1 violated",)),
    # one edit per column block.  A negative flow must run along a whole
    # path, and w <= alpha then makes its w negative too.
    (1, _diamond_edit(a_1_2=-half, a_1_3=Fraction(3, 2), a_2_4=-half, a_3_4=Fraction(3, 2),
                      w_1_2=-half, w_2_4=-half),
     ("a_1_2=-1/2 negative", "a_2_4=-1/2 negative",
      "w_1_2=-1/2 negative", "w_2_4=-1/2 negative")),
    (1, _diamond_edit(w_0_1=-quarter), ("w_0_1=-1/4 negative",)),
    (1, _diamond_edit(d_4=-quarter), ("d_4=-1/4 negative",)),
], ids=["flow", "source", "sink", "wle_d", "wle_a", "budget", "dub",
        "alpha_negative", "w_negative", "delta_negative"])
def test_each_broken_constraint_is_reported(gamma, cert, violations):
    check = check_fractional_certificate(counterexample_instance(), EMPTY, gamma, cert)
    assert not check.feasible
    assert check.violations == violations


def test_path_certificates_never_beat_dp():
    rng = random.Random(64)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 6))
        gamma = rng.randint(0, 2)
        dp = worst_case_makespan_dp(inst, EMPTY, gamma)
        for _ in range(5):
            sub = rng.sample(sorted(dp.delayed), k=rng.randint(0, len(dp.delayed)))
            cert = path_certificate(dp.path, set(sub) & set(dp.path))
            check = check_fractional_certificate(inst, EMPTY, gamma, cert)
            assert check.feasible
            assert check.objective <= dp.value


# ---------------------------------------------------------------------------
# constraint matrix + total unimodularity


def test_matrix_shape_on_diamond():
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    n_arcs = len(matrix.arcs)
    assert n_arcs == 5  # alpha block spans the five extension arcs
    assert len(matrix.column_labels) == 2 * n_arcs + inst.n_nodes
    assert matrix.column_labels[0] == "a_0_1"
    assert matrix.groups["group1"] == (0, inst.n_nodes)
    g2 = matrix.groups["group2"]
    assert g2[1] - g2[0] == n_arcs
    g4 = matrix.groups["group4"]
    assert g4[1] - g4[0] == 1


def test_matrix_single_arc_groups():
    inst = make_instance([0, 3, 0], [(0, 1), (1, 2)])
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    for group in ("group2", "group3"):
        lo, hi = matrix.groups[group]
        assert hi - lo == 2  # arcs (0,1) and (1,2)


def test_group3_rows_pair_alpha_and_w():
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    lo, hi = matrix.groups["group3"]
    n_arcs = len(matrix.arcs)
    for row in matrix.entries[lo:hi]:
        assert sorted(row[:n_arcs]).count(-1) == 1
        assert sorted(row[n_arcs:2 * n_arcs]).count(1) == 1
        assert all(v == 0 for v in row[2 * n_arcs:])


def test_entries_are_signs():
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 2)
    assert {v for row in matrix.entries for v in row} <= {-1, 0, 1}


def test_refutation_row_subset_needs_an_activity_with_two_out_arcs():
    chain = make_instance([0, 3, 2, 0], [(0, 1), (1, 2), (2, 3)])
    matrix = build_adversary_constraint_matrix(chain, EMPTY, 1)
    with pytest.raises(ValueError, match="no activity with two outgoing arcs"):
        refutation_row_subset(matrix)


def test_ghouila_houri_identity_matrix():
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    verdict = ghouila_houri_refute(identity, rows=(0, 1, 2, 3))
    assert not verdict.refuted
    assert verdict.assignment == (1, 1, 1, 1)


def test_ghouila_houri_single_row():
    verdict = ghouila_houri_refute([[1, -1, 0, 1]], rows=(0,))
    assert not verdict.refuted


def test_ghouila_houri_cap():
    identity = [[0] * 30 for _ in range(30)]
    with pytest.raises(CapExceeded):
        ghouila_houri_refute(identity, rows=tuple(range(26)))


def test_refutation_subset_is_not_tu():
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    rows = refutation_row_subset(matrix)
    assert len(rows) == 5
    labels = [matrix.row_labels[r] for r in rows]
    assert labels == ["flow_1", "wle_d_1_2", "wle_d_1_3", "wle_a_1_2", "wle_a_1_3"]
    verdict = ghouila_houri_refute(matrix.entries, rows)
    assert verdict.refuted
    assert verdict.assignment is None


def test_full_first_rows_admit_a_signing():
    # taking the literal first two rows of groups 2 and 3 (arcs (0,1) and
    # (1,2)) does not refute: the witness needs both out-arcs of node 1
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    g2, g3 = matrix.groups["group2"], matrix.groups["group3"]
    rows = (matrix.row_labels.index("source"), g2[0], g2[0] + 1, g3[0], g3[0] + 1)
    assert not ghouila_houri_refute(matrix.entries, rows).refuted
