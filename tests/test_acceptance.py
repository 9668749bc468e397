"""Acceptance suite: one test per acceptance criterion, with the stated
tolerances and time budgets pinned.  Each test prints a PASS line so the
suite doubles as a checklist under ``pytest -v -s``.

The corpus criterion runs over the official j30 files when the environment
variable ``PSPLIB_J30_DIR`` points at them; otherwise it synthesizes 480
files in the same layout, which exercises the identical code paths.
"""
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gen import psplib_text, random_dag_instance, random_psplib_instance, random_selection
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
from robust_rcpsp.heuristics import time_windows, warm_start
from robust_rcpsp.instance import from_json, parse_psplib, robustify, to_json
from robust_rcpsp.milp import (
    build_compact,
    check_assignment,
    solve_external,
    warm_start_assignment,
)
from robust_rcpsp.bench import ResultRecord, performance_profile
from robust_rcpsp.network import Selection, enumerate_sufficient_selections

BRIDGE = f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{time_s}}"
EMPTY = Selection()


def ok(name):
    print(f"[acceptance] {name}: PASS")


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_counterexample_golden():
    inst = counterexample_instance()
    dp = worst_case_makespan_dp(inst, EMPTY, 1)
    assert dp.value == 3
    cert = counterexample_certificate()
    check = check_fractional_certificate(inst, EMPTY, 1, cert)
    assert check.feasible
    assert check.objective == Fraction(7, 2)
    assert isinstance(check.objective, Fraction)
    runtime = best_of(lambda: (
        worst_case_makespan_dp(inst, EMPTY, 1),
        check_fractional_certificate(inst, EMPTY, 1, cert),
    ))
    assert runtime < 1e-3
    ok("counter-example golden values (3 and 7/2, exact)")


def test_unimodularity_refutation():
    inst = counterexample_instance()
    matrix = build_adversary_constraint_matrix(inst, EMPTY, 1)
    rows = refutation_row_subset(matrix)
    assert len(rows) == 5
    verdict = ghouila_houri_refute(matrix.entries, rows)
    assert verdict.refuted and verdict.assignment is None
    runtime = best_of(lambda: ghouila_houri_refute(matrix.entries, rows))
    assert runtime < 1e-3
    ok("total-unimodularity refutation on the five-row subset")


def test_dp_bruteforce_equivalence():
    rng = random.Random(20240824)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        inst = random_dag_instance(rng, rng.randint(1, 8), max_dur=9)
        sel = random_selection(rng, inst) if rng.random() < 0.5 else EMPTY
        for gamma in (0, 1, 2, 3):
            dp = worst_case_makespan_dp(inst, sel, gamma)
            assert dp.value == worst_case_makespan_bruteforce(inst, sel, gamma)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 800
    assert elapsed < 10.0
    ok(f"dynamic program equals delay-subset enumeration on 200 instances "
       f"({elapsed:.2f}s)")


def _oracle_suite():
    rng = random.Random(555)
    suite = []
    while len(suite) < 50:
        inst = random_dag_instance(rng, rng.randint(2, 6), n_res=rng.randint(1, 2))
        suite.append(inst)
    return suite


def test_exact_solver_oracle_equivalence():
    t0 = time.perf_counter()
    solved = []
    for inst in _oracle_suite():
        selections = list(enumerate_sufficient_selections(inst))
        for gamma in (0, 1, 2):
            res = solve_exact(inst, gamma)
            exhaustive = min(worst_case_makespan_dp(inst, sel, gamma).value
                             for sel in selections)
            assert res.status == "optimal"
            assert res.value == exhaustive
            solved.append((inst, gamma, res))
    elapsed = time.perf_counter() - t0
    assert len(solved) == 150
    assert elapsed < 60.0
    ok(f"branch-and-bound equals exhaustive selection enumeration on 50 "
       f"instances ({elapsed:.2f}s)")


def test_budget_zero_reduction():
    rng = random.Random(808)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(2, 6), n_res=rng.randint(1, 2))
        deterministic = min(worst_case_makespan_dp(inst, sel, 0).value
                            for sel in enumerate_sufficient_selections(inst))
        assert solve_exact(inst, 0).value == deterministic
    ok("budget-zero solves reduce to the deterministic optimum")


def test_monotonicity_suite():
    rng = random.Random(4321)
    budget_checks = arc_checks = 0
    for _ in range(60):
        inst = random_dag_instance(rng, rng.randint(1, 7), n_res=rng.randint(0, 2))
        sel = random_selection(rng, inst)
        values = [worst_case_makespan_dp(inst, sel, g).value for g in range(5)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        budget_checks += len(values) - 1
        small = Selection(frozenset(sorted(sel.added_arcs)[:1]))
        for gamma in (0, 1, 2):
            assert (worst_case_makespan_dp(inst, sel, gamma).value
                    >= worst_case_makespan_dp(inst, small, gamma).value)
            arc_checks += 1
    assert budget_checks and arc_checks
    ok(f"monotonicity in the budget ({budget_checks} checks) and under arc "
       f"addition ({arc_checks} checks), zero violations")


def test_warm_start_validity():
    rng = random.Random(99991)
    instances = [random_dag_instance(rng, rng.randint(1, 6), n_res=rng.randint(0, 2))
                 for _ in range(12)]
    for inst in instances:
        for gamma in (0, 1, 2):
            warm = warm_start(inst, gamma)
            exact = solve_exact(inst, gamma)
            assert warm.upper_bound >= exact.value
            windows = time_windows(inst, warm.selection, gamma, warm.upper_bound)
            assignment = warm_start_assignment(inst, gamma, warm)
            for transitivity in (False, True):
                for tighten in (None, windows):
                    model = build_compact(inst, gamma, transitivity=transitivity,
                                          tighten=tighten)
                    assert check_assignment(model, assignment) == []
    ok("warm-start bound dominates the optimum and its assignment satisfies "
       "every row in all four model variants, exactly")


def test_model_size_formulas():
    rng = random.Random(31337)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 6), n_res=rng.randint(0, 3))
        gamma = rng.randint(0, 3)
        model = build_compact(inst, gamma)
        n = inst.n_nodes
        k = len(inst.capacity)
        big_m_rows = sum(1 for c in model.constraints
                         if c.name.startswith(("nom_", "dev_")))
        flow_rows = sum(1 for c in model.constraints
                        if c.name.startswith(("fin_", "fout_")))
        start_vars = sum(1 for v in model.variables if v.name.startswith("S_"))
        assert big_m_rows == (2 * gamma + 1) * n * n
        assert flow_rows == 2 * n * k
        assert start_vars == (gamma + 1) * n
    ok("model-size formulas hold on 20 random builds")


def test_psplib_ingestion():
    corpus_dir = os.environ.get("PSPLIB_J30_DIR")
    if corpus_dir and Path(corpus_dir).is_dir():
        texts = [p.read_text() for p in sorted(Path(corpus_dir).glob("*.sm"))]
        source = f"official corpus at {corpus_dir}"
        assert len(texts) >= 480
    else:
        rng = random.Random(3030)
        texts = []
        for idx in range(480):
            inst = random_psplib_instance(rng)
            texts.append(psplib_text(inst, name=f"J30S{idx}"))
        source = "synthetic corpus (set PSPLIB_J30_DIR for the official files)"
    assert len(texts) >= 480
    for text in texts:
        inst = parse_psplib(text)
        assert inst.nominal_duration[0] == 0 and inst.nominal_duration[-1] == 0
        robust = robustify(inst)
        for i in range(1, robust.sink):
            assert robust.max_deviation[i] == -(-robust.nominal_duration[i] // 2)
        assert from_json(to_json(robust)) == robust
    ok(f"parsed, robustified and round-tripped {len(texts)} files from {source}")


def test_performance_profile_arithmetic():
    times = {("i1", "A"): 1.0, ("i1", "B"): 2.0,
             ("i2", "A"): 2.0, ("i2", "B"): 2.0,
             ("i3", "A"): 4.0, ("i3", "B"): 1.0}
    records = [
        ResultRecord(instance=i, gamma=1, variant=v, status="optimal",
                     objective=1.0, bound=1.0, gap_percent=0.0, time_s=t)
        for (i, v), t in times.items()
    ]
    profile = performance_profile(records, ["A", "B"])
    assert profile.taus == (1.0, 2.0, 4.0)
    assert profile.rho["A"] == pytest.approx((2 / 3, 2 / 3, 1.0))
    assert profile.rho["B"] == pytest.approx((2 / 3, 1.0, 1.0))
    rng = random.Random(12)
    generated = [
        ResultRecord(instance=f"i{i}", gamma=1, variant=v,
                     status="optimal" if rng.random() < 0.7 else "timeout",
                     objective=1.0, bound=None, gap_percent=None,
                     time_s=rng.uniform(0.1, 50.0))
        for i in range(15) for v in ("A", "B", "C")
    ]
    generated_profile = performance_profile(generated, ["A", "B", "C"])
    for series in generated_profile.rho.values():
        assert all(a <= b for a, b in zip(series, series[1:]))
    ok("performance-profile ratios match the hand-computed example and stay "
       "monotone")


def test_cross_solver_equality():
    pytest.importorskip("scipy", reason="bridge criterion needs the reference solver")
    rng = random.Random(246)
    checked = 0
    while checked < 20:
        inst = random_dag_instance(rng, rng.randint(2, 4), n_res=1)
        gamma = rng.randint(0, 2)
        exact = solve_exact(inst, gamma)
        warm = warm_start(inst, gamma)
        assignment = warm_start_assignment(inst, gamma, warm)
        model = build_compact(inst, gamma, integral_starts=True)
        outcome = solve_external(model, assignment, command=BRIDGE, time_limit_s=120)
        assert outcome.status == "optimal"
        assert abs(outcome.objective - exact.value) <= 1e-6
        checked += 1
    # fixed selection: presetting every arc binary realizes the adversary dual
    from test_milp import fix_arcs_to_closure

    for _ in range(5):
        inst = random_dag_instance(rng, rng.randint(1, 4), n_res=1)
        gamma = rng.randint(0, 2)
        warm = warm_start(inst, gamma)
        pinned = fix_arcs_to_closure(build_compact(inst, gamma), inst, warm.selection)
        outcome = solve_external(pinned, command=BRIDGE, time_limit_s=120)
        dp = worst_case_makespan_dp(inst, warm.selection, gamma)
        assert outcome.status == "optimal"
        assert abs(outcome.objective - dp.value) <= 1e-6
    ok("external solver matches the exact solver on 20 instances and the "
       "adversary value under a fixed selection")
