import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import random
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from gen import (
    closure_relation,
    covering_pairs,
    make_instance,
    pair_conflict_instance,
    random_dag_instance,
    random_psplib_instance,
)
from robust_rcpsp import highs_bridge, milp
from robust_rcpsp.adversary import counterexample_instance, worst_case_makespan_dp
from robust_rcpsp.bench import MILP_VARIANTS, build_variant
from robust_rcpsp.bnb import solve_exact
from robust_rcpsp.errors import InvalidHorizonError
from robust_rcpsp.heuristics import TimeWindows, time_windows, warm_start
from robust_rcpsp.instance import parse_psplib, robustify
from robust_rcpsp.milp import (
    LinearConstraint,
    MilpModel,
    Variable,
    arc_name,
    build_compact,
    check_assignment,
    export_lp,
    export_warm_start,
    flow_name,
    read_lp,
    solve_external,
    start_name,
    warm_start_assignment,
)
from robust_rcpsp.network import Selection, extended_arcs

BRIDGE = f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{time_s}}"
DATA = Path(__file__).parent / "data"

pytest.importorskip("scipy", reason="the reference bridge needs scipy")


# ---------------------------------------------------------------------------
# model construction


def test_start_variable_count_diamond():
    inst = counterexample_instance()
    model = build_compact(inst, 1)
    starts = [v for v in model.variables if v.kind != "binary" and v.name.startswith("S_")]
    assert len(starts) == 2 * inst.n_nodes == 10


def test_row_family_counts():
    rng = random.Random(77)
    for _ in range(20):
        inst = random_dag_instance(rng, rng.randint(1, 5), n_res=rng.randint(0, 2))
        gamma = rng.randint(0, 3)
        model = build_compact(inst, gamma)
        n = inst.n_nodes
        k = len(inst.capacity)
        nom = [c for c in model.constraints if c.name.startswith("nom_")]
        dev = [c for c in model.constraints if c.name.startswith("dev_")]
        flow = [c for c in model.constraints if c.name.startswith(("fin_", "fout_"))]
        starts = [v for v in model.variables if v.name.startswith("S_")]
        assert len(nom) == (gamma + 1) * n * n
        assert len(dev) == gamma * n * n
        assert len(nom) + len(dev) == (2 * gamma + 1) * n * n
        assert len(flow) == 2 * n * k
        assert len(starts) == (gamma + 1) * n


def test_fixings_via_bounds():
    inst = pair_conflict_instance()
    model = build_compact(inst, 1)
    bounds = {v.name: (v.lb, v.ub) for v in model.variables}
    for i, j in list(inst.precedence) + [(inst.sink, inst.sink)]:
        assert bounds[arc_name(i, j)] == (1, 1)
    for i in range(inst.n_nodes - 1):
        assert bounds[arc_name(i, i)] == (0, 0)
    assert bounds[start_name(0, 0)] == (0, 0)
    assert model.objective == ((start_name(inst.sink, 1), 1),)


def test_transitivity_row_counts():
    inst = pair_conflict_instance()
    model = build_compact(inst, 0, transitivity=True)
    n = inst.n_nodes
    pairs = [c for c in model.constraints if c.name.startswith("pair_")]
    tris = [c for c in model.constraints if c.name.startswith("tri_")]
    assert len(pairs) == n * n - 1
    assert len(tris) == n ** 3


def test_tighten_requires_valid_horizon():
    """The horizon check's boundary on hand-made windows: a horizon equal
    to the nominal critical path builds, one period less raises."""
    rng = random.Random(34)
    for inst in [counterexample_instance()] + [random_dag_instance(rng, rng.randint(1, 7))
                                               for _ in range(6)]:
        critical = worst_case_makespan_dp(inst, Selection(), 0).value
        assert critical == inst.nominal_tail[0]
        for horizon in (critical, critical + 1):
            windows = TimeWindows(es=(0,) * inst.n_nodes, lf=(horizon,) * inst.n_nodes,
                                  horizon=horizon)
            assert build_compact(inst, 1, tighten=windows).constraints
        with pytest.raises(InvalidHorizonError):
            build_compact(inst, 1, tighten=TimeWindows(es=(0,) * inst.n_nodes,
                                                       lf=(critical - 1,) * inst.n_nodes,
                                                       horizon=critical - 1))


def test_build_compact_rejects_windows_of_another_node_count():
    """Windows were indexed by node id unchecked: the 14-node instance's
    built silently on the 8-node one, and the 8-node instance's raised a
    bare ``IndexError`` on the 14-node one."""
    rng = random.Random(3)
    small, large = (robustify(random_psplib_instance(rng, n_act=n, n_res=2)) for n in (6, 12))
    for inst, other in ((small, large), (large, small)):
        warm = warm_start(other, 3)
        windows = time_windows(other, warm.selection, 3, warm.upper_bound)
        message = (f"windows of length {other.n_nodes} \\(es\\) and {other.n_nodes} \\(lf\\) "
                   f"for an instance of {inst.n_nodes} nodes")
        with pytest.raises(ValueError, match=message):
            build_compact(inst, 3, tighten=windows)


def test_build_compact_rejects_a_negative_gamma():
    """A negative gamma used to build a model with no start column whose
    objective named ``S_<sink>_-1``."""
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        build_compact(counterexample_instance(), -1)


def test_global_big_m_is_total_worst_case_work():
    inst = counterexample_instance()
    assert sum(inst.nominal_duration) + sum(inst.max_deviation) == 6
    row = next(c for c in build_compact(inst, 1).constraints if c.name == "nom_1_2_0")
    assert dict(row.coeffs)[arc_name(1, 2)] == -6


# ---------------------------------------------------------------------------
# warm-start feasibility (all four variant combinations, exact arithmetic)


def variant_models(inst, gamma, windows):
    for transitivity in (False, True):
        for tighten in (None, windows):
            yield build_compact(inst, gamma, transitivity=transitivity, tighten=tighten)


def test_warm_start_assignment_feasible_all_variants():
    rng = random.Random(2025)
    cases = [random_dag_instance(rng, rng.randint(1, 5), n_res=rng.randint(0, 2))
             for _ in range(10)]
    # depth-three chain with deviations: the regression case for per-arc
    # big-M values on level-crossing rows
    cases.append(make_instance([0, 1, 1, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 4)],
                               deviations=[0, 1, 1, 1, 0]))
    # zero-duration activity 2 needs resource 0, which activity 1 takes
    # whole: a warm schedule starting both at 0 starved 2 of flow
    cases.append(make_instance(
        (0, 7, 0, 1, 1, 3, 0),
        ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6)),
        ((0, 0), (4, 0), (1, 2), (3, 1), (1, 4), (1, 3), (0, 0)),
        (4, 4), deviations=(0, 4, 0, 1, 1, 2, 0)))
    for inst in cases:
        for gamma in (0, 1, 2):
            warm = warm_start(inst, gamma)
            windows = time_windows(inst, warm.selection, gamma, warm.upper_bound)
            assignment = warm_start_assignment(inst, gamma, warm)
            for model in variant_models(inst, gamma, windows):
                assert check_assignment(model, assignment) == []


@pytest.mark.parametrize("n_act, gamma, message", [
    (6, 1, r"warm start of 8 nodes with \[4\] levels; expected 8 nodes with 2 levels"),
    (6, 5, r"warm start of 8 nodes with \[4\] levels; expected 8 nodes with 6 levels"),
    (12, 3, r"warm start of 14 nodes with \[4\] levels; expected 8 nodes with 4 levels"),
], ids=["smaller_gamma", "larger_gamma", "larger_instance"])
def test_warm_start_assignment_rejects_a_warm_start_of_another_shape(n_act, gamma, message):
    """A warm start made at gamma 3 used to be assigned silently at
    another gamma: at gamma 1 its starts shifted between nodes and
    violated 39 rows, at gamma 5 the last starts were missing and 149
    rows were violated.  One made for another instance size is also
    rejected by its shape."""
    inst = robustify(random_psplib_instance(random.Random(3), n_act=6, n_res=2))
    source = robustify(random_psplib_instance(random.Random(3), n_act=n_act, n_res=2))
    with pytest.raises(ValueError, match=message):
        warm_start_assignment(inst, gamma, warm_start(source, 3))


def test_check_assignment_compares_solver_floats_within_tol():
    model = MilpModel(
        variables=(Variable("x", "continuous", 0, 5), Variable("b", "binary", 0, 1)),
        constraints=(LinearConstraint("floor", (("x", 1), ("b", 1)), ">=", 2),),
        objective=(("x", 1),),
    )
    assert check_assignment(model, {"x": 1 - 1e-9, "b": 1.0}, tol=1e-6) == []
    assert check_assignment(model, {"x": 1 - 1e-3, "b": 1.0}, tol=1e-6) == [
        "floor: 1.999 >= 2 violated"]
    assert check_assignment(model, {"x": 1.5, "b": 0.5}, tol=1e-6) == ["b=0.5 not integral"]
    # int and Fraction values stay exact under the default zero tolerance
    assert check_assignment(model, {"x": 1, "b": 1}) == []
    assert check_assignment(model, {"x": 1 - Fraction(1, 10**9), "b": 1}) == [
        "floor: 1999999999/1000000000 >= 2 violated"]


def test_check_assignment_names_each_violated_bound_and_row():
    model = MilpModel(
        variables=(Variable("x", "continuous", 1, 5), Variable("n", "integer", 0, 3)),
        constraints=(LinearConstraint("cap", (("x", 1), ("n", 1)), "<=", 6),
                     LinearConstraint("tie", (("x", 1), ("n", -1)), "=", 0)),
        objective=(("x", 1),),
    )
    assert check_assignment(model, {"x": 0, "n": 7}) == [
        "x=0 below lower bound 1", "n=7 above upper bound 3",
        "cap: 7 <= 6 violated", "tie: -7 = 0 violated"]


def test_warm_start_objective_matches_bound():
    inst = pair_conflict_instance()
    warm = warm_start(inst, 1)
    model = build_compact(inst, 1)
    assignment = warm_start_assignment(inst, 1, warm)
    assert assignment[start_name(inst.sink, 1)] == warm.upper_bound


def test_classical_flow_balance_rhs():
    inst = pair_conflict_instance()
    model = build_compact(inst, 0)
    by_name = {c.name: c for c in model.constraints}
    assert by_name["fin_0_0"].rhs == 0
    assert by_name["fout_0_0"].rhs == 2
    assert by_name[f"fin_{inst.sink}_0"].rhs == 2
    assert by_name[f"fout_{inst.sink}_0"].rhs == 0
    assert by_name["fin_1_0"].rhs == 2


# ---------------------------------------------------------------------------
# LP export / import


def test_lp_objective_line():
    inst = counterexample_instance()
    model = build_compact(inst, 1)
    text = export_lp(model)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: S_4_1"


def test_lp_bounds_contain_fixings():
    inst = counterexample_instance()
    text = export_lp(build_compact(inst, 1))
    assert " y_0_1 = 1" in text.splitlines()
    assert " S_0_0 = 0" in text.splitlines()


def model_view(model):
    """The model as a reader of its LP text sees it: rows by name as
    (nonzero (column, coefficient) pairs, lower, upper), columns by name as
    (integral, lower, upper) and the nonzero objective costs, all floats."""
    rows = {}
    for c in model.constraints:
        rhs = float(c.rhs)
        lo, hi = {"<=": (-math.inf, rhs), ">=": (rhs, math.inf), "=": (rhs, rhs)}[c.sense]
        rows[c.name] = (frozenset((n, float(v)) for n, v in c.coeffs if v != 0), lo, hi)
    cols = {v.name: (v.kind != "continuous", float(v.lb),
                     math.inf if v.ub is None else float(v.ub))
            for v in model.variables}
    costs = {n: float(v) for n, v in model.objective if v != 0}
    return rows, cols, costs


def highs_view(highs):
    """model_view of the model a HiGHS solver holds.  Each vector of the LP
    is read once: every attribute access copies it out of HiGHS."""
    lp = highs.getLp()
    assert lp.sense_.name == "kMinimize" and lp.offset_ == 0
    a = lp.a_matrix_
    assert a.format_.name == "kColwise"
    names = list(lp.col_names_)
    start, index, value = list(a.start_), list(a.index_), list(a.value_)
    terms = [set() for _ in range(lp.num_row_)]
    for col, name in enumerate(names):
        for k in range(start[col], start[col + 1]):
            terms[index[k]].add((name, float(value[k])))
    rows = {name: (frozenset(t), float(lo), float(hi)) for name, t, lo, hi
            in zip(lp.row_names_, terms, lp.row_lower_, lp.row_upper_)}
    assert len(rows) == lp.num_row_ == highs.getNumRow()
    integral = [kind.name == "kInteger" for kind in lp.integrality_]
    cols = {name: (i, float(lo), float(hi)) for name, i, lo, hi
            in zip(names, integral, lp.col_lower_, lp.col_upper_)}
    assert len(cols) == len(names)
    costs = {n: float(c) for n, c in zip(names, lp.col_cost_) if c != 0}
    return rows, cols, costs


def assert_read_back(model, text):
    """read_lp (HiGHS's reader) gives back the model, name by name.  Column
    order is not compared: HiGHS numbers columns by first appearance."""
    highs = read_lp(text)
    assert highs_view(highs) == model_view(model)
    assert highs.getNumNz() == sum(1 for c in model.constraints for _, v in c.coeffs if v != 0)


def test_lp_round_trip_reproduces_matrix():
    rng = random.Random(31)
    models = [build_compact(pair_conflict_instance(), 1, transitivity=True,
                            integral_starts=True)]
    for _ in range(6):
        inst = random_dag_instance(rng, rng.randint(1, 4), n_res=rng.randint(0, 2))
        models.append(build_compact(inst, rng.randint(0, 2),
                                    transitivity=rng.random() < 0.5,
                                    integral_starts=rng.random() < 0.5))
    for model in models:
        assert_read_back(model, export_lp(model))


# SHA-256 of the LP text of every bench variant (``bench.build_variant``:
# integral starts, and for the warm variants the warm_start/time_windows
# tighten), recorded with the frozen-dataclass rows that preceded the
# NamedTuple rows and the name tables of build_compact.
PINNED_LP_SHA256 = {
    ("psplib12", "basic"): "ed51bb4e70b45fd9d73f14309749e2a069dd5c3d59fdf983ec60e39c327ca27c",
    ("psplib12", "trans"): "cd468a89e9c0ff5bcbf826c6dafbcb6a4eef45b566cf130a6be96488f70ded93",
    ("psplib12", "warm"): "981751fb8f6924edfb0a7f4f2ad97622e67a34ca739d180a2b2e1b626c599ceb",
    ("psplib12", "warm+trans"): "6816f8af8175f37ff61ef3d0706b353aedefc7e0b170f93b854a3207223b76cb",
    ("diamond", "basic"): "653ec617a46c5c7dfbd8a8c5e2e8932566847d9ddf9f28dbfb5dc05dcfd97f18",
    ("diamond", "trans"): "6dfef9f176c91a1331fb22fec3ebfbaad55e42a324f9755030cbdf563e232a69",
    ("diamond", "warm"): "3095017dba69ff909e4ff94bbcd2b1c22a79942663c485feae2db9840d9ce8c1",
    ("diamond", "warm+trans"): "d926dd13a8dc99ddb32d49c74dcd76bef1caa8f8821fe19466308867bf48a380",
}


def pinned_lp_models():
    """(label, variant, model, warm assignment or None) of every entry of
    PINNED_LP_SHA256."""
    cases = {
        "psplib12": (robustify(random_psplib_instance(random.Random(6), n_act=12, n_res=4)), 3),
        "diamond": (counterexample_instance(), 1),
    }
    for label, (inst, gamma) in cases.items():
        for variant in MILP_VARIANTS:
            yield (label, variant) + build_variant(inst, gamma, variant)


def test_lp_text_is_pinned():
    for label, variant, model, _ in pinned_lp_models():
        digest = hashlib.sha256(export_lp(model).encode()).hexdigest()
        assert digest == PINNED_LP_SHA256[label, variant], (label, variant)


def test_highs_reads_the_pinned_lp_texts_like_read_lp():
    """The bridge hands the LP file to HiGHS's reader, which read_lp runs:
    it must see the in-memory model of every pinned text."""
    for _, _, model, _ in pinned_lp_models():
        assert_read_back(model, export_lp(model))


def test_bench_variants_hold_ints_only():
    """The LP and MST writers write ints only: every coefficient,
    right-hand side, bound and warm value of a bench variant is an int."""
    def is_int(x):
        return type(x) is int

    for label, variant, model, assignment in pinned_lp_models():
        numbers = [c for _, c in model.objective]
        numbers += [c for row in model.constraints for _, c in row.coeffs]
        numbers += [row.rhs for row in model.constraints]
        numbers += [v.lb for v in model.variables]
        numbers += [v.ub for v in model.variables if v.ub is not None]
        assert all(map(is_int, numbers)), (label, variant)
        assert (assignment is None) == (variant in ("basic", "trans"))
        if assignment is not None:
            assert all(map(is_int, assignment.values())), (label, variant)


def test_rows_and_columns_are_immutable_named_records():
    v = Variable(name="z", kind="binary")
    assert v == Variable("z", "binary", 0, None)
    assert (v.lb, v.ub) == (0, None)
    row = LinearConstraint(name="r", coeffs=(("z", 1),), sense="<=", rhs=1)
    assert row.coeffs == (("z", 1),)
    assert len({v, Variable("z", "binary")}) == 1
    with pytest.raises(AttributeError):
        v.lb = 1
    with pytest.raises(AttributeError):
        row.rhs = 2


def test_a_model_is_frozen_and_a_copy_holds_no_blocks():
    """A copy made by ``dataclasses.replace`` holds no blocks, so it is
    written from its own rows."""
    model = trans_model(6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.constraints = model.constraints[:-1]
    copy = dataclasses.replace(model, constraints=model.constraints[:-1])
    assert len(model.blocks) == 3 and copy.blocks == ()
    last = model.constraints[-1]
    line = f" {last.name}: {milp._render_terms(last.coeffs)} <= 1\n"
    text = export_lp(model)
    assert line in text
    assert export_lp(copy) == text.replace(line, "")


def test_mst_lines():
    model = MilpModel(
        variables=(Variable("S_0_0", "continuous", 0, 0), Variable("y_0_1", "binary", 1, 1)),
        constraints=(),
        objective=(("S_0_0", 1),),
    )
    text = export_warm_start({"y_0_1": 1, "S_0_0": 0}, model)
    assert text.splitlines() == ["S_0_0 0", "y_0_1 1"]


# ---------------------------------------------------------------------------
# the block cache: leveled, selection and transitivity rows shared by models


BUILDERS = (milp._leveled_block, milp._selection_block, milp._transitivity_block)
FRAMES = (milp._leveled_frame, milp._selection_frame)


def clear_blocks():
    """Empty every block's and every frame's cache."""
    for build in BUILDERS + FRAMES:
        build.cache_clear()


def trans_model(n_nodes, seed=None):
    inst = random_dag_instance(random.Random(n_nodes if seed is None else seed), n_nodes - 2,
                               n_res=1)
    return build_compact(inst, 1, transitivity=True)


def is_shared(rows, other):
    return len(rows) == len(other) and all(a is b for a, b in zip(rows, other))


def per_row_text(model):
    """The model's text from a copy that holds no blocks: every row
    rendered one by one."""
    return export_lp(dataclasses.replace(model))


RENDER_ROWS = milp._render_rows


def rows_text(block):
    """The referee of a block's text: its rows rendered one by one, an
    empty row naming the block's first column."""
    lines = []
    RENDER_ROWS(lines, block.rows, block.columns[0].name if block.columns else None)
    return "\n".join(lines)


def collector_state():
    return gc.isenabled(), gc.get_threshold()


def builds():
    """How many blocks each builder has made so far."""
    return [build.cache_info().misses for build in BUILDERS]


@pytest.fixture
def rendered(monkeypatch):
    """The row count of every ``_render_rows`` call, in order, starting
    with no block cached.  Only a model without blocks calls it."""
    clear_blocks()
    calls = []

    def spy(out, rows, first):
        calls.append(len(rows))
        return RENDER_ROWS(out, rows, first)

    monkeypatch.setattr(milp, "_render_rows", spy)
    return calls


def test_cached_block_text_equals_the_per_row_text(rendered):
    """n = 14, 6, 14: the second 14 finds the cache evicted and builds its
    blocks anew.  Each block's text is written once, by the build that
    makes the block: a second build of the same model makes no block and
    hands back the same blocks, and no export renders a row of a block.  A
    copy of each model with newly constructed rows holds no blocks and
    renders every row."""
    seen = []
    for n_nodes in (14, 6, 14):
        made = builds()
        model = trans_model(n_nodes)
        assert builds() == [n + 1 for n in made]
        blocks = model.blocks
        assert blocks[-1] is milp._transitivity_block(n_nodes)
        assert [block.text for block in blocks] == [rows_text(block) for block in blocks]
        assert is_shared(model.constraints, sum((block.rows for block in blocks), ()))
        assert is_shared(model.variables, blocks[0].columns + blocks[1].columns)
        assert all(block is not old for block in blocks for old in seen)
        seen += blocks
        again = trans_model(n_nodes)
        assert builds() == [n + 1 for n in made]
        assert all(a is b for a, b in zip(again.blocks, blocks))
        text = export_lp(model)
        assert export_lp(again) == export_lp(model) == text
        assert rendered == []
        fresh = MilpModel(model.variables, tuple(LinearConstraint(*r) for r in model.constraints),
                          model.objective)
        assert fresh == model and fresh.blocks == ()
        assert export_lp(fresh) == text
        assert rendered == [len(model.constraints)]
        rendered.clear()


def test_a_model_that_differs_from_the_block_is_written_from_its_own_rows(rendered):
    model = trans_model(8)
    text = export_lp(model)  # joins the blocks' text
    rows = model.constraints
    k = next(k for k, r in enumerate(rows) if r.name == "tri_1_2_3")
    line = f" tri_1_2_3: {milp._render_terms(rows[k].coeffs)} <= "
    assert line + "1\n" in text
    replaced = rows[:k] + (rows[k]._replace(rhs=2),) + rows[k + 1:]
    last = f" {rows[-1].name}: {milp._render_terms(rows[-1].coeffs)} <= 1\n"
    assert last + "Bounds\n" in text
    expected = {replaced: text.replace(line + "1\n", line + "2\n"),
                rows[:-1]: text.replace(last, "")}
    for constraints, want in expected.items():
        rendered.clear()
        assert export_lp(MilpModel(model.variables, constraints, model.objective)) == want
        assert rendered == [len(constraints)]
    assert export_lp(model) == text


def test_a_model_keeps_its_blocks_text_after_another_build_evicts_them(rendered):
    """A, then B of the same size with other durations and requirements:
    B's build evicts A's leveled and selection blocks from the cache, but
    A holds them and their text, so no export of A renders a row."""
    inst = robustify(random_psplib_instance(random.Random(6), n_act=8, n_res=2))
    durations = list(inst.nominal_duration)
    durations[1] += 1
    requirement = list(inst.requirement)
    requirement[2] = tuple(r - 1 if r else 1 for r in requirement[2])
    b = dataclasses.replace(inst, nominal_duration=durations, requirement=requirement)
    a_model = build_compact(inst, 2, transitivity=True)
    b_model = build_compact(b, 2, transitivity=True)
    assert not any(x is y for x, y in zip(a_model.blocks[:2], b_model.blocks[:2]))
    assert a_model.blocks[2] is b_model.blocks[2]
    export_lp(b_model)
    text = export_lp(a_model)
    assert export_lp(a_model) == text
    assert rendered == []
    assert text == per_row_text(a_model)


def hand_windows(inst):
    """Windows that give big-Ms of 0, of 1 and above: ``es[j] = j``
    and ``lf[i] = i + i % 3``, so the diagonal ``nom_`` rows of every third
    node are empty, and a horizon that any instance passes."""
    nodes = range(inst.n_nodes)
    return TimeWindows(es=tuple(nodes), lf=tuple(i + i % 3 for i in nodes),
                       horizon=sum(inst.nominal_duration) + sum(inst.max_deviation))


def unit_capacity_instance(rng):
    """Five activities on one resource of capacity 1, two of them
    requiring it."""
    inst = random_dag_instance(rng, 5, n_res=1)
    requirement = [(0,)] * inst.n_nodes
    requirement[2] = requirement[4] = (1,)
    return dataclasses.replace(inst, capacity=(1,), requirement=tuple(requirement))


def lines_seen(model):
    """Which edge cases the model's rows hold."""
    for row in model.constraints:
        terms = dict(row.coeffs)
        y = "y_" + row.name.split("_", 1)[1].rsplit("_", 1)[0]
        if row.name.startswith(("nom_", "dev_")):
            if y not in terms:
                yield "zero big-M"
            elif terms[y] == -1:
                yield "big-M of 1"
            if not row.coeffs:
                yield "empty row"
        elif row.name.startswith("tri_") and len(row.coeffs) == 1:
            yield "merged tri_"
        elif row.name.startswith("cap_") and terms[y] == -1:
            yield "capacity 1"


def test_each_block_writes_the_text_of_its_rows():
    """A seeded sweep of every block's text against its rows rendered one
    by one, and of each model's text against its copy without blocks: DAG
    and PSPLIB-shaped instances at gamma 0, 1, 3 and 7, untightened, with
    the warm start's windows and with windows giving big-Ms of 0 and 1;
    and a capacity of 1.  Every case holds the merged ``tri_`` rows."""
    rng = random.Random(41)
    instances = [random_dag_instance(rng, rng.randint(1, 7), n_res=rng.randint(0, 2),
                                     max_dur=rng.choice((0, 3, 9)))
                 for _ in range(6)]
    instances += [robustify(random_psplib_instance(rng, n_act=rng.randint(4, 10), n_res=3))
                  for _ in range(3)]
    instances += [unit_capacity_instance(rng), counterexample_instance()]
    seen = set()
    for inst in instances:
        for gamma in (0, 1, 3, 7):
            warm = warm_start(inst, gamma)
            warm_windows = time_windows(inst, warm.selection, gamma, warm.upper_bound)
            for tighten in (None, warm_windows, hand_windows(inst)):
                for integral_starts in (False, True):
                    model = build_compact(inst, gamma, transitivity=True, tighten=tighten,
                                          integral_starts=integral_starts)
                    for block in model.blocks:
                        assert block.text == rows_text(block), (inst.meta.name, gamma)
                    assert export_lp(model) == per_row_text(model), (inst.meta.name, gamma)
                    seen.update(lines_seen(model))
    assert seen == {"zero big-M", "big-M of 1", "empty row", "merged tri_", "capacity 1"}


def test_a_block_built_from_a_kept_frame_equals_one_built_cold():
    """Each build takes its frames from another instance of its size
    built at the same gamma: each block equals the block built after
    every cache is emptied, its rows are exactly ``LinearConstraint``
    records of ints, and its text is its rows rendered one by one."""
    rng = random.Random(32)
    instances = [robustify(random_psplib_instance(rng, n_act=n, n_res=3)) for n in (6, 9, 6, 9)]
    for inst, other in zip(instances, instances[2:] + instances[:2]):
        for gamma in (0, 2, 7, 9):
            warm = warm_start(inst, gamma)
            windows = time_windows(inst, warm.selection, gamma, warm.upper_bound)
            for tighten, integral_starts in ((None, False), (windows, True)):
                def build():
                    return build_compact(inst, gamma, transitivity=True, tighten=tighten,
                                         integral_starts=integral_starts)

                clear_blocks()
                cold = build()
                clear_blocks()
                build_compact(other, gamma)
                model = build()
                for block in model.blocks:
                    assert all(type(row) is LinearConstraint for row in block.rows)
                    assert all(type(c) is int for row in block.rows for _, c in row.coeffs)
                    assert all(type(row.rhs) is int for row in block.rows)
                    assert block.text == rows_text(block), (inst.meta.name, gamma)
                assert model.blocks == cold.blocks, (inst.meta.name, gamma)
                assert export_lp(model) == export_lp(cold)


def test_two_instances_of_one_size_share_their_names():
    """The second instance of one size at the same gamma builds new
    blocks, whose rows and columns hold the name strings of the first's:
    both come from the same frames."""
    clear_blocks()
    rng = random.Random(5)
    a, b = (robustify(random_psplib_instance(rng, n_act=10, n_res=2)) for _ in range(2))
    a_model = build_compact(a, 3, transitivity=True)
    b_model = build_compact(b, 3, transitivity=True)
    assert not any(x is y for x, y in zip(a_model.blocks[:2], b_model.blocks[:2]))
    names = {x.name: x.name for x in a_model.constraints + a_model.variables}
    assert all(names[x.name] is x.name for x in b_model.constraints + b_model.variables)
    assert a_model.constraints != b_model.constraints


def test_a_frame_is_remade_exactly_when_its_shape_or_gamma_changes():
    """The leveled frame is kept by node count and gamma, the selection
    frame by node and resource counts.  Another instance of the same
    shape and gamma reuses both; another gamma, larger or smaller, makes
    a new leveled frame; a new node count makes both anew."""
    clear_blocks()
    rng = random.Random(11)
    a, b = (robustify(random_psplib_instance(rng, n_act=8, n_res=2)) for _ in range(2))
    c = robustify(random_psplib_instance(rng, n_act=11, n_res=2))
    made = []
    leveled = []
    selection = []
    for inst, gamma in ((a, 2), (b, 2), (b, 3), (a, 1), (a, 1), (c, 1)):
        model = build_compact(inst, gamma)
        made.append([frame.cache_info().misses for frame in FRAMES])
        leveled.append(milp._leveled_frame(inst.n_nodes, gamma))
        selection.append(milp._selection_frame(inst.n_nodes, len(inst.capacity)))
        assert [v.name for v in model.blocks[0].columns] == list(leveled[-1].starts)
    assert made == [[1, 1], [1, 1], [2, 1], [3, 1], [3, 1], [4, 2]]
    assert [f is g for f, g in zip(leveled, leveled[1:])] == [True, False, False, True, False]
    assert [f is g for f, g in zip(selection, selection[1:])] == [True, True, True, True, False]
    assert [len(f.starts) for f in leveled] == [10 * 3, 10 * 3, 10 * 4, 10 * 2, 10 * 2, 13 * 2]
    assert [len(f.arcs) for f in selection] == [10 * 10] * 5 + [13 * 13]


def reference_assignment(inst, gamma, warm):
    """The warm start assignment with each entry named by ``start_name``,
    ``arc_name`` and ``flow_name``, in the model's column order."""
    nodes = range(inst.n_nodes)
    values = {start_name(i, g): warm.leveled_starts[i][g] for i in nodes for g in range(gamma + 1)}
    active = closure_relation(inst, warm.selection.added_arcs) | {(inst.sink, inst.sink)}
    values.update((arc_name(i, j), 1 if (i, j) in active else 0) for i in nodes for j in nodes)
    reach = [sum(1 << j for j in nodes if (i, j) in active) for i in nodes]
    flows = milp._greedy_flows(inst, warm.start, reach)
    values.update((flow_name(i, j, k), flows.get((i, j, k), 0))
                  for i in nodes for j in nodes for k in inst.resource_types)
    return values


def test_warm_start_assignment_equals_the_entry_by_entry_reference():
    """The same keys, values and order as the reference, whether the
    frames it reads were kept by a build at its gamma, dropped by one at
    a larger gamma or not made yet, and the keys in the order of the
    model's columns."""
    rng = random.Random(2026)
    cases = [random_dag_instance(rng, rng.randint(1, 6), n_res=rng.randint(0, 2))
             for _ in range(6)]
    cases += [robustify(random_psplib_instance(rng, n_act=n, n_res=4)) for n in (10, 10, 14)]
    for inst in cases:
        for gamma in (0, 1, 3):
            warm = warm_start(inst, gamma)
            clear_blocks()
            got = warm_start_assignment(inst, gamma, warm)
            want = reference_assignment(inst, gamma, warm)
            assert list(got.items()) == list(want.items()), (inst.meta.name, gamma)
            assert all(type(value) is int for value in got.values())
            model = build_compact(inst, gamma)
            assert list(got) == [v.name for v in model.variables]
            assert list(warm_start_assignment(inst, gamma, warm).items()) == list(want.items())
            build_compact(inst, gamma + 2)
            assert list(warm_start_assignment(inst, gamma, warm).items()) == list(want.items())


def test_a_selection_and_its_closure_give_one_warm_assignment():
    """The warm start's covering selection, the whole closure and its
    covering pairs alone give one assignment, feasible for all four
    variants: the arc binaries and the flows' arcs are those of the
    closure, whichever sufficient selection stands for it."""
    rng = random.Random(2027)
    cases = [robustify(random_psplib_instance(rng, n_act=n, n_res=4)) for n in (8, 10, 14)]
    cases += [random_dag_instance(rng, rng.randint(2, 6), n_res=2, max_dur=rng.choice((0, 3)))
              for _ in range(4)]
    for inst in cases:
        for gamma in (0, 2):
            warm = warm_start(inst, gamma)
            closure = closure_relation(inst, warm.selection.added_arcs)
            base = set(inst.precedence)
            got = warm_start_assignment(inst, gamma, warm)
            for arcs in (closure - base, covering_pairs(closure) - base):
                other = dataclasses.replace(warm, selection=Selection(frozenset(arcs)))
                assert warm_start_assignment(inst, gamma, other) == got
            for variant in MILP_VARIANTS:
                model = build_variant(inst, gamma, variant)[0]
                assert check_assignment(model, got) == [], (inst.meta.name, gamma, variant)


def test_bench_variants_share_the_blocks_that_read_the_same_inputs():
    """The four bench variants at gamma 1 and 2: ``basic``/``trans`` and
    ``warm``/``warm+trans`` share their leveled rows, all eight one
    selection block; every cached model equals the one built without the
    cache, and its text equals its rows rendered one by one."""
    clear_blocks()
    inst = robustify(random_psplib_instance(random.Random(6), n_act=8, n_res=2))
    n, n_res = inst.n_nodes, len(inst.capacity)

    def split(model, gamma):
        """The model's (leveled, selection) rows."""
        leveled = (2 * gamma + 1) * n * n
        return (model.constraints[:leveled],
                model.constraints[leveled:leveled + n * n * n_res + 2 * n * n_res])

    def uncached(fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` with every builder's cache emptied
        first: a model built from new blocks."""
        clear_blocks()
        return fn(*args, **kwargs)

    models = {(gamma, variant): build_variant(inst, gamma, variant)[0]
              for gamma in (1, 2) for variant in MILP_VARIANTS}
    for (gamma, variant), model in models.items():
        assert model == uncached(build_variant, inst, gamma, variant)[0]
        assert export_lp(model) == per_row_text(model), (gamma, variant)
    for gamma in (1, 2):
        leveled = {v: split(models[gamma, v], gamma)[0] for v in MILP_VARIANTS}
        assert is_shared(leveled["basic"], leveled["trans"])
        assert is_shared(leveled["warm"], leveled["warm+trans"])
        assert not any(a is b for a, b in zip(leveled["basic"], leveled["warm"]))
    assert not any(a is b for a, b in zip(split(models[1, "basic"], 1)[0],
                                          split(models[2, "basic"], 2)[0]))
    selection = split(models[1, "basic"], 1)[1]
    assert len(selection) == n * n * n_res + 2 * n * n_res
    assert all(is_shared(split(model, gamma)[1], selection)
               for (gamma, _), model in models.items())

    # One capacity or one duration apart: a new selection or leveled block.
    capacity = dataclasses.replace(inst, capacity=(inst.capacity[0] + 1,) + inst.capacity[1:])
    durations = list(inst.nominal_duration)
    durations[3] += 1
    duration = dataclasses.replace(inst, nominal_duration=durations)
    for other in (capacity, duration):
        before = build_compact(inst, 1, integral_starts=True).blocks
        model = build_compact(other, 1, integral_starts=True)
        assert model == uncached(build_compact, other, 1, integral_starts=True)
        changed = [build for build, old, new in zip(BUILDERS, before, model.blocks)
                   if new is not old]
        assert changed == [milp._selection_block if other is capacity else milp._leveled_block]

    # A, then B of the same size, then A's text: B's first leveled and
    # selection rows equal A's, later ones do not.
    durations = list(inst.nominal_duration)
    durations[1], durations[2] = durations[1] + 1, durations[2] - 1
    requirement = list(inst.requirement)
    requirement[n - 2] = tuple(min(r + 1, c) if r < c else r - 1
                               for r, c in zip(requirement[n - 2], inst.capacity))
    b = dataclasses.replace(inst, nominal_duration=durations, requirement=requirement)
    for variant in MILP_VARIANTS:
        a_model = build_variant(inst, 1, variant)[0]
        b_model = build_variant(b, 1, variant)[0]
        a_leveled, a_selection = split(a_model, 1)
        b_leveled, b_selection = split(b_model, 1)
        assert (a_leveled[0], a_selection[0]) == (b_leveled[0], b_selection[0])
        assert a_leveled != b_leveled and a_selection != b_selection
        assert export_lp(a_model) == per_row_text(a_model), variant

    # An empty row's text names the model's first column, S_0_0.
    diamond = build_variant(counterexample_instance(), 0, "warm")[0]
    assert any(not row.coeffs for row in diamond.constraints)
    assert diamond.variables[0].name == "S_0_0"
    assert " 0 S_0_0 >= " in diamond.blocks[0].text
    assert export_lp(diamond) == per_row_text(diamond)


def test_build_variant_rejects_an_unknown_name():
    inst = counterexample_instance()
    for name in ("nope", "bnb", "Warm", "warm+"):
        with pytest.raises(ValueError, match="unknown MILP variant"):
            build_variant(inst, 1, name)


def test_threads_building_two_sizes_get_the_single_threaded_text(monkeypatch):
    """More threads than cores, switching often, each building and
    exporting trans models while the others evict its blocks and frames:
    two instances of 9 nodes evict each other's leveled and selection
    blocks and share their frames and one transitivity block, which the
    13-node instance evicts with the frames.  The collector is off in
    every build and back on after the last."""
    cases = ((9, None), (13, None), (9, 90), (13, None))
    expected = {case: export_lp(trans_model(*case)) for case in set(cases)}
    barrier = threading.Barrier(len(cases), timeout=60)
    collector_in_builds = set()
    leveled_block = milp._leveled_block

    def recording(*args):
        collector_in_builds.add(gc.isenabled())
        return leveled_block(*args)

    monkeypatch.setattr(milp, "_leveled_block", recording)
    caller = collector_state()

    def build_and_export(case):
        texts = []
        for _ in range(6):
            barrier.wait()
            texts.append(export_lp(trans_model(*case)))
        return texts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:
            results = list(pool.map(build_and_export, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for case, texts in zip(cases, results):
        assert texts == [expected[case]] * 6, case
    assert collector_in_builds == {False}
    assert collector_state() == caller


# ---------------------------------------------------------------------------
# the cyclic collector, paused while a build runs


def test_a_build_leaves_the_callers_collector_as_it_found_it(monkeypatch):
    """The collector is off inside a build and as the caller left it
    after one: on, or off, also after a build that raises."""
    inst = counterexample_instance()
    inside = []
    selection_block = milp._selection_block

    def recording(*args):
        inside.append(gc.isenabled())
        return selection_block(*args)

    def broken(n_nodes):
        raise RuntimeError("broken builder")

    monkeypatch.setattr(milp, "_selection_block", recording)
    monkeypatch.setattr(milp, "_transitivity_block", broken)
    caller = collector_state()
    assert caller[0]
    for enabled in (True, False):
        if not enabled:
            gc.disable()
        try:
            build_compact(inst, 1)
            assert collector_state() == (enabled, caller[1])
            with pytest.raises(RuntimeError, match="broken builder"):
                build_compact(inst, 1, transitivity=True)
            assert collector_state() == (enabled, caller[1])
        finally:
            gc.enable()
    assert inside == [False] * 4
    assert collector_state() == caller


def test_the_collector_stays_off_until_the_last_of_two_builds_leaves(monkeypatch):
    """Two threads build at once; the first to finish leaves the
    collector off under the second, and the second switches it back on."""
    inst = counterexample_instance()
    both_in = threading.Barrier(2, timeout=60)
    first_left = threading.Event()
    role = threading.local()
    under_second = []
    selection_block = milp._selection_block

    def waiting(*args):
        both_in.wait()
        if role.name == "second":
            assert first_left.wait(60)
            under_second.append(gc.isenabled())
        return selection_block(*args)

    def build(name):
        role.name = name
        build_compact(inst, 1)
        if name == "first":
            first_left.set()

    monkeypatch.setattr(milp, "_selection_block", waiting)
    caller = collector_state()
    with ThreadPoolExecutor(2) as pool:
        for future in [pool.submit(build, name) for name in ("first", "second")]:
            future.result(timeout=120)
    assert under_second == [False]
    assert collector_state() == caller


# ---------------------------------------------------------------------------
# external bridge (scipy HiGHS reference solver)


def test_bridge_infeasible_toy():
    model = MilpModel(
        variables=(Variable("x", "continuous", 0, 0),),
        constraints=(LinearConstraint("force", (("x", 1),), ">=", 1),),
        objective=(("x", 1),),
    )
    outcome = solve_external(model, command=BRIDGE)
    assert outcome.status == "infeasible"
    # a continuous model reports no best bound
    solved = solve_external(toy_model(), command=BRIDGE)
    assert (solved.status, solved.objective, solved.bound) == ("optimal", 2.0, None)


@pytest.mark.parametrize("model_status, objective, word", [
    ("kOptimal", 3.0, "optimal"),
    ("kTimeLimit", 7.0, "feasible"),
    ("kTimeLimit", math.inf, "timeout"),
    ("kIterationLimit", 7.0, "feasible"),
    ("kIterationLimit", math.inf, "timeout"),
    ("kInfeasible", math.inf, "infeasible"),
    ("kModelError", math.inf, "error"),
    ("kUnbounded", -math.inf, "error"),
    ("kSolutionLimit", 7.0, "error"),
])
def test_bridge_status_words(model_status, objective, word):
    assert highs_bridge.status_word(model_status, objective) == word


def test_bridge_without_scipy_exits_1(tmp_path, monkeypatch, capsys):
    lp = tmp_path / "toy.lp"
    lp.write_text(export_lp(toy_model()))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    highs_bridge.load_core.cache_clear()
    assert highs_bridge.main([str(lp), str(tmp_path / "toy.sol")]) == 1
    assert "scipy is not installed" in capsys.readouterr().err
    assert not (tmp_path / "toy.sol").exists()


def test_bridge_usage_errors_exit_2(tmp_path, capsys):
    lp, sol = tmp_path / "toy.lp", tmp_path / "toy.sol"
    lp.write_text(export_lp(toy_model()))
    mst = tmp_path / "toy.mst"
    mst.write_text("x 2\n")
    extra = [str(lp), str(sol), "0", str(mst), str(mst)]  # a template naming {mst} twice
    for argv in ([], [str(lp)], *([str(lp), str(sol), t] for t in ("abc", "-1", "nan", "inf")),
                 extra):
        assert highs_bridge.main(argv) == 2, argv
        assert "Usage:" in capsys.readouterr().err
    assert not sol.exists()


def test_bridge_leaves_scipy_optimize_and_numpy_unimported(tmp_path):
    """The solver child loads the HiGHS core alone: no scipy.optimize, no numpy."""
    lp = tmp_path / "toy.lp"
    lp.write_text(export_lp(toy_model()))
    script = ("import sys\n"
              "from robust_rcpsp.highs_bridge import solve_lp_file\n"
              f"print(solve_lp_file({str(lp)!r}, {str(tmp_path / 'toy.sol')!r}))\n"
              "print(sorted(m for m in ('numpy', 'scipy.optimize') if m in sys.modules))\n"
              "print(sorted(m for m in sys.modules if m.startswith('robust_rcpsp')))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    solved, heavy, ours = out.splitlines()
    assert [solved, heavy] == ["optimal", "[]"]
    assert (tmp_path / "toy.sol").read_text() == "optimal\nx 2\n"
    assert ours == str(["robust_rcpsp", "robust_rcpsp.errors", "robust_rcpsp.highs_bridge"])


BRIDGE_MST = f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{time_s}} '{{mst}}'"


def test_bridge_warm_start_keeps_the_status_and_objective():
    """A solve given the warm start ends with the status and objective of
    one without; HiGHS holds the start column by column, by name, and an
    empty ``{mst}`` (a model without a warm start) runs as none."""
    rng = random.Random(28)
    cases = [(robustify(parse_psplib((DATA / "toy5.sm").read_text())), 1)]
    cases += [(random_dag_instance(rng, rng.randint(3, 5), n_res=2), rng.randint(1, 2))
              for _ in range(3)]
    for inst, gamma in cases:
        for variant in ("basic", "warm+trans"):
            model, assignment = build_variant(inst, gamma, variant)
            warm = solve_external(model, assignment, command=BRIDGE_MST, time_limit_s=60)
            cold = solve_external(model, command=BRIDGE, time_limit_s=60)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == cold.objective


def test_bridge_hands_highs_each_warm_start_value_by_name(tmp_path):
    inst = robustify(parse_psplib((DATA / "toy5.sm").read_text()))
    model, assignment = build_variant(inst, 1, "warm+trans")
    lp, mst = tmp_path / "warm.lp", tmp_path / "warm.mst"
    lp.write_text(export_lp(model))
    mst.write_text(export_warm_start(assignment, model))
    highs = highs_bridge.read_model(lp)
    highs_bridge.set_warm_start(highs, mst)
    held = dict(zip(highs.getLp().col_names_, highs.getSolution().col_value))
    assert held == assignment
    partial = tmp_path / "partial.mst"
    partial.write_text("S_1_0 0\n\nS_2_0 4\n")
    highs = highs_bridge.read_model(lp)
    highs_bridge.set_warm_start(highs, partial)
    held = dict(zip(highs.getLp().col_names_, highs.getSolution().col_value))
    assert held.pop("S_1_0") == 0 and held.pop("S_2_0") == 4
    assert set(held.values()) == {math.inf}  # HiGHS completes the undefined columns


def test_warm_start_file_reads_back_as_its_assignment():
    """The MST text ``export_warm_start`` writes reads back through
    ``highs_bridge.read_values``, the bridge's reader, as exactly its
    assignment: every name once, in model order, with an equal value."""
    toy5 = robustify(parse_psplib((DATA / "toy5.sm").read_text()))
    j30 = robustify(random_psplib_instance(random.Random(7), 30, 4))
    for inst, gamma in ((toy5, 1), (j30, 7)):
        for variant in ("warm", "warm+trans"):
            model, assignment = build_variant(inst, gamma, variant)
            text = export_warm_start(assignment, model)
            read = list(highs_bridge.read_values(text.splitlines(), "warm.mst"))
            names = [v.name for v in model.variables if v.name in assignment]
            assert [name for _, name, _ in read] == names
            assert len(names) == len(assignment)
            assert all(value == assignment[name] for _, name, value in read)


@pytest.mark.parametrize("text, problem", [
    ("S_1_0\n", "expected a name and a finite value, not 'S_1_0'"),
    ("S_1_0 0 1\n", "line 1: expected a name and a finite value"),
    ("S_1_0 0\nS_2_0 four\n", "line 2: expected a name and a finite value"),
    ("S_1_0 nan\n", "expected a name and a finite value, not 'S_1_0 nan'"),
    ("S_1_0 0\nS_9_0 1\n", "line 2: 'S_9_0' is not a column of the model"),
    ("S_1_0 0\nS_1_0 4\n", "line 2: repeated name 'S_1_0'"),
    (None, "cannot read the warm start"),
], ids=["no_value", "extra_field", "non_number", "nan", "unknown_name", "repeated_name",
        "missing_file"])
def test_bridge_rejects_a_malformed_warm_start(tmp_path, capsys, text, problem):
    inst = robustify(parse_psplib((DATA / "toy5.sm").read_text()))
    lp, mst, sol = tmp_path / "warm.lp", tmp_path / "warm.mst", tmp_path / "warm.sol"
    lp.write_text(export_lp(build_variant(inst, 1, "warm")[0]))
    if text is not None:
        mst.write_text(text)
    assert highs_bridge.main([str(lp), str(sol), "60", str(mst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("highs_bridge: ") and problem in err
    assert not sol.exists()


def test_solve_external_writes_the_mst_only_for_a_template_that_names_it(tmp_path):
    """The solver sees the warm-start file's path and text where the
    template names ``{mst}``, an empty argument for a quoted ``'{mst}'``
    without a warm start, and no file in its directory otherwise."""
    seen = tmp_path / "seen.txt"
    solver = tmp_path / "solver.py"
    solver.write_text(
        "import json, pathlib, sys\n"
        "sol = pathlib.Path(sys.argv[1])\n"
        "mst = sys.argv[2] if len(sys.argv) > 2 else None\n"
        "files = sorted(p.name for p in sol.parent.iterdir())\n"
        "text = pathlib.Path(mst).read_text() if mst else None\n"
        f"pathlib.Path({str(seen)!r}).write_text(json.dumps([text, mst, files]))\n"
        "sol.write_text('optimal\\nx 2\\n')\n")
    runs = {}
    for name, template, warm in (("named", "{sol} '{mst}'", {"x": 2}),
                                 ("empty", "{sol} '{mst}'", None),
                                 ("unnamed", "{sol}", {"x": 2})):
        outcome = solve_external(toy_model(), warm, command=f"{sys.executable} {solver} {template}")
        assert outcome.status == "optimal"
        runs[name] = json.loads(seen.read_text())
    text, path, files = runs["named"]
    assert text == "x 2\n" and path.endswith("warm.mst") and "warm.mst" in files
    assert runs["empty"] == [None, "", ["model.lp"]]
    assert runs["unnamed"] == [None, None, ["model.lp"]]


def toy_model():
    return MilpModel(
        variables=(Variable("x", "continuous", 0, 5),),
        constraints=(LinearConstraint("floor", (("x", 1),), ">=", 2),),
        objective=(("x", 1),),
    )


def test_bridge_process_failure_is_error():
    outcome = solve_external(toy_model(), command=f"{sys.executable} -c import___nope")
    assert outcome.status == "error"
    assert "exited" in outcome.message


def test_bridge_garbage_solution_is_error(tmp_path):
    fake = tmp_path / "fake_solver.py"
    fake.write_text("import sys, pathlib\n"
                    "pathlib.Path(sys.argv[1]).write_text('gibberish 1 2 3\\n')\n")
    outcome = solve_external(toy_model(), command=f"{sys.executable} {fake} {{sol}}")
    assert outcome.status == "error"
    assert "status" in outcome.message


@pytest.mark.parametrize("write, problem", [
    ("", "solver wrote no solution file at "),
    ("pathlib.Path(sys.argv[1]).write_text('')", "solution file is empty"),
    ("pathlib.Path(sys.argv[1]).write_text('optimal\\nx 1 2\\n')",
     "solution file line 2: expected a name and a finite value, not 'x 1 2'"),
    ("pathlib.Path(sys.argv[1]).write_text('optimal\\nx 1\\nx 3\\n')",
     "solution file line 3: repeated name 'x'"),
], ids=["no_file", "empty_file", "three_fields", "repeated_name"])
def test_bridge_without_a_usable_solution_file_is_error(tmp_path, write, problem):
    """The solver exits 0 each time."""
    fake = tmp_path / "fake_solver.py"
    fake.write_text(f"import sys, pathlib\n{write}\n")
    outcome = solve_external(toy_model(), command=f"{sys.executable} {fake} {{sol}}")
    assert (outcome.status, outcome.objective) == ("error", None)
    assert problem in outcome.message


@pytest.mark.parametrize("head, x, n, kind", [
    ("optimal", "nan", "0", "non-finite"),
    ("optimal", "inf", "0", "non-finite"),
    ("optimal", "2", "nan", "non-finite"),
    ("optimal", "2", "inf", "non-finite"),
    ("optimal", "2", "-inf", "non-finite"),
    ("optimal nan", "2", "0", "non-finite"),
    ("feasible inf", "2", "0", "non-finite"),
    ("optimal -inf", "2", "0", "non-finite"),
    ("optimal abc", "2", "0", "non-numeric"),
    ("optimal 2 junk", "2", "0", "extra-field"),
])
def test_bridge_non_finite_or_non_numeric_value_is_error(tmp_path, head, x, n, kind):
    """NaN passes every comparison of the model check, and rounding an
    infinite integer value raised ``OverflowError`` out of ``solve_external``.
    A status line with a word after its bound was read as its first two.
    ``kind`` only names the case: every one reads as a line that is not a
    name and a finite number."""
    model = MilpModel(
        variables=(Variable("x", "continuous", 0, 5), Variable("n", "integer", 0, None)),
        constraints=(LinearConstraint("floor", (("x", 1),), ">=", 2),),
        objective=(("x", 1),),
    )
    fake = tmp_path / "fake_solver.py"
    fake.write_text("import sys, pathlib\n"
                    f"pathlib.Path(sys.argv[1]).write_text('{head}\\nx {x}\\nn {n}\\n')\n")
    outcome = solve_external(model, command=f"{sys.executable} {fake} {{sol}}")
    assert (outcome.status, outcome.objective) == ("error", None)
    line = 1 if " " in head else 2 if x != "2" else 3
    assert f"solution file line {line}: expected a name and a finite value" in outcome.message


def test_bridge_rejects_constraint_violating_solution(tmp_path):
    fake = tmp_path / "lying_solver.py"
    fake.write_text("import sys, pathlib\n"
                    "pathlib.Path(sys.argv[1]).write_text('optimal\\nx 0\\n')\n")
    outcome = solve_external(toy_model(), command=f"{sys.executable} {fake} {{sol}}")
    assert outcome.status == "error"
    assert "violates" in outcome.message


def test_bridge_with_a_zero_time_limit_starts_no_solver(tmp_path):
    """A zero limit used to reach the command as ``{time_s}`` 0, which the
    bridge reads as no limit, so the solve ran to the end."""
    marker = tmp_path / "started"
    solver = tmp_path / "solver.py"
    solver.write_text(f"import pathlib, sys\npathlib.Path({str(marker)!r}).touch()\nsys.exit(3)\n")
    command = f"{sys.executable} {solver} {{lp}} {{sol}} {{time_s}}"
    outcome = solve_external(toy_model(), command=command, time_limit_s=0)
    assert (outcome.status, outcome.objective, outcome.values) == ("timeout", None, {})
    assert not marker.exists()
    assert solve_external(toy_model(), command=command, time_limit_s=0.5).status == "error"
    assert marker.exists()


@pytest.mark.parametrize("template, message", [
    ("{lp} {sol} {limit}", "unknown placeholder {limit}"),
    ("{lp} {sol} {}", "unknown placeholder {}"),
    ("{lp} {sol", "expected '}' before end of string"),
    ("{lp} sol}", "Single '}'"),
], ids=["unknown", "positional", "open_brace", "close_brace"])
def test_bridge_with_an_unknown_placeholder_starts_no_solver(tmp_path, monkeypatch, template,
                                                             message):
    """An unknown placeholder used to raise KeyError from ``str.format``."""
    marker = tmp_path / "started"
    solver = tmp_path / "solver.py"
    solver.write_text(f"import pathlib\npathlib.Path({str(marker)!r}).touch()\n")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcome = solve_external(toy_model(), command=f"{sys.executable} {solver} {template}",
                             time_limit_s=5)
    assert (outcome.status, outcome.objective, outcome.values) == ("error", None, {})
    assert message in outcome.message
    assert not marker.exists()
    assert list(tmp_path.glob("robust_rcpsp_*")) == []
    assert milp.template_error(f"solver '{{lp}}' {{mst}} {{sol}} {{time_s}} {{{{x}}}}") is None


def test_bridge_removes_its_temporary_directory(tmp_path, monkeypatch):
    solver = tmp_path / "solver.py"
    solver.write_text("import sys, pathlib\n"
                      "pathlib.Path(sys.argv[1]).write_text('optimal\\nx 2\\n')\n")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    solved = solve_external(toy_model(), command=f"{sys.executable} {solver} {{sol}}")
    assert solved.status == "optimal"
    assert solved.values == {"x": 2.0}
    failed = solve_external(toy_model(), command=f"{tmp_path / 'no_such_solver'} {{lp}}")
    assert failed.status == "error"
    assert "failed to launch" in failed.message
    assert list(tmp_path.glob("robust_rcpsp_*")) == []


def test_bridge_overrunning_its_grace_period_is_timeout(tmp_path, monkeypatch):
    grace = []

    def overrun(cmd, *, timeout, **kwargs):
        grace.append(timeout)
        raise subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(subprocess, "run", overrun)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outcome = solve_external(toy_model(), command=BRIDGE, time_limit_s=1)
    assert outcome.status == "timeout"
    assert (outcome.objective, outcome.values) == (None, {})
    assert grace == [61]
    assert list(tmp_path.glob("robust_rcpsp_*")) == []


def test_bridge_diamond_fixed_selection_value_three():
    inst = counterexample_instance()
    model = build_compact(inst, 1)
    # preset every arc binary to the diamond network itself
    fixed = []
    active = set(extended_arcs(inst, Selection())) | {(inst.sink, inst.sink)}
    for v in model.variables:
        if v.name.startswith("y_"):
            i, j = (int(x) for x in v.name.split("_")[1:])
            val = 1 if (i, j) in active else 0
            fixed.append(Variable(v.name, v.kind, val, val))
        else:
            fixed.append(v)
    pinned = MilpModel(variables=tuple(fixed), constraints=model.constraints,
                       objective=model.objective)
    outcome = solve_external(pinned, command=BRIDGE)
    assert outcome.status == "optimal"
    assert outcome.objective == pytest.approx(3.0, abs=1e-6)


def test_bridge_pair_conflict_matches_bnb():
    inst = pair_conflict_instance()
    model = build_compact(inst, 0, integral_starts=True)
    outcome = solve_external(model, command=BRIDGE)
    assert outcome.status == "optimal"
    exact = solve_exact(inst, 0)
    assert outcome.objective == pytest.approx(exact.value, abs=1e-6)


def fix_arcs_to_closure(model, inst, sel):
    closure_active = set()
    from robust_rcpsp._graph import arc_graph

    reach = arc_graph(inst.n_nodes, extended_arcs(inst, sel))[1]
    for i in range(inst.n_nodes):
        for j in range(inst.n_nodes):
            if (reach[i] >> j) & 1:
                closure_active.add((i, j))
    closure_active.add((inst.sink, inst.sink))
    fixed = []
    for v in model.variables:
        if v.name.startswith("y_"):
            i, j = (int(x) for x in v.name.split("_")[1:])
            val = 1 if (i, j) in closure_active else 0
            fixed.append(Variable(v.name, v.kind, val, val))
        else:
            fixed.append(v)
    return MilpModel(variables=tuple(fixed), constraints=model.constraints,
                     objective=model.objective)


def test_dual_consistency_fixed_selection_equals_dp():
    rng = random.Random(11)
    for _ in range(6):
        inst = random_dag_instance(rng, rng.randint(1, 4), n_res=1)
        gamma = rng.randint(0, 2)
        warm = warm_start(inst, gamma)
        model = build_compact(inst, gamma)
        pinned = fix_arcs_to_closure(model, inst, warm.selection)
        outcome = solve_external(pinned, command=BRIDGE)
        assert outcome.status == "optimal"
        dp = worst_case_makespan_dp(inst, warm.selection, gamma)
        assert outcome.objective == pytest.approx(dp.value, abs=1e-6)


def test_objective_equivalence_all_variant_combinations():
    rng = random.Random(2)
    for _ in range(4):
        inst = random_dag_instance(rng, rng.randint(2, 4), n_res=1)
        gamma = rng.randint(0, 2)
        exact = solve_exact(inst, gamma)
        warm = warm_start(inst, gamma)
        windows = time_windows(inst, warm.selection, gamma, warm.upper_bound)
        assignment = warm_start_assignment(inst, gamma, warm)
        for transitivity in (False, True):
            for tighten in (None, windows):
                model = build_compact(inst, gamma, transitivity=transitivity,
                                      tighten=tighten, integral_starts=True)
                outcome = solve_external(model, assignment, command=BRIDGE)
                assert outcome.status == "optimal"
                assert outcome.objective == pytest.approx(exact.value, abs=1e-6), (
                    transitivity, tighten is not None)
