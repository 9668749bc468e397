import gc
import hashlib
import heapq
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from gen import (
    ancestor_bitsets,
    connect_dummies,
    make_instance,
    random_dag_instance,
    random_psplib_instance,
    shuffled_ids,
    tail_rows,
)
from robust_rcpsp import bnb, heuristics, milp, network
from robust_rcpsp._graph import (
    arc_graph,
    leveled_rows,
    predecessors,
    relax_leveled_rows,
    successors,
)
from robust_rcpsp.adversary import worst_case_makespan_dp
from robust_rcpsp.bnb import OptResult, arc_bound, optimality_gap, solve_exact
from robust_rcpsp.instance import parse_psplib, robustify
from robust_rcpsp.network import (
    Selection,
    child_closure,
    conflict_finder,
    enumerate_sufficient_selections,
    minimal_forbidden_sets,
    verify_selection,
)

DATA = Path(__file__).parent / "data"


def exhaustive_optimum(inst, gamma):
    return min(worst_case_makespan_dp(inst, sel, gamma).value
               for sel in enumerate_sufficient_selections(inst))


def test_deterministic_instance_root_is_leaf():
    inst = make_instance([0, 2, 3, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (2,))
    for gamma in (0, 1, 2):
        res = solve_exact(inst, gamma)
        assert res.status == "optimal"
        assert res.value == worst_case_makespan_dp(inst, Selection(), gamma).value


def test_pair_conflict_budget_zero():
    inst = make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (2,), (2,), (0,)], (2,))
    res = solve_exact(inst, 0)
    assert res.status == "optimal"
    assert res.value == 2
    catalog = minimal_forbidden_sets(inst)
    assert verify_selection(inst, res.selection, catalog).sufficient


def recorded(table, function):
    """``function``, appending each call's arguments and result to ``table``."""
    def record(*args):
        table.append((*args, function(*args)))
        return table[-1][-1]
    return record


def test_the_root_state_is_that_of_the_arcs(monkeypatch):
    """The root's closure, its transpose and its predecessor and successor
    lists are the instance's own ``closure``, ``ancestors``, ``pred`` and
    ``succ`` tuples, and equal a fresh derivation from the arcs:
    the closure of ``arc_graph``, ``ancestor_bitsets``, ``predecessors``
    and ``successors``.  Its head rows, read over the instance's ``order``,
    are the DP of the empty selection.  A node-capped solve reports the
    root's DP value as its bound.  A solve with one node expands the root,
    and every tail row the root settles for its children's bounds equals
    the backward pass (``gen.tail_rows``); the tail row of each child's
    ``j`` is settled."""
    popped = []
    passes = []
    pushed = []
    monkeypatch.setattr(bnb, "heappop", recorded(popped, heapq.heappop))
    monkeypatch.setattr(bnb, "leveled_rows", recorded(passes, leveled_rows))
    monkeypatch.setattr(bnb, "heappush", recorded(pushed, heapq.heappush))
    rng = random.Random(28)
    expanded = 0
    for _ in range(30):
        inst = robustify(shuffled_ids(rng, random_psplib_instance(rng, rng.randint(4, 14), 2)))
        n_nodes, arcs = inst.n_nodes, inst.precedence
        gamma = rng.randint(0, 3)
        for table in (popped, passes):
            table.clear()
        res = solve_exact(inst, gamma, node_cap=0)
        dp = worst_case_makespan_dp(inst, Selection(), gamma)
        [(_, (_, _, (closure, ancestors, pred, _, succ, *_), i, j))] = popped
        assert (i, j) == (None, None)
        assert closure is inst.closure and ancestors is inst.ancestors
        assert pred is inst.pred and succ is inst.succ
        assert closure == tuple(arc_graph(n_nodes, arcs)[1])
        assert ancestors == tuple(ancestor_bitsets(n_nodes, arcs))
        assert pred == tuple(map(tuple, predecessors(n_nodes, arcs)))
        assert succ == tuple(map(tuple, successors(n_nodes, arcs)))
        assert [rows for *_, rows in passes] == [list(map(list, dp.leveled_starts))]
        assert res.best_bound == (res.value if res.status == "optimal" else dp.value)
        pushed.clear()
        solve_exact(inst, gamma, node_cap=1)
        tails = tail_rows(inst, gamma)
        for _, (_, _, root, a, b), _ in pushed:
            *_, rows, _, root_tails, stale_rows, stale_tails = root
            assert rows == list(map(list, dp.leveled_starts)) and stale_rows == 0
            assert not (stale_tails >> b) & 1
            assert [row for v, row in enumerate(root_tails) if not (stale_tails >> v) & 1] == \
                [row for v, row in enumerate(tails) if not (stale_tails >> v) & 1]
        expanded += bool(pushed)
    assert expanded > 6


def test_a_solve_runs_no_backward_pass_before_its_search(monkeypatch):
    """The warm start reads its LFT priorities from the instance's
    ``nominal_tail``, and the root's tail rows start stale, so a solve
    stopped before its first node runs ``leveled_rows`` once, at the
    solve's gamma: the root's head rows over ``inst.order``."""
    passes = []

    def counted(nominal, delayed, gamma, order, adj):
        order = list(order)
        passes.append((gamma, order))
        return leveled_rows(nominal, delayed, gamma, order, adj)

    monkeypatch.setattr(bnb, "leveled_rows", counted)
    inst = robustify(random_psplib_instance(random.Random(4), 12, 2))
    solve_exact(inst, 3, node_cap=0)
    assert passes == [(3, list(inst.order))]


def test_every_pushed_bound_is_the_dp_value_of_its_child(monkeypatch):
    """Each open entry's bound, read from head and tail rows that its
    parent settled only where its children read them, equals the DP value
    of the child's selection: the parent's added arcs and the entry's arc.
    Seeded n <= 14 instances, zero durations included, at gamma 0-3 and
    node caps of a few hundred."""
    pushed = []
    monkeypatch.setattr(bnb, "heappush", recorded(pushed, heapq.heappush))
    rng = random.Random(40)
    cases = [robustify(random_psplib_instance(rng, rng.randint(8, 14), 3)) for _ in range(4)]
    cases += [random_dag_instance(rng, rng.randint(6, 9), n_res=2, max_dur=rng.choice((0, 3)))
              for _ in range(3)]
    checked = 0
    for inst in cases:
        base = set(inst.precedence)
        for gamma in range(4):
            pushed.clear()
            solve_exact(inst, gamma, node_cap=rng.choice((100, 300)))
            scores = {}
            for _, (bound, _, parent, a, b), _ in pushed:
                pred = parent[2]
                arcs = {(p, v) for v, ps in enumerate(pred) for p in ps} - base | {(a, b)}
                key = frozenset(arcs)
                if key not in scores:
                    scores[key] = worst_case_makespan_dp(inst, Selection(key), gamma).value
                assert bound == scores[key], (gamma, sorted(arcs))
            checked += len(pushed)
    assert checked > 2000


def test_time_s_covers_the_release_of_the_search(monkeypatch):
    """A solve frees its open entries and the closures it has seen before
    it reads the clock for ``time_s``.  Each closure the search builds logs
    its release, into the log where a stand-in clock logs its reads: at the
    last read, only the closures the solve's own locals hold (the popped
    node's and the last expanded node's) are alive, and none is after."""
    log = []

    class Logged(tuple):
        def __del__(self):
            log.append("freed")

    def child_closure(closure, ancestors, i, j):
        closure, ancestors, above = network.child_closure(closure, ancestors, i, j)
        log.append("built")
        return Logged(closure), ancestors, above

    def perf_counter():
        log.append("clock")
        return 0.0

    monkeypatch.setattr(bnb, "child_closure", child_closure)
    monkeypatch.setattr(bnb, "time", SimpleNamespace(perf_counter=perf_counter))
    inst = robustify(random_psplib_instance(random.Random(7), 20, 4))
    res = solve_exact(inst, 3, node_cap=100)
    assert (res.status, res.nodes) == ("incumbent", 100)
    last = len(log) - log[::-1].index("clock")
    alive = log[:last].count("built") - log[:last].count("freed")
    assert log.count("built") >= res.nodes and alive <= 2
    assert log.count("built") == log.count("freed")


def test_the_windows_and_the_model_run_no_dp():
    """The time windows and the compact model read the nominal critical
    path from the instance's ``nominal_tail``: neither module holds the
    adversary DP, and the search holds it only as the benchmark's hook."""
    assert not hasattr(heuristics, "worst_case_makespan_dp")
    assert not hasattr(milp, "worst_case_makespan_dp")
    assert bnb.worst_case_makespan_dp is worst_case_makespan_dp


def test_matches_exhaustive_oracle():
    rng = random.Random(321)
    cases = [random_dag_instance(rng, rng.randint(2, 6), n_res=rng.randint(1, 2))
             for _ in range(20)]
    # zero-duration activity 4 holds its start bucket in the warm schedule;
    # with 4 at 8 and activity 3 over [5, 10), the warm selection left
    # {3, 4} unresolved and the search returned 10 where the optimum is 12
    cases.append(make_instance(
        (0, 5, 3, 5, 0, 2, 0),
        ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 5), (5, 6)),
        ((0, 0, 0), (4, 0, 4), (3, 2, 1), (2, 0, 2), (2, 3, 4), (4, 4, 3), (0, 0, 0)),
        (6, 4, 5)))
    for inst in cases:
        catalog = minimal_forbidden_sets(inst)
        for gamma in (0, 1, 2):
            res = solve_exact(inst, gamma)
            assert res.status == "optimal"
            assert res.value == exhaustive_optimum(inst, gamma)
            assert verify_selection(inst, res.selection, catalog).sufficient


def test_matches_exhaustive_oracle_seven_and_eight_activities():
    rng = random.Random(2004)
    for _ in range(6):
        inst = random_dag_instance(rng, rng.randint(7, 8), n_res=rng.randint(2, 3))
        selections = list(enumerate_sufficient_selections(inst))
        for gamma in (0, 1, 2, 3):
            res = solve_exact(inst, gamma)
            assert res.status == "optimal"
            assert res.value == min(worst_case_makespan_dp(inst, sel, gamma).value
                                    for sel in selections)


def test_kernel_masks_and_bounds_follow_arc_additions():
    """Along random acyclic arc sequences, the branching set that
    ``conflict_finder`` gives is the smallest catalog set the pair-wise
    filter leaves unresolved, ties broken lexicographically, or None, and
    the walks reach pairs, triples (from the finder's triple rows), sets of
    four or more members (from the kernel's run from cap 4) and leaves; the
    carried ancestor masks are the closure's transpose; the head and tail
    rows, settled by ``relax_leveled_rows`` after every arc (i, j), head
    rows over ``j`` and its descendants and tail rows over ``i`` and its
    ancestors, match a full forward and backward pass, row for row, with
    no row of the table before the arc written and every row the arc
    does not raise left in place; and for every arc of the branching set
    (and the arc the walk adds) ``arc_bound`` gives the DP value of the
    extended selection.

    The walks run on j12-j20-shaped instances, on small DAGs with
    zero-duration activities and on sparse DAGs with sets of four."""
    rng = random.Random(2020)
    gammas = (0, 1, 3)
    cases = [robustify(random_psplib_instance(rng, rng.randint(12, 20), 4)) for _ in range(6)]
    cases += [random_dag_instance(rng, rng.randint(4, 9), n_res=2, max_dur=rng.choice((0, 2)))
              for _ in range(6)]
    # Sparse DAGs on one resource of four units, most activities needing
    # one: triples, sets of four and sets of five, so the walks also reach
    # the kernel's run from cap 4.  A generator of their own leaves the walks
    # above as they were.
    quads = random.Random(4)
    for _ in range(4):
        dag = random_dag_instance(quads, quads.randint(6, 9), arc_prob=0.05, max_dur=3)
        cases.append(replace(dag, capacity=(4,), requirement=tuple(
            (quads.choice((1, 1, 2)) if 0 < v < dag.sink else 0,)
            for v in range(dag.n_nodes))))
    sizes = set()
    for inst in cases:
        catalog = minimal_forbidden_sets(inst)
        first_conflict = conflict_finder(inst)
        n_nodes = inst.n_nodes
        _, reach, pred, succ = arc_graph(n_nodes, inst.precedence)
        ancestors = ancestor_bitsets(n_nodes, inst.precedence)
        nominal = inst.nominal_duration
        delayed = inst.worst_case_duration

        def full_tails(gamma):
            return leveled_rows(nominal, delayed, gamma,
                                sorted(range(n_nodes), key=lambda v: reach[v].bit_count()), succ)

        rows = {gamma: [list(row) for row in
                        worst_case_makespan_dp(inst, Selection(), gamma).leveled_starts]
                for gamma in gammas}
        tails = {gamma: full_tails(gamma) for gamma in gammas}
        arcs = set()
        while True:
            fset = first_conflict(reach, ancestors)
            assert fset == min((f for f in catalog if not network._resolved(reach, f)),
                               key=lambda f: (len(f), f), default=None)
            sizes.add(None if fset is None else min(len(fset), 4))
            assert list(ancestors) == ancestor_bitsets(n_nodes, inst.precedence + tuple(arcs))
            for gamma in gammas:
                dp = worst_case_makespan_dp(inst, Selection(frozenset(arcs)), gamma)
                assert rows[gamma] == [list(row) for row in dp.leveled_starts]
                assert tails[gamma] == full_tails(gamma)
            free = [(i, j) for i in range(1, inst.sink) for j in range(1, inst.sink)
                    if i != j and not (reach[i] >> j) & 1 and not (reach[j] >> i) & 1]
            if not free:
                break
            if fset and rng.random() < 0.5:
                i, j = rng.choice(list(permutations(fset, 2)))
            else:
                i, j = rng.choice(free)
            candidates = {(i, j)}
            if fset:
                candidates.update(permutations(fset, 2))
            for a, b in candidates:
                for gamma in gammas:
                    bound = max(rows[gamma][-1][gamma],
                                arc_bound(rows[gamma][a], tails[gamma][b], nominal[a],
                                          delayed[a], nominal[b], delayed[b]))
                    dp = worst_case_makespan_dp(inst, Selection(frozenset(arcs | {(a, b)})), gamma)
                    assert bound == dp.value
            reach, ancestors, _ = child_closure(reach, ancestors, i, j)
            pred[j].append(i)
            succ[i].append(j)
            arcs.add((i, j))
            down = sorted((v for v in range(n_nodes) if (reach[j] >> v) & 1),
                          key=lambda v: -reach[v].bit_count())
            up = sorted((v for v in range(n_nodes) if (reach[v] >> i) & 1),
                        key=lambda v: reach[v].bit_count())
            for gamma in gammas:
                for table, order, adj in ((rows[gamma], [j] + down, pred),
                                          (tails[gamma], [i] + up, succ)):
                    before = list(table)
                    values = [list(row) for row in before]
                    relax_leveled_rows(table, order, adj, nominal, delayed)
                    # No row of the table before the arc is written, and a
                    # row the arc does not raise is still that row: a B&B
                    # node's children share its rows.
                    assert [list(row) for row in before] == values
                    assert all(row is old for row, old in zip(table, before) if row == old)
    assert sizes == {2, 3, 4, None}


def test_budget_zero_equals_deterministic_optimum():
    rng = random.Random(55)
    for _ in range(15):
        inst = random_dag_instance(rng, rng.randint(2, 5), n_res=1)
        res = solve_exact(inst, 0)
        assert res.value == exhaustive_optimum(inst, 0)


def test_solution_selection_is_sufficient_and_value_consistent():
    rng = random.Random(7)
    for _ in range(15):
        inst = random_dag_instance(rng, rng.randint(2, 6), n_res=1)
        gamma = rng.randint(0, 2)
        res = solve_exact(inst, gamma)
        catalog = minimal_forbidden_sets(inst)
        assert verify_selection(inst, res.selection, catalog).sufficient
        assert res.value == worst_case_makespan_dp(inst, res.selection, gamma).value


def test_node_cap_yields_incumbent():
    rng = random.Random(12)
    inst = random_dag_instance(rng, 6, n_res=1)
    res = solve_exact(inst, 1, node_cap=1)
    assert res.status in ("incumbent", "optimal")
    if res.status == "incumbent":
        assert res.best_bound is not None
        assert res.best_bound <= res.value
        full = solve_exact(inst, 1)
        assert res.best_bound <= full.value <= res.value


def test_time_limit_yields_the_warm_incumbent():
    """A spent time limit stops the search before the first node, with the
    warm start as incumbent and the root's bound."""
    inst = robustify(random_psplib_instance(random.Random(7), 20, 4))
    res = solve_exact(inst, 3, time_limit_s=0)
    assert (res.status, res.nodes, res.value, res.best_bound) == ("incumbent", 0, 77, 38)
    assert res.best_bound <= res.value
    assert verify_selection(inst, res.selection, minimal_forbidden_sets(inst)).sufficient
    assert worst_case_makespan_dp(inst, res.selection, 3).value == res.value


def test_the_search_builds_no_catalog(monkeypatch):
    """Each node finds its own branching set: the search solves with
    ``minimal_forbidden_sets`` raising, to the exhaustive optimum."""
    rng = random.Random(99)
    cases = [random_dag_instance(rng, rng.randint(4, 7), n_res=2) for _ in range(4)]
    expected = [exhaustive_optimum(inst, 1) for inst in cases]

    def no_catalog(*args, **kwargs):
        raise AssertionError("the search built the catalog")

    monkeypatch.setattr(network, "minimal_forbidden_sets", no_catalog)
    monkeypatch.setattr(bnb, "minimal_forbidden_sets", no_catalog)
    results = [solve_exact(inst, 1) for inst in cases]
    assert [(res.status, res.value) for res in results] == [("optimal", v) for v in expected]


def test_a_time_limit_holds_where_the_catalog_would_not():
    """At n=90 the catalog passes 10**6 sets after seconds; the search,
    which builds none, stops at its time limit with an incumbent."""
    inst = robustify(random_psplib_instance(random.Random(7), 90, 4))
    t0 = time.perf_counter()
    res = solve_exact(inst, 3, time_limit_s=1)
    assert time.perf_counter() - t0 < 1.5
    assert res.status == "incumbent"
    assert res.best_bound <= res.value


def test_a_limited_n60_selection_is_sufficient():
    inst = robustify(random_psplib_instance(random.Random(60), 60, 4))
    res = solve_exact(inst, 3, time_limit_s=0.3)
    assert res.nodes > 0
    assert verify_selection(inst, res.selection, minimal_forbidden_sets(inst)).sufficient
    assert worst_case_makespan_dp(inst, res.selection, 3).value == res.value
    assert res.best_bound <= res.value


def test_limit_exit_at_a_closed_bound_is_optimal():
    """A cap or time-limit exit whose best open bound already reaches the
    incumbent proves the incumbent optimal, with the nodes counted so far."""
    inst = robustify(parse_psplib((DATA / "minimal3.sm").read_text()))
    res = solve_exact(inst, 1, time_limit_s=0)
    assert (res.status, res.nodes, res.value, res.best_bound) == ("optimal", 0, 8, 8)
    assert optimality_gap(res) == 0.0
    inst = robustify(random_psplib_instance(random.Random(2), 10, 3))
    capped = [solve_exact(inst, 1, node_cap=cap) for cap in (13, 14)]
    assert [(r.status, r.nodes, r.value, r.best_bound) for r in capped] == \
        [("incumbent", 13, 27, 26), ("optimal", 14, 26, 26)]
    assert solve_exact(inst, 1).nodes == 15


def test_a_duplicate_entry_is_dropped_when_popped(monkeypatch):
    """Two open entries can reach one closure.  The first one popped is
    expanded; the other is dropped when popped and is not a node, and a cap
    exit reports the best bound of the entries that are not duplicates.

    Activities 1-4 last 1, 2, 2 and 3 periods and each takes one of two
    units, so every three of them form a forbidden set; at gamma 0 the
    root bound is 3.  With the incumbent pinned to the chain 1, 2, 3, 4
    (8 periods), the nodes of bound 3 are the root, its children 1->2,
    1->3, 2->1 and 3->1 (2->3 and 3->2 give 4), and the stars
    {1->2, 1->3} and {2->1, 3->1}.  1->2 branches on (1, 3, 4) and 1->3 on
    (1, 2, 4), so both push the first star; 2->1 and 3->1 both push the
    second.  Every child of a star is longer than 3, so the seventh node
    is the second star, whose duplicate is the last entry of bound 3: a
    cap of 7 drops it and stops at an entry of bound 4.
    """
    inst = make_instance([0, 1, 2, 2, 3, 0], connect_dummies(4, set()),
                         [(0,)] + [(1,)] * 4 + [(0,)], (2,))
    chain = Selection(frozenset({(1, 2), (2, 3), (3, 4)}))
    assert worst_case_makespan_dp(inst, chain, 0).value == 8
    monkeypatch.setattr(bnb, "warm_start",
                        lambda inst, gamma: SimpleNamespace(upper_bound=8, selection=chain))
    made, expanded = [], []

    def child_closure(closure, ancestors, i, j):
        child = network.child_closure(closure, ancestors, i, j)
        made.append(child[0])
        return child

    def conflict_finder(inst):
        """The finder, recording each closure that gets a branching set:
        the nodes the search expands."""
        first_conflict = network.conflict_finder(inst)

        def recorded(closure, ancestors):
            fset = first_conflict(closure, ancestors)
            if fset is not None:
                expanded.append(closure)
            return fset
        return recorded

    monkeypatch.setattr(bnb, "child_closure", child_closure)
    monkeypatch.setattr(bnb, "conflict_finder", conflict_finder)
    res = solve_exact(inst, 0, node_cap=7)
    assert (res.status, res.nodes, res.value, res.best_bound) == ("incumbent", 7, 8, 4)
    stars = [tuple(arc_graph(inst.n_nodes, inst.precedence + arcs)[1])
             for arcs in (((1, 2), (1, 3)), ((2, 1), (3, 1)))]
    assert [made.count(star) for star in stars] == [2, 2]
    assert len(expanded) == len(set(expanded)) == 7
    assert expanded[-2:] == stars
    full = solve_exact(inst, 0)
    assert (full.status, full.value) == ("optimal", exhaustive_optimum(inst, 0)) == ("optimal", 4)


# SHA-256 of (value, status, nodes, best_bound, sorted arcs) of the solves of
# search_pins(), per instance size.
PINNED_SEARCH_SHA256 = {
    10: "534eab03bb3a4d693af174ee0b90d1f3bfb2c93b91925688db655b3e58db1c23",
    20: "94d6d08651bbd491fdb7236d22ca2860ef1fa33c120bbcc9dbdeebbcc4c0cb01",
    30: "1862b4ed7ef65a179298143256e929ca34c174b7d03beb849652bff4ebdc1fba",
}


def search_pins():
    """(size, result) of seeded j10/j20/j30-shaped solves at gamma 0, 3 and 7,
    capped at 20 and 500 nodes, and uncapped at j10."""
    rng = random.Random(2026)
    for n_act in (10, 20, 30):
        for _ in range(6 if n_act == 10 else 2):
            inst = robustify(random_psplib_instance(rng, n_act=n_act))
            for gamma in (0, 3, 7):
                for cap in (20, 500) + ((None,) if n_act == 10 else ()):
                    yield n_act, solve_exact(inst, gamma, node_cap=cap)


def test_search_is_pinned():
    records = {n_act: [] for n_act in PINNED_SEARCH_SHA256}
    for n_act, res in search_pins():
        records[n_act].append((res.value, res.status, res.nodes, res.best_bound,
                               res.selection.sorted_arcs()))
    for n_act, recs in records.items():
        digest = hashlib.sha256(repr(recs).encode()).hexdigest()
        assert digest == PINNED_SEARCH_SHA256[n_act], n_act


def test_every_result_carries_a_selection():
    """The incumbent always has a selection behind it: the warm start's
    before any node, the optimum's after the search."""
    inst = make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (2,), (2,), (0,)], (2,))
    catalog = minimal_forbidden_sets(inst)
    for node_cap in (0, None):
        res = solve_exact(inst, 0, node_cap=node_cap)
        assert res.status == ("incumbent" if node_cap == 0 else "optimal")
        assert verify_selection(inst, res.selection, catalog).sufficient
        assert res.value == worst_case_makespan_dp(inst, res.selection, 0).value
    assert res.value == 2


def test_optimality_gap():
    closed = OptResult(selection=Selection(), value=100, status="optimal", nodes=1,
                       time_s=0.0, best_bound=100)
    assert optimality_gap(closed) == 0.0
    open_res = OptResult(selection=Selection(), value=100, status="incumbent", nodes=1,
                         time_s=0.0, best_bound=80)
    assert optimality_gap(open_res) == 20.0
    empty = OptResult(selection=Selection(), value=0, status="incumbent", nodes=0,
                      time_s=0.0, best_bound=0)
    assert optimality_gap(empty) is None
    zero = OptResult(selection=Selection(), value=0, status="optimal", nodes=1,
                     time_s=0.0, best_bound=0)
    assert optimality_gap(zero) == 0.0


def collector_state():
    return gc.isenabled(), gc.get_threshold()


def test_a_search_leaves_the_callers_collector_as_it_found_it(monkeypatch):
    """The collector is off inside a solve and as the caller left it after
    one: on, or off, also after a solve that raises."""
    inst = random_dag_instance(random.Random(3), 6, n_res=2)
    inside = []
    warm_start = bnb.warm_start

    def recording(*args):
        inside.append(gc.isenabled())
        return warm_start(*args)

    caller = collector_state()
    assert caller[0]
    for enabled in (True, False):
        if not enabled:
            gc.disable()
        try:
            monkeypatch.setattr(bnb, "warm_start", recording)
            solve_exact(inst, 2)
            assert collector_state() == (enabled, caller[1])
            monkeypatch.setattr(bnb, "warm_start", lambda *args: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                solve_exact(inst, 2)
            assert collector_state() == (enabled, caller[1])
        finally:
            gc.enable()
    assert inside == [False, False]
    assert collector_state() == caller


def test_a_build_that_ends_under_a_running_search_leaves_the_collector_off(monkeypatch):
    """A solve and a model build in two threads share one guard: the
    build ends while the solve runs, and the collector stays off until
    the solve ends too."""
    inst = random_dag_instance(random.Random(3), 6, n_res=2)
    both_in = threading.Barrier(2, timeout=60)
    build_left = threading.Event()
    under_search = []
    warm_start = bnb.warm_start
    selection_block = milp._selection_block

    def searching(*args):
        both_in.wait()
        assert build_left.wait(60)
        under_search.append(gc.isenabled())
        return warm_start(*args)

    def building(*args):
        both_in.wait()
        return selection_block(*args)

    def build():
        milp.build_compact(inst, 2)
        build_left.set()

    monkeypatch.setattr(bnb, "warm_start", searching)
    monkeypatch.setattr(milp, "_selection_block", building)
    caller = collector_state()
    with ThreadPoolExecutor(2) as pool:
        solved = pool.submit(solve_exact, inst, 2)
        pool.submit(build).result(timeout=120)
        assert solved.result(timeout=120).status == "optimal"
    assert under_search == [False]
    assert collector_state() == caller
