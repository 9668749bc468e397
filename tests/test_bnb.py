import hashlib
import random
import time
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

from gen import (
    connect_dummies,
    make_instance,
    random_dag_instance,
    random_psplib_instance,
    shuffled_ids,
)
from robust_rcpsp import bnb, network
from robust_rcpsp._graph import (
    ancestor_bitsets,
    closure_bitsets,
    predecessors,
    reaches,
    successors,
    topological_order,
)
from robust_rcpsp.adversary import (
    leveled_rows,
    relax_leveled_rows,
    tail_rows,
    worst_case_makespan_dp,
)
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


def test_the_root_state_is_that_of_the_arcs(monkeypatch):
    """The root's closure, its transpose, head rows and tail rows, read
    from the instance's ``order`` and ``closure``, equal a fresh
    derivation from the arcs: ``closure_bitsets``, ``ancestor_bitsets``,
    the DP of the empty selection and a backward pass over a fresh sort.
    A node-capped solve reports the root's DP value as its bound."""
    roots = []
    heads = []
    tails = []

    def recorded(table, function):
        """``function``, appending each call's arguments and result to ``table``."""
        def record(*args):
            table.append((*args, function(*args)))
            return table[-1][-1]
        return record

    monkeypatch.setattr(bnb, "transpose_bitsets", recorded(roots, bnb.transpose_bitsets))
    monkeypatch.setattr(bnb, "leveled_rows", recorded(heads, leveled_rows))
    monkeypatch.setattr(bnb, "tail_rows", recorded(tails, tail_rows))
    rng = random.Random(28)
    for _ in range(12):
        inst = robustify(shuffled_ids(rng, random_psplib_instance(rng, rng.randint(4, 14), 2)))
        n_nodes, arcs = inst.n_nodes, inst.precedence
        gamma = rng.randint(0, 3)
        for table in (roots, heads, tails):
            table.clear()
        res = solve_exact(inst, gamma, node_cap=0)
        dp = worst_case_makespan_dp(inst, Selection(), gamma)
        assert [(closure, list(ancestors)) for closure, ancestors in roots] == \
            [(tuple(closure_bitsets(n_nodes, arcs)), ancestor_bitsets(n_nodes, arcs))]
        assert [rows for *_, rows in heads] == [list(map(list, dp.leveled_starts))]
        assert [rows for *_, rows in tails] == [leveled_rows(
            inst, gamma, reversed(topological_order(n_nodes, arcs)), successors(n_nodes, arcs))]
        assert res.best_bound == (res.value if res.status == "optimal" else dp.value)


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
    ``conflict_finder`` gives is the first catalog set the pair-wise filter
    leaves unresolved, both from the start and after the last set known to
    be resolved with every set before it; the carried ancestor masks are
    the closure's transpose; the incrementally raised head and tail rows
    match a full forward and backward pass, row for row; and for every arc
    of the branching set (and the arc the walk adds) ``arc_bound`` gives
    the DP value of the extended selection.

    The walks run on j12-j20-shaped instances and on small DAGs with
    zero-duration activities."""
    rng = random.Random(2020)
    gammas = (0, 1, 3)
    cases = [robustify(random_psplib_instance(rng, rng.randint(12, 20), 4)) for _ in range(6)]
    cases += [random_dag_instance(rng, rng.randint(4, 9), n_res=2, max_dur=rng.choice((0, 2)))
              for _ in range(6)]
    for inst in cases:
        catalog = minimal_forbidden_sets(inst)
        first_conflict = conflict_finder(inst)
        n_nodes = inst.n_nodes
        reach = closure_bitsets(n_nodes, inst.precedence)
        ancestors = ancestor_bitsets(n_nodes, inst.precedence)
        pred = predecessors(n_nodes, inst.precedence)
        succ = successors(n_nodes, inst.precedence)
        nominal = inst.nominal_duration
        delayed = inst.worst_case_duration

        def full_tails(gamma):
            return leveled_rows(inst, gamma,
                                sorted(range(n_nodes), key=lambda v: reach[v].bit_count()), succ)

        rows = {gamma: [list(row) for row in
                        worst_case_makespan_dp(inst, Selection(), gamma).leveled_starts]
                for gamma in gammas}
        tails = {gamma: full_tails(gamma) for gamma in gammas}
        after = ()
        arcs = set()
        while True:
            fset = first_conflict(reach, ancestors, after)
            assert fset == first_conflict(reach, ancestors) == \
                next((f for f in catalog if not network._resolved(reach, f)), None)
            assert list(ancestors) == ancestor_bitsets(n_nodes, inst.precedence + tuple(arcs))
            for gamma in gammas:
                dp = worst_case_makespan_dp(inst, Selection(frozenset(arcs)), gamma)
                assert rows[gamma] == [list(row) for row in dp.leveled_starts]
                assert tails[gamma] == full_tails(gamma)
            free = [(i, j) for i in range(1, inst.sink) for j in range(1, inst.sink)
                    if i != j and not reaches(reach, i, j) and not reaches(reach, j, i)]
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
            if fset and network._resolved(reach, fset):
                after = fset
            pred[j].append(i)
            succ[i].append(j)
            arcs.add((i, j))
            down = sorted((v for v in range(n_nodes) if v == j or reaches(reach, j, v)),
                          key=lambda v: -reach[v].bit_count())
            up = sorted((v for v in range(n_nodes) if v == i or reaches(reach, v, i)),
                        key=lambda v: reach[v].bit_count())
            for gamma in gammas:
                relax_leveled_rows(rows[gamma], down, 1 << i, pred, nominal, delayed)
                relax_leveled_rows(tails[gamma], up, 1 << j, succ, nominal, delayed)


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

    def branch(closure, fset):
        expanded.append(closure)
        return network.branch(closure, fset)

    monkeypatch.setattr(bnb, "child_closure", child_closure)
    monkeypatch.setattr(bnb, "branch", branch)
    res = solve_exact(inst, 0, node_cap=7)
    assert (res.status, res.nodes, res.value, res.best_bound) == ("incumbent", 7, 8, 4)
    stars = [tuple(closure_bitsets(inst.n_nodes, inst.precedence + arcs))
             for arcs in (((1, 2), (1, 3)), ((2, 1), (3, 1)))]
    assert [made.count(star) for star in stars] == [2, 2]
    assert len(expanded) == len(set(expanded)) == 7
    assert expanded[-2:] == stars
    full = solve_exact(inst, 0)
    assert (full.status, full.value) == ("optimal", exhaustive_optimum(inst, 0)) == ("optimal", 4)


# SHA-256 of (value, status, nodes, best_bound, sorted arcs) of the solves of
# search_pins(), per instance size.
PINNED_SEARCH_SHA256 = {
    10: "8e973d45c943600b3049c6c8a3284d96bd16a5f0febde3830717940523d48d47",
    20: "efb29680cffb53c22ce5ec5e5690eedfbd197cb982ff947cd7e23147dfc1b470",
    30: "b474ca1f6b23c604adf5f44235a2b0d6030724473acb34adfa6ff8b6c2691855",
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
