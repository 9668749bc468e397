import random

import pytest

from gen import (
    brute_force_forbidden_sets,
    closure_relation,
    connect_dummies,
    make_instance,
    pair_conflict_instance,
    random_dag_instance,
    random_psplib_instance,
    random_selection,
    shuffled_ids,
)
from robust_rcpsp._graph import (
    ancestor_bitsets,
    closure_bitsets,
    reaches,
    topological_order,
    transpose_bitsets,
)
from robust_rcpsp.errors import CapExceeded, CyclicGraphError
from robust_rcpsp.heuristics import lft_schedule
from robust_rcpsp.network import (
    Selection,
    branch,
    child_closure,
    conflict_finder,
    enumerate_sufficient_selections,
    minimal_forbidden_sets,
    schedule_order,
    selection_from_order,
    verify_selection,
)


def k3_instance():
    """Three pairwise-conflicting activities: every pair sums to 4 > 3."""
    return make_instance([0, 1, 1, 1, 0],
                         connect_dummies(3, set()),
                         [(0,), (2,), (2,), (2,), (0,)], (3,))


def catalog_family():
    """Seven activities on one resource of capacity 5 whose minimal
    forbidden sets are exactly {1,5},{2,6},{5,6},{6,7},{3,4,5}."""
    inner = [(1, 2), (5, 2), (2, 7), (1, 6), (3, 2), (1, 4), (4, 6)]
    arcs = connect_dummies(7, inner)
    req = [(0,), (3,), (3,), (2,), (1,), (3,), (3,), (3,), (0,)]
    return make_instance([0, 4, 3, 2, 5, 4, 2, 3, 0], arcs, req, (5,))


# ---------------------------------------------------------------------------
# transitive closure


def test_closure_chain():
    reach = closure_bitsets(3, [(0, 1), (1, 2)])
    reachable = {(i, j) for i in range(3) for j in range(3) if (reach[i] >> j) & 1}
    assert reachable == {(0, 1), (0, 2), (1, 2)}


def test_closure_empty():
    assert closure_bitsets(3, []) == [0, 0, 0]


def test_closure_diamond():
    reach = closure_bitsets(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert reach[0] == 0b11110
    assert not (reach[2] >> 3) & 1 and not (reach[3] >> 2) & 1


def test_closure_cycle_error():
    with pytest.raises(CyclicGraphError):
        closure_bitsets(3, [(0, 1), (1, 2), (2, 0)])


def test_transpose_is_the_closure_of_the_reversed_arcs():
    rng = random.Random(5)
    for _ in range(40):
        inst = shuffled_ids(rng, random_dag_instance(rng, rng.randint(0, 9)))
        arcs = inst.precedence + tuple(random_selection(rng, inst, 4).added_arcs)
        assert transpose_bitsets(closure_bitsets(inst.n_nodes, arcs)) == \
            ancestor_bitsets(inst.n_nodes, arcs)


# ---------------------------------------------------------------------------
# minimal forbidden sets


def test_pair_catalog():
    assert minimal_forbidden_sets(k3_instance()) == ((1, 2), (1, 3), (2, 3))


def test_no_conflicts_empty_catalog():
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    slack = make_instance([0, 1, 1, 0], arcs, [(0,), (1,), (1,), (0,)], (2,))
    no_resources = make_instance([0, 1, 1, 0], arcs, capacities=())
    zero_rows = make_instance([0, 1, 1, 0], arcs, [(0, 0)] * 4, (1, 1))
    for inst in (slack, no_resources, zero_rows):
        assert minimal_forbidden_sets(inst) == ()


def test_frozen_catalog_family():
    inst = catalog_family()
    catalog = minimal_forbidden_sets(inst)
    assert catalog == ((1, 5), (2, 6), (3, 4, 5), (5, 6), (6, 7))
    assert catalog == brute_force_forbidden_sets(inst)


def test_catalog_matches_brute_force_on_random_instances():
    rng = random.Random(2024)
    for _ in range(40):
        inst = random_dag_instance(rng, rng.randint(1, 8), n_res=rng.randint(1, 2))
        assert minimal_forbidden_sets(inst) == brute_force_forbidden_sets(inst)
    # The benchmark's shape: up to four resources, zero entries, slack capacities.
    for _ in range(40):
        inst = random_psplib_instance(rng, n_act=rng.randint(8, 12), n_res=rng.randint(1, 4))
        assert minimal_forbidden_sets(inst) == brute_force_forbidden_sets(inst)


def test_catalog_cap():
    inst = k3_instance()
    with pytest.raises(CapExceeded):
        minimal_forbidden_sets(inst, max_sets=1)


def test_catalog_cap_boundary():
    inst = random_psplib_instance(random.Random(3), n_act=12, n_res=4)
    full = minimal_forbidden_sets(inst)
    m = len(full)
    assert m > 1
    assert minimal_forbidden_sets(inst, max_sets=m) == full
    with pytest.raises(CapExceeded):
        minimal_forbidden_sets(inst, max_sets=m - 1)


# ---------------------------------------------------------------------------
# verify_selection


def test_verify_empty_catalog():
    inst = make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (2,))
    catalog = minimal_forbidden_sets(inst)
    assert verify_selection(inst, Selection(), catalog).sufficient


def test_verify_chain_resolves_pairs():
    inst = k3_instance()
    catalog = minimal_forbidden_sets(inst)
    verdict = verify_selection(inst, Selection.from_pairs([(1, 2), (2, 3)]), catalog)
    assert verdict.sufficient  # closure also relates 1 and 3


def test_verify_reports_first_violated_set():
    inst = k3_instance()
    catalog = minimal_forbidden_sets(inst)
    verdict = verify_selection(inst, Selection.from_pairs([(1, 2)]), catalog)
    assert not verdict.sufficient
    assert verdict.violated_set == (1, 3)
    rel = closure_relation(inst, [(1, 2)])
    assert (1, 3) not in rel and (3, 1) not in rel


def test_verify_reports_cycle():
    inst = k3_instance()
    catalog = minimal_forbidden_sets(inst)
    verdict = verify_selection(inst, Selection.from_pairs([(1, 2), (2, 3), (3, 1)]), catalog)
    assert not verdict.sufficient
    assert verdict.cycle is not None


def test_selection_rejects_duplicates_of_instance_arcs():
    inst = k3_instance()
    catalog = minimal_forbidden_sets(inst)
    with pytest.raises(ValueError, match="duplicates"):
        verify_selection(inst, Selection.from_pairs([(0, 1)]), catalog)


def test_monotonicity_of_sufficiency():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_dag_instance(rng, rng.randint(2, 6), n_res=1)
        catalog = minimal_forbidden_sets(inst)
        small = random_selection(rng, inst, max_arcs=2)
        if not verify_selection(inst, small, catalog).sufficient:
            continue
        bigger = random_selection(rng, inst, max_arcs=5)
        merged = small.added_arcs | bigger.added_arcs
        try:
            verdict = verify_selection(inst, Selection(frozenset(merged)), catalog)
        except Exception:
            continue
        if verdict.cycle is None:
            assert verdict.sufficient


# ---------------------------------------------------------------------------
# the selection of a schedule's order


def test_serial_schedule_relates_all():
    inst = k3_instance()
    sel = selection_from_order(inst, *schedule_order(inst, (0, 0, 1, 2, 3)))
    assert {(1, 2), (2, 3), (1, 3)} <= sel.added_arcs
    catalog = minimal_forbidden_sets(inst)
    assert verify_selection(inst, sel, catalog).sufficient


def test_unconstrained_earliest_schedule_is_vacuously_sufficient():
    inst = make_instance([0, 2, 3, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (2,))
    start = (0, 0, 0, 3)
    sel = selection_from_order(inst, *schedule_order(inst, start))
    catalog = minimal_forbidden_sets(inst)
    assert catalog == ()
    assert verify_selection(inst, sel, catalog).sufficient
    assert (1, 2) not in sel.added_arcs and (2, 1) not in sel.added_arcs


def test_zero_duration_ties_stay_acyclic():
    inst = make_instance([0, 0, 0, 0], [(0, 1), (0, 2), (1, 3), (2, 3)])
    sel = selection_from_order(inst, *schedule_order(inst, (0, 0, 0, 0)))
    # mutual qualifications keep only the direction of the tie rank, here
    # the id order
    assert (1, 2) in sel.added_arcs and (2, 1) not in sel.added_arcs
    closure_relation(inst, sel.added_arcs)  # acyclicity would raise


def test_selection_from_schedule_is_the_pairwise_order():
    # the definition pair by pair: i before j when j starts once i ends,
    # and two zero-duration activities starting together in the order of
    # their positions in a fresh topological sort of the instance arcs,
    # which is also the tie rank of the schedule order
    rng = random.Random(77)
    for _ in range(150):
        inst = shuffled_ids(rng, random_dag_instance(rng, rng.randint(0, 7), n_res=1,
                                                     max_dur=rng.choice((0, 1, 3))))
        rank = {v: r for r, v in enumerate(topological_order(inst.n_nodes, inst.precedence))}
        dur = inst.nominal_duration
        nodes = range(inst.n_nodes)
        for feasible, start in ((True, lft_schedule(inst)),
                                (False, tuple(rng.randint(0, 4) for _ in nodes))):
            expected = {(i, j) for i in nodes for j in nodes
                        if i != j and start[j] >= start[i] + dur[i]
                        and not (start[i] >= start[j] + dur[j] and rank[j] < rank[i])}
            order, cut = schedule_order(inst, start)
            assert order == sorted(nodes, key=lambda v: (start[v], dur[v] > 0, rank[v]))
            sel = selection_from_order(inst, order, cut)
            assert sel.added_arcs == expected - set(inst.precedence)
            if feasible:  # the order holds every instance arc
                assert set(inst.precedence) <= expected
                closure_relation(inst, sel.added_arcs)  # acyclicity would raise


# ---------------------------------------------------------------------------
# branch and enumerate_sufficient_selections


def test_branch_merges_seen_closures():
    """``branch`` yields a node's child arcs, ``child_closure`` builds one
    child and its ancestor masks without touching the node, two arc orders
    that reach one closure give one key, which a caller's ``seen`` set
    merges, and ``conflict_finder`` gives each node's first unresolved
    set."""
    inst = k3_instance()  # catalog (1, 2), (1, 3), (2, 3)
    first_conflict = conflict_finder(inst)

    def node_of(*arcs):
        arcs = inst.precedence + arcs
        return (tuple(closure_bitsets(inst.n_nodes, arcs)),
                tuple(ancestor_bitsets(inst.n_nodes, arcs)))

    root = node_of()
    assert first_conflict(*root) == (1, 2)
    assert list(branch(root[0], (1, 2))) == [(1, 2), (2, 1)]
    # (closure, ancestors, ancestors-or-self of i); node 0 is the source
    assert [child_closure(*root, i, j) for i, j in branch(root[0], (1, 2))] == \
        [(*node_of((1, 2)), 0b0011), (*node_of((2, 1)), 0b0101)]
    assert root == node_of()
    one_two = node_of((1, 2))
    assert first_conflict(*one_two, (1, 2)) == first_conflict(*one_two) == (1, 3)
    assert list(branch(one_two[0], (1, 2))) == [(1, 2)]  # 1 reaches 2: no arc 2 -> 1
    chain = child_closure(*one_two, 2, 3)
    assert chain == (*node_of((1, 2), (2, 3)), 0b0111)
    assert first_conflict(*chain[:2], (1, 3)) is None  # a leaf
    # 2 -> 3 then 1 -> 2 reaches the same closure as 1 -> 2 then 2 -> 3: merged
    seen = {root[0], one_two[0], chain[0]}
    two_three = child_closure(*root, 2, 3)
    assert [(i, j) for i, j in branch(two_three[0], (1, 2))
            if child_closure(*two_three[:2], i, j)[0] not in seen] == [(2, 1)]


def test_conflict_finder_matches_brute_force():
    """On closures grown by random acyclic arcs, the finder gives the least
    set of the brute-force catalog that is an antichain of the closure and
    comes after ``after``, or None: for ``after`` empty, each catalog set,
    and sorted activity tuples that are no catalog set."""
    rng = random.Random(2027)
    cases = [random_dag_instance(rng, rng.randint(1, 8), n_res=rng.randint(1, 3))
             for _ in range(25)]
    cases += [random_psplib_instance(rng, n_act=rng.randint(8, 10), n_res=rng.randint(1, 4))
              for _ in range(15)]
    for inst in cases:
        catalog = brute_force_forbidden_sets(inst)
        first_conflict = conflict_finder(inst)
        acts = range(1, inst.sink)
        arcs = set(inst.precedence)
        reach = closure_bitsets(inst.n_nodes, inst.precedence)
        ancestors = ancestor_bitsets(inst.n_nodes, inst.precedence)
        while True:
            open_sets = [f for f in catalog
                         if not any(reaches(reach, i, j) for i in f for j in f)]
            afters = [(), *catalog]
            afters += [tuple(sorted(rng.sample(acts, rng.randint(1, min(3, len(acts))))))
                       for _ in range(4)]
            for after in afters:
                expected = next((f for f in open_sets if f > after), None)
                assert first_conflict(reach, ancestors, after) == expected, (inst, arcs, after)
            free = [(i, j) for i in acts for j in acts
                    if i != j and not reaches(reach, i, j) and not reaches(reach, j, i)]
            if not free:
                break
            i, j = rng.choice(free)
            arcs.add((i, j))
            reach, ancestors, _ = child_closure(reach, ancestors, i, j)
            assert (list(reach), list(ancestors)) == \
                (closure_bitsets(inst.n_nodes, arcs), ancestor_bitsets(inst.n_nodes, arcs))


def test_enumerate_empty_catalog():
    inst = make_instance([0, 1, 0], [(0, 1), (1, 2)])
    sels = list(enumerate_sufficient_selections(inst))
    assert sels == [Selection()]


def test_enumerate_single_pair():
    inst = pair_conflict_instance()
    sels = list(enumerate_sufficient_selections(inst))
    assert [s.sorted_arcs() for s in sels] == [((1, 2),), ((2, 1),)]


def test_enumerate_k3_gives_six_orders():
    inst = k3_instance()
    catalog = minimal_forbidden_sets(inst)
    sels = list(enumerate_sufficient_selections(inst))
    closures = {closure_relation(inst, s.added_arcs) for s in sels}
    assert len(sels) == len(closures) == 6
    for s in sels:
        assert verify_selection(inst, s, catalog).sufficient


def oracle_minimal_closures(inst, catalog):
    """Brute force over all subsets of non-dummy ordered pairs."""
    base = set(inst.precedence)
    cand = [(i, j) for i in range(1, inst.sink) for j in range(1, inst.sink)
            if i != j and (i, j) not in base]
    found = set()
    for bits in range(1 << len(cand)):
        arcs = frozenset(c for idx, c in enumerate(cand) if (bits >> idx) & 1)
        verdict = verify_selection(inst, Selection(arcs), catalog)
        if verdict.sufficient:
            found.add(closure_relation(inst, arcs))
    return {rel for rel in found if not any(other < rel for other in found)}


def test_enumerate_matches_arc_subset_brute_force():
    """The shared ``branch`` step, checked through the enumerator against
    every arc subset: eight instances of three activities and four of four
    (at most 12 candidate pairs, 4,096 subsets)."""
    rng = random.Random(77)
    for n_act, count in ((3, 8), (4, 4)):
        checked = 0
        while checked < count:
            inst = random_dag_instance(rng, n_act, n_res=1)
            catalog = minimal_forbidden_sets(inst)
            if not catalog:
                continue
            checked += 1
            expected = oracle_minimal_closures(inst, catalog)
            got = {closure_relation(inst, s.added_arcs)
                   for s in enumerate_sufficient_selections(inst)}
            assert got == expected


def test_enumerate_cap():
    rng = random.Random(1)
    inst = random_dag_instance(rng, 9, n_res=1)
    with pytest.raises(CapExceeded):
        list(enumerate_sufficient_selections(inst))


def test_every_enumerated_selection_is_sufficient():
    rng = random.Random(13)
    for _ in range(15):
        inst = random_dag_instance(rng, rng.randint(2, 5), n_res=1)
        catalog = minimal_forbidden_sets(inst)
        for sel in enumerate_sufficient_selections(inst):
            assert verify_selection(inst, sel, catalog).sufficient
