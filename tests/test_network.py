import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from gen import (
    ancestor_bitsets,
    brute_force_forbidden_sets,
    closure_relation,
    connect_dummies,
    covering_pairs,
    make_instance,
    pair_conflict_instance,
    pairwise_order,
    random_dag_instance,
    random_psplib_instance,
    random_selection,
    shuffled_ids,
)
from robust_rcpsp._graph import arc_graph, predecessors, successors
from robust_rcpsp.errors import CapExceeded, CyclicGraphError
from robust_rcpsp.heuristics import lft_schedule
from robust_rcpsp.instance import from_json, robustify, to_json
from robust_rcpsp.network import (
    Selection,
    child_closure,
    conflict_finder,
    covering_arcs,
    enumerate_sufficient_selections,
    minimal_forbidden_sets,
    schedule_order,
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
    reach = arc_graph(3, [(0, 1), (1, 2)])[1]
    reachable = {(i, j) for i in range(3) for j in range(3) if (reach[i] >> j) & 1}
    assert reachable == {(0, 1), (0, 2), (1, 2)}


def test_closure_empty():
    assert arc_graph(3, []) == ([0, 1, 2], [0, 0, 0], [[], [], []], [[], [], []])


def test_closure_diamond():
    order, reach, pred, succ = arc_graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert order == [0, 1, 2, 3, 4]
    assert reach[0] == 0b11110
    assert not (reach[2] >> 3) & 1 and not (reach[3] >> 2) & 1
    assert pred == [[], [0], [1], [1], [2, 3]]
    assert succ == [[1], [2, 3], [4], [4], []]


def test_closure_cycle_error():
    with pytest.raises(CyclicGraphError):
        arc_graph(3, [(0, 1), (1, 2), (2, 0)])


def test_transpose_is_the_closure_of_the_reversed_arcs():
    """An instance's derived ``ancestors``, the transpose of its closure,
    equal the closure of its reversed arcs (``gen.ancestor_bitsets``), and
    its ``pred`` and ``succ`` equal ``predecessors`` and ``successors`` of
    its arcs, as tuples, however it was built: drawn with shuffled ids,
    read back from its JSON or robustified.  The robustified copy holds
    the very tuples of the instance it copies."""
    rng = random.Random(5)
    for k in range(40):
        drawn = shuffled_ids(rng, random_psplib_instance(rng, rng.randint(2, 20), 3) if k % 2
                             else random_dag_instance(rng, rng.randint(0, 9), robustified=False))
        robust = robustify(drawn)
        for inst in (drawn, from_json(to_json(drawn)), robust):
            n_nodes, arcs = inst.n_nodes, inst.precedence
            assert inst.ancestors == tuple(ancestor_bitsets(n_nodes, arcs))
            assert inst.pred == tuple(map(tuple, predecessors(n_nodes, arcs)))
            assert inst.succ == tuple(map(tuple, successors(n_nodes, arcs)))
        assert robust.pred is drawn.pred and robust.succ is drawn.succ
        assert robust.ancestors is drawn.ancestors


# ---------------------------------------------------------------------------
# minimal forbidden sets


def test_resource_fields_flag_exactly_the_overloaded_resources():
    """The instance's ``resource_fields``: field k of a packed row holds
    the row's requirement on k, below the field's top bit, and field k's
    overflow bit in ``empty`` plus the packed requirements of a set is set
    exactly when the set needs more than ``cap[k]``, for any set up to all
    activities together."""
    rng = random.Random(29)
    cases = [random_dag_instance(rng, rng.randint(0, 8), n_res=rng.randint(0, 3))
             for _ in range(30)]
    cases += [random_psplib_instance(rng, rng.choice((5, 30, 60)), n_res)
              for n_res in range(1, 7) for _ in range(3)]
    for inst in cases:
        packed, high, empty = inst.resource_fields
        top_bits = [1 << b for b in range(high.bit_length()) if (high >> b) & 1]
        assert len(top_bits) == len(inst.capacity)
        w = top_bits[0].bit_length() if top_bits else 0  # field 0's top bit is bit w - 1
        assert top_bits == [1 << (k * w + w - 1) for k in inst.resource_types]
        for row, total in zip(inst.requirement, packed, strict=True):
            assert total >> (len(row) * w) == 0
            assert [total >> (k * w) & ((1 << w) - 1) for k in range(len(row))] == list(row)
            assert all(r < 1 << (w - 1) for r in row)
        nodes = range(inst.n_nodes)
        subsets = [(), tuple(nodes)] + [rng.sample(nodes, rng.randint(1, inst.n_nodes))
                                        for _ in range(40)]
        for subset in subsets:
            total = empty + sum(packed[i] for i in subset)
            for k, bit in enumerate(top_bits):
                over = sum(inst.requirement[i][k] for i in subset) > inst.capacity[k]
                assert bool(total & bit) == over


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


def order_selection(inst, start):
    """The warm start's selection for these start times: the covering
    arcs of their order less the instance arcs."""
    arcs = covering_arcs(*schedule_order(inst, start))
    return Selection(frozenset(arcs).difference(inst.precedence))


def test_serial_schedule_relates_all():
    inst = k3_instance()
    start = (0, 0, 1, 2, 3)
    sel = order_selection(inst, start)
    assert sel.added_arcs == {(1, 2), (2, 3)}
    assert closure_relation(inst, sel.added_arcs) == pairwise_order(inst, start)
    assert {(1, 2), (2, 3), (1, 3)} <= pairwise_order(inst, start)
    catalog = minimal_forbidden_sets(inst)
    assert verify_selection(inst, sel, catalog).sufficient


def test_unconstrained_earliest_schedule_is_vacuously_sufficient():
    inst = make_instance([0, 2, 3, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (1,), (1,), (0,)], (2,))
    start = (0, 0, 0, 3)
    sel = order_selection(inst, start)
    catalog = minimal_forbidden_sets(inst)
    assert catalog == ()
    assert verify_selection(inst, sel, catalog).sufficient
    closure = closure_relation(inst, sel.added_arcs)
    assert closure == pairwise_order(inst, start)
    assert (1, 2) not in closure and (2, 1) not in closure


def test_zero_duration_ties_stay_acyclic():
    inst = make_instance([0, 0, 0, 0], [(0, 1), (0, 2), (1, 3), (2, 3)])
    start = (0, 0, 0, 0)
    sel = order_selection(inst, start)
    # mutual qualifications keep only the direction of the tie rank, here
    # the id order; acyclicity is checked by the closure, which would raise
    assert sel.added_arcs == {(1, 2)}
    assert closure_relation(inst, sel.added_arcs) == pairwise_order(inst, start)


def test_selection_from_schedule_is_the_pairwise_order():
    # the definition pair by pair is gen.pairwise_order; the covering arcs
    # are exactly the pairs of that order with no node between them, and
    # for start times that respect the instance arcs, the order holds
    # every instance arc, so they and the selection close to it
    rng = random.Random(77)
    for _ in range(150):
        inst = shuffled_ids(rng, random_dag_instance(rng, rng.randint(0, 7), n_res=1,
                                                     max_dur=rng.choice((0, 1, 3))))
        rank = {v: r for r, v in enumerate(arc_graph(inst.n_nodes, inst.precedence)[0])}
        dur = inst.nominal_duration
        nodes = range(inst.n_nodes)
        for feasible, start in ((True, lft_schedule(inst)),
                                (False, tuple(rng.randint(0, 4) for _ in nodes))):
            expected = pairwise_order(inst, start)
            order, cut = schedule_order(inst, start)
            assert order == sorted(nodes, key=lambda v: (start[v], dur[v] > 0, rank[v]))
            arcs = covering_arcs(order, cut)
            assert len(arcs) == len(set(arcs))
            assert set(arcs) == covering_pairs(expected)
            sel = order_selection(inst, start)
            assert sel.added_arcs == set(arcs) - set(inst.precedence)
            if feasible:
                assert set(inst.precedence) <= expected
                assert closure_relation(inst, sel.added_arcs) == expected


# ---------------------------------------------------------------------------
# the branching routine and enumerate_sufficient_selections


def test_branch_merges_seen_closures():
    """A node's child arcs are the ordered pairs of its branching set,
    ``child_closure`` builds one child and its ancestor masks without
    touching the node, two arc orders that reach one closure give one key,
    which a caller's ``seen`` set merges, and ``conflict_finder`` gives
    each node's smallest unresolved set, the first of its size."""
    inst = k3_instance()  # catalog (1, 2), (1, 3), (2, 3)
    first_conflict = conflict_finder(inst)

    def node_of(*arcs):
        arcs = inst.precedence + arcs
        return (tuple(arc_graph(inst.n_nodes, arcs)[1]),
                tuple(ancestor_bitsets(inst.n_nodes, arcs)))

    root = node_of()
    assert first_conflict(*root) == (1, 2)
    # (closure, ancestors, ancestors-or-self of i); node 0 is the source
    assert [child_closure(*root, i, j) for i, j in permutations((1, 2))] == \
        [(*node_of((1, 2)), 0b0011), (*node_of((2, 1)), 0b0101)]
    assert root == node_of()
    one_two = node_of((1, 2))
    assert first_conflict(*one_two) == (1, 3)
    chain = child_closure(*one_two, 2, 3)
    assert chain == (*node_of((1, 2), (2, 3)), 0b0111)
    assert first_conflict(*chain[:2]) is None  # a leaf
    # 2 -> 3 then 1 -> 2 reaches the same closure as 1 -> 2 then 2 -> 3: merged
    seen = {root[0], one_two[0], chain[0]}
    two_three = child_closure(*root, 2, 3)
    assert first_conflict(*two_three[:2]) == (1, 2)
    assert [(i, j) for i, j in permutations((1, 2))
            if child_closure(*two_three[:2], i, j)[0] not in seen] == [(2, 1)]


def test_conflict_finder_matches_brute_force():
    """On closures grown by random acyclic arcs, the finder gives the
    smallest set of the brute-force catalog that is an antichain of the
    closure, ties broken lexicographically, or None.  Half the arcs come
    from the finder's own set, so the walks reach triples once every pair
    is resolved (the finder's triple rows), sets of four or more members
    once every triple is too (its kernel from cap 4), and leaves.  The
    cases include a requirement equal to its capacity, a resource that no
    activity uses and an instance with no resources."""
    rng = random.Random(2027)
    cases = [random_dag_instance(rng, rng.randint(1, 8), n_res=rng.randint(1, 3))
             for _ in range(25)]
    cases += [random_psplib_instance(rng, n_act=rng.randint(8, 10), n_res=rng.randint(1, 4))
              for _ in range(15)]
    for _ in range(5):
        inst = random_dag_instance(rng, rng.randint(4, 8), n_res=3)
        # Each used resource's capacity is its largest requirement; then
        # no activity uses resource 2.
        cases.append(replace(inst, capacity=tuple(max(*col, 1) for col in zip(*inst.requirement))))
        cases.append(replace(inst, requirement=tuple(row[:2] + (0,) for row in inst.requirement)))
    cases.append(random_dag_instance(rng, 6))  # no resources
    sizes = set()
    for inst in cases:
        catalog = brute_force_forbidden_sets(inst)
        first_conflict = conflict_finder(inst)
        acts = range(1, inst.sink)
        arcs = set(inst.precedence)
        reach = arc_graph(inst.n_nodes, inst.precedence)[1]
        ancestors = ancestor_bitsets(inst.n_nodes, inst.precedence)
        # The pairs and triples the finder can return are the instance's
        # minimal forbidden sets of two and three members: the catalog's,
        # once related ones go.  A set of two or three activities is the
        # finder's answer on a relation that leaves only its own members
        # unrelated exactly when it is one of them.
        everything = (1 << inst.n_nodes) - 1
        unrelated = [s for size in (2, 3) for s in combinations(acts, size)
                     if not any((reach[i] >> j) & 1 for i in s for j in s)]
        no_ancestors = (0,) * inst.n_nodes
        assert sorted(s for s in unrelated if first_conflict(tuple(
            everything & ~sum(1 << m for m in s) if v in s else everything
            for v in range(inst.n_nodes)), no_ancestors) == s) \
            == [f for f in catalog if len(f) <= 3]
        while True:
            open_sets = [f for f in catalog
                         if not any((reach[i] >> j) & 1 for i in f for j in f)]
            expected = min(open_sets, key=lambda f: (len(f), f), default=None)
            fset = first_conflict(reach, ancestors)
            assert fset == expected, (inst, arcs)
            sizes.add(None if fset is None else min(len(fset), 4))
            free = [(i, j) for i in acts for j in acts
                    if i != j and not (reach[i] >> j) & 1 and not (reach[j] >> i) & 1]
            if not free:
                break
            if fset and rng.random() < 0.5:
                i, j = rng.choice(list(permutations(fset, 2)))
            else:
                i, j = rng.choice(free)
            arcs.add((i, j))
            reach, ancestors, _ = child_closure(reach, ancestors, i, j)
            assert (list(reach), list(ancestors)) == \
                (arc_graph(inst.n_nodes, arcs)[1], ancestor_bitsets(inst.n_nodes, arcs))
    assert sizes == {2, 3, 4, None}


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
    """The shared branching step, checked through the enumerator against
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
