"""Shared test helpers: instance builders, random generators, and an
independent PSPLIB text renderer used to synthesize corpus files."""
from __future__ import annotations

import random
from dataclasses import replace

from robust_rcpsp._graph import add_arc_to_closure, ancestor_bitsets, closure_bitsets, reaches
from robust_rcpsp.instance import InstanceMeta, ProjectInstance, robustify
from robust_rcpsp.network import Selection


def make_instance(durations, arcs, requirements=None, capacities=(), deviations=None,
                  name="test"):
    """Build an instance from non-dummy-friendly inputs.

    ``durations`` covers all nodes including dummies; ``arcs`` must already
    include dummy wiring.
    """
    n = len(durations)
    if requirements is None:
        requirements = [()] * n
    if deviations is None:
        deviations = (0,) * n
    return ProjectInstance(
        nominal_duration=tuple(durations),
        max_deviation=tuple(deviations),
        requirement=tuple(tuple(r) for r in requirements),
        capacity=tuple(capacities),
        precedence=tuple(arcs),
        meta=InstanceMeta(name=name),
    )


def pair_conflict_instance():
    """Two unit-duration activities that both need the full capacity."""
    return make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3), (2, 3)],
                         [(0,), (2,), (2,), (0,)], (2,))


def connect_dummies(n_act, inner_arcs):
    """Wire the dummy source/sink around arcs over activities 1..n_act."""
    arcs = set(inner_arcs)
    has_pred = {j for _, j in arcs}
    has_succ = {i for i, _ in arcs}
    sink = n_act + 1
    for v in range(1, n_act + 1):
        if v not in has_pred:
            arcs.add((0, v))
        if v not in has_succ:
            arcs.add((v, sink))
    if n_act == 0:
        arcs.add((0, sink))
    return arcs


def random_dag_instance(rng: random.Random, n_act, n_res=0, max_dur=9, arc_prob=0.35,
                        robustified=True):
    inner = {(i, j) for i in range(1, n_act + 1) for j in range(i + 1, n_act + 1)
             if rng.random() < arc_prob}
    arcs = connect_dummies(n_act, inner)
    n = n_act + 2
    dur = [0] + [rng.randint(0, max_dur) for _ in range(n_act)] + [0]
    if n_res:
        req = [tuple(rng.randint(0, 4) for _ in range(n_res)) for _ in range(n_act)]
        cap = tuple(max(max((r[k] for r in req), default=1), 1) + rng.randint(0, 2)
                    for k in range(n_res))
        reqs = [(0,) * n_res] + req + [(0,) * n_res]
    else:
        cap = ()
        reqs = [()] * n
    inst = make_instance(dur, arcs, reqs, cap, name=f"rand{n_act}")
    return robustify(inst) if robustified else inst


def shuffled_ids(rng: random.Random, inst):
    """The same project with its non-dummy ids permuted, so that instance
    arcs may run from a higher id to a lower one."""
    perm = [0] + rng.sample(range(1, inst.sink), inst.n_activities) + [inst.sink]
    n = inst.n_nodes
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return replace(inst,
                   nominal_duration=tuple(inst.nominal_duration[inv[v]] for v in range(n)),
                   max_deviation=tuple(inst.max_deviation[inv[v]] for v in range(n)),
                   requirement=tuple(inst.requirement[inv[v]] for v in range(n)),
                   precedence=tuple((perm[i], perm[j]) for i, j in inst.precedence))


def random_selection(rng: random.Random, inst, max_arcs=3):
    """A random acyclic selection over non-dummy pairs."""
    reach = closure_bitsets(inst.n_nodes, inst.precedence)
    ancestors = ancestor_bitsets(inst.n_nodes, inst.precedence)
    base = set(inst.precedence)
    added = set()
    candidates = [(i, j) for i in range(1, inst.sink) for j in range(1, inst.sink)
                  if i != j and (i, j) not in base]
    rng.shuffle(candidates)
    for i, j in candidates:
        if len(added) >= max_arcs:
            break
        if reaches(reach, j, i) or reaches(reach, i, j):
            continue
        add_arc_to_closure(reach, ancestors, i, j)
        added.add((i, j))
    return Selection(frozenset(added))


def brute_force_forbidden_sets(inst):
    """Independent oracle: enumerate every activity subset."""
    from itertools import combinations

    n = inst.n_nodes
    reach = closure_bitsets(n, inst.precedence)
    acts = list(range(1, inst.sink))

    def unrelated(subset):
        return all(
            not (reach[i] >> j) & 1 and not (reach[j] >> i) & 1
            for i in subset for j in subset if i < j
        )

    def violates(subset):
        return any(sum(inst.requirement[i][k] for i in subset) > inst.capacity[k]
                   for k in inst.resource_types)

    forbidden = [frozenset(s) for size in range(1, len(acts) + 1)
                 for s in combinations(acts, size)
                 if unrelated(s) and violates(s)]
    minimal = [f for f in forbidden if not any(o < f for o in forbidden)]
    return tuple(sorted(tuple(sorted(f)) for f in minimal))


def closure_relation(inst, extra_arcs=()):
    """The full reachability relation of the extended network as pairs."""
    arcs = tuple(set(inst.precedence) | set(extra_arcs))
    reach = closure_bitsets(inst.n_nodes, arcs)
    n = inst.n_nodes
    return frozenset((i, j) for i in range(n) for j in range(n) if (reach[i] >> j) & 1)


def psplib_text(inst, name="SYNTH"):
    """Render an instance in the official single-mode PSPLIB layout."""
    n = inst.n_nodes
    k = len(inst.capacity)
    assert k >= 1, "PSPLIB files carry at least one renewable resource"
    succ = {i + 1: [] for i in range(n)}
    for i, j in inst.precedence:
        succ[i + 1].append(j + 1)
    horizon = sum(inst.nominal_duration) or 1
    rule = "*" * 72
    res_header = "  ".join(f"R {idx + 1}" for idx in range(k))
    lines = [
        rule,
        f"file with basedata            : {name}.BAS",
        "initial value random generator: 42",
        rule,
        "projects                      :  1",
        f"jobs (incl. supersource/sink ):  {n}",
        f"horizon                       :  {horizon}",
        "RESOURCES",
        f"  - renewable                 :  {k}   R",
        "  - nonrenewable              :  0   N",
        "  - doubly constrained        :  0   D",
        rule,
        "PROJECT INFORMATION:",
        "pronr.  #jobs rel.date duedate tardcost  MPM-Time",
        f"    1     {n - 2}      0       {horizon}        0       {horizon}",
        rule,
        "PRECEDENCE RELATIONS:",
        "jobnr.    #modes  #successors   successors",
    ]
    for job in range(1, n + 1):
        succs = sorted(succ[job])
        succ_txt = ("   " + "  ".join(str(s) for s in succs)) if succs else ""
        lines.append(f"  {job:>4}        1          {len(succs)}{succ_txt}")
    lines += [
        rule,
        "REQUESTS/DURATIONS:",
        f"jobnr. mode duration  {res_header}",
        "-" * 72,
    ]
    for job in range(1, n + 1):
        act = job - 1
        req_txt = "  ".join(f"{inst.requirement[act][kk]:>3}" for kk in range(k))
        lines.append(f"  {job:>4}      1    {inst.nominal_duration[act]:>3}    {req_txt}")
    lines += [
        rule,
        "RESOURCEAVAILABILITIES:",
        f"  {res_header}",
        "  " + "  ".join(f"{c:>3}" for c in inst.capacity),
        rule,
        "",
    ]
    return "\n".join(lines)


def random_psplib_instance(rng: random.Random, n_act=30, n_res=4):
    """A j30-shaped instance: 30 activities, 4 resources, durations 1..10."""
    inner = set()
    for j in range(2, n_act + 1):
        for i in rng.sample(range(1, j), k=min(len(range(1, j)), rng.randint(0, 2))):
            inner.add((i, j))
    arcs = connect_dummies(n_act, inner)
    dur = [0] + [rng.randint(1, 10) for _ in range(n_act)] + [0]
    req = []
    for _ in range(n_act):
        row = [0] * n_res
        for k in rng.sample(range(n_res), k=rng.randint(1, n_res)):
            row[k] = rng.randint(1, 6)
        req.append(tuple(row))
    cap = tuple(max(max(r[k] for r in req), 1) + rng.randint(2, 8) for k in range(n_res))
    reqs = [(0,) * n_res] + req + [(0,) * n_res]
    return make_instance(dur, arcs, reqs, cap, name=f"j30synth")
