"""Worst-case makespan evaluation for a fixed selection.

The adversary distributes up to ``gamma`` unit delays over activities to
maximise the minimum makespan.  For integer budgets this is a longest path
over leveled states (node, number of delays so far): staying on a level
costs the nominal duration of the tail activity, moving up one level costs
its worst-case duration (``ProjectInstance.worst_case_duration``).
``relax_leveled_rows`` is the one kernel for that recursion, and
``leveled_rows`` its one from-scratch run and the one check that the
budget is nonnegative.  The same rows are the leveled start times of the
compact model (the warm start), their level-zero column is the nominal
earliest start (the time windows), and the branch-and-bound raises them
incrementally as it adds arcs; ``tail_rows`` runs it backward on
successor lists.

Also houses the single-level linearized adversary model as one labelled
constraint matrix with its objective, the Ghouila-Houri refutation of its
total unimodularity, and the checker of a fractional certificate: a point
of that matrix, given as a mapping from its column labels to values.  On
the three-activity diamond example a fractional flow strictly beats every
integral delay choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from ._graph import predecessors, successors, topological_order
from .errors import CapExceeded
from .instance import InstanceMeta, ProjectInstance
from .network import Selection, extended_arcs


# ---------------------------------------------------------------------------
# Dynamic program


@dataclass(frozen=True)
class DpResult:
    value: int
    delayed: frozenset[int]
    path: tuple[int, ...]
    # [node][level]: the longest path from the source to the node with at
    # most ``level`` delays.
    leveled_starts: tuple[tuple[int, ...], ...]


def relax_leveled_rows(rows, order, dirty, pred, nominal, delayed):
    """The leveled longest-path kernel: raise in place the rows of the
    nodes in ``order`` through their predecessors in the bitmask ``dirty``.

    ``rows[j][g]`` is the longest path from the source to ``j`` with at
    most ``g`` delays:
    W(j, g) = max over i in pred[j] of max(W(i, g) + nominal_i,
    W(i, g-1) + delayed_i), with W(source, .) = 0.  Durations are
    nonnegative and every activity is reachable from the source, so rows
    that start at zero and are only raised hold no unreachable state.

    ``order`` must be topological.  A row is copied once before it is
    raised, so rows shared with other tables are never written; a node
    whose row rises becomes dirty for the nodes after it.

    Run on successor lists, in an order where every node comes after its
    successors, the sink plays the source: ``rows[j][g]`` becomes the
    longest path from the finish of ``j`` to the sink with at most ``g``
    delays (``tail_rows``).  Every activity reaches the sink, so the same
    zero start holds no unreachable state.
    """
    for j in order:
        old = rows[j]
        new = None
        for i in pred[j]:
            if not (dirty >> i) & 1:
                continue
            if new is None:
                new = list(old)
            row = rows[i]
            a = nominal[i]
            b = delayed[i]
            prev = row[0]
            if prev + a > new[0]:
                new[0] = prev + a
            for g in range(1, len(new)):
                cur = row[g]
                x = cur + a
                y = prev + b
                if y > x:
                    x = y
                if x > new[g]:
                    new[g] = x
                prev = cur
        if new is not None and new != old:
            rows[j] = new
            dirty |= 1 << j


def leveled_rows(inst: ProjectInstance, gamma: int, order, adj) -> list[list[int]]:
    """``relax_leveled_rows`` from scratch, all rows zero and every node
    dirty, over a topological ``order`` and predecessor lists ``adj`` (or
    the reverse, on successor lists).  Rejects a negative ``gamma``."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    rows = [[0] * (gamma + 1)] * inst.n_nodes  # one shared row: the kernel copies before it raises
    relax_leveled_rows(rows, order, -1, adj, inst.nominal_duration, inst.worst_case_duration)
    return rows


def worst_case_makespan_dp(inst: ProjectInstance, sel: Selection, gamma: int) -> DpResult:
    """Worst-case makespan of a selection, with one worst delay set.

    ``leveled_rows`` over the extended network in topological order (which
    rejects cyclic extensions; without added arcs it is ``inst.order``);
    the value is W(sink, gamma) and ``leveled_starts`` holds every row.
    """
    arcs = extended_arcs(inst, sel)
    n_nodes = inst.n_nodes
    pred = predecessors(n_nodes, arcs)
    order = topological_order(n_nodes, arcs) if sel.added_arcs else inst.order
    rows = leveled_rows(inst, gamma, order, pred)
    delays, path = _backtrack(rows, pred, inst, gamma)
    return DpResult(value=rows[inst.sink][gamma], delayed=frozenset(delays), path=tuple(path),
                    leveled_starts=tuple(map(tuple, rows)))


def tail_rows(inst: ProjectInstance, gamma: int) -> list[list[int]]:
    """The backward pass over the instance arcs: ``rows[v][g]`` is the
    longest path from the finish of ``v`` to the sink with at most ``g``
    delays, from ``leveled_rows`` on the successor lists in reversed
    ``inst.order``."""
    return leveled_rows(inst, gamma, reversed(inst.order),
                        successors(inst.n_nodes, inst.precedence))


def _backtrack(rows, pred, inst, gamma):
    """Recover one optimal delay set; prefers non-delayed predecessors, so
    vacuous delays are never reported."""
    nominal, delayed, sink = inst.nominal_duration, inst.worst_case_duration, inst.sink
    delays = []
    path = [sink]
    j, g = sink, gamma
    while j != 0:
        target = rows[j][g]
        step = next((i for i in sorted(pred[j]) if rows[i][g] + nominal[i] == target), None)
        if step is None and g > 0:
            step = next((i for i in sorted(pred[j])
                         if rows[i][g - 1] + delayed[i] == target), None)
            if step is not None:
                delays.append(step)
                g -= 1
        if step is None:  # pragma: no cover - recursion and backtrack disagree
            raise AssertionError("backtracking failed to reproduce the DP value")
        path.append(step)
        j = step
    path.reverse()
    return delays, path


def worst_case_makespan_bruteforce(inst: ProjectInstance, sel: Selection, gamma: int,
                                   max_activities: int = 20, max_budget: int = 3) -> int:
    """Independent oracle: enumerate every delay subset of size <= gamma.

    Valid because the worst case of a longest-path value, convex in the
    durations, is attained at a 0/1 vertex of the budget polytope when the
    budget is integer.  Refuses oversized inputs.
    """
    if inst.n_activities > max_activities:
        raise CapExceeded(
            f"{inst.n_activities} non-dummy activities exceed the cap of {max_activities}"
        )
    if gamma > max_budget:
        raise CapExceeded(f"budget {gamma} exceeds the cap of {max_budget}")
    arcs = extended_arcs(inst, sel)
    n_nodes = inst.n_nodes
    order = topological_order(n_nodes, arcs)
    pred = predecessors(n_nodes, arcs)
    candidates = [i for i in range(n_nodes) if inst.max_deviation[i] > 0]

    def critical_path(delayed):
        dist = [None] * n_nodes
        dist[0] = 0
        for v in order:
            if v == 0:
                continue
            best = None
            for p in pred[v]:
                if dist[p] is None:
                    continue
                w = inst.nominal_duration[p]
                if p in delayed:
                    w += inst.max_deviation[p]
                cand = dist[p] + w
                if best is None or cand > best:
                    best = cand
            dist[v] = best
        return dist[inst.sink]

    best = critical_path(frozenset())
    for size in range(1, min(gamma, len(candidates)) + 1):
        for combo in combinations(candidates, size):
            best = max(best, critical_path(frozenset(combo)))
    return best


# ---------------------------------------------------------------------------
# Fractional certificates for the single-level linearized adversary


@dataclass(frozen=True)
class CertificateCheck:
    feasible: bool
    objective: Fraction
    violations: tuple[str, ...] = ()


def check_fractional_certificate(inst: ProjectInstance, sel: Selection, gamma: int,
                                 cert: dict) -> CertificateCheck:
    """Exact check of a certificate, a mapping from the column labels of
    ``build_adversary_constraint_matrix`` to values (a missing label is 0),
    against the matrix's rows and the nonnegativity of its columns.

    Flows on absent arcs are fixed to zero by the precondition, so a label
    that is not a column raises ``ValueError``.  A cyclic extension raises
    ``CyclicGraphError``, as in the DP.
    """
    matrix = build_adversary_constraint_matrix(inst, sel, gamma)
    columns = set(matrix.column_labels)
    unknown = [label for label in cert if label not in columns]
    if unknown:
        raise ValueError(f"certificate names {unknown} outside the columns of the extended network")
    x = [Fraction(cert.get(label, 0)) for label in matrix.column_labels]
    violations = [f"{label}={v} negative"
                  for label, v in zip(matrix.column_labels, x) if v < 0]
    for label, row, sense, rhs in zip(matrix.row_labels, matrix.entries,
                                      matrix.senses, matrix.rhs):
        lhs = sum(c * v for c, v in zip(row, x) if c)
        if (lhs != rhs) if sense == "=" else (lhs > rhs):
            violations.append(f"{label}: {lhs} {sense} {rhs} violated")
    objective = sum((c * v for c, v in zip(matrix.objective, x) if c), Fraction(0))
    return CertificateCheck(feasible=not violations, objective=objective,
                            violations=tuple(violations))


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
# The three-activity diamond example


def counterexample_instance() -> ProjectInstance:
    """Diamond project: 0 -> 1 -> {2, 3} -> 4, unit durations and deviations.

    With a budget of one delay the integral adversary reaches makespan 3,
    while splitting the flow across both branches reaches 7/2.
    """
    return ProjectInstance(
        nominal_duration=(0, 1, 1, 1, 0),
        max_deviation=(0, 1, 1, 1, 0),
        requirement=((), (), (), (), ()),
        capacity=(),
        precedence=((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),
        meta=InstanceMeta(name="counterexample"),
    )


def counterexample_certificate() -> dict[str, Fraction]:
    """The fractional split beating the integral optimum on the diamond."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return {"a_0_1": 1, "a_1_2": half, "a_1_3": half, "a_2_4": half, "a_3_4": half,
            "w_1_2": half, "w_1_3": half, "w_2_4": quarter, "w_3_4": quarter,
            "d_1": half, "d_2": quarter, "d_3": quarter}


# ---------------------------------------------------------------------------
# Constraint matrix and Ghouila-Houri refutation


@dataclass(frozen=True)
class AdversaryMatrix:
    """Single-level linearized adversary as labelled rows over columns
    x >= 0: row r reads ``entries[r] . x  senses[r]  rhs[r]``, with
    ``senses[r]`` one of ``"="`` and ``"<="``.

    Row order: flow conservation at internal activities (by id, ``= 0``),
    ``source`` and ``sink`` (``= 1``); then per-arc w <= delta rows and
    per-arc w <= alpha rows (``<= 0``); the ``budget`` row (``<= gamma``);
    and per-activity delta upper bounds (``<= 1``).  Columns: alpha block
    ``a_i_j``, w block ``w_i_j``, delta block ``d_v``, each in arc order or
    by id.  The adversary maximises ``objective . x``: the nominal duration
    of ``i`` on ``a_i_j``, its deviation on ``w_i_j`` and 0 on ``d_v``.

    No row bounds alpha by 1: a nonnegative unit flow on an acyclic
    network carries at most 1 on every arc, and the builder rejects
    cyclic extensions.
    """

    entries: tuple[tuple[int, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[int, ...]
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    groups: dict = field(hash=False)
    arcs: tuple[tuple[int, int], ...]
    objective: tuple[int, ...]


@dataclass(frozen=True)
class TuVerdict:
    """Outcome of a Ghouila-Houri row-subset check.

    ``refuted`` means no +/-1 signing keeps every column sum in {-1, 0, 1},
    certifying that the matrix is not totally unimodular.
    """

    refuted: bool
    assignment: tuple[int, ...] | None = None


def build_adversary_constraint_matrix(inst: ProjectInstance, sel: Selection,
                                      gamma: int) -> AdversaryMatrix:
    """The rows of the linearized adversary over the extended network of
    ``sel``, with ``gamma`` as the budget; raises ``CyclicGraphError`` on a
    cyclic extension."""
    arcs = extended_arcs(inst, sel)
    topological_order(inst.n_nodes, arcs)
    n_nodes = inst.n_nodes
    sink = inst.sink
    n_arcs = len(arcs)
    col_w = n_arcs
    col_d = 2 * n_arcs
    n_cols = col_d + n_nodes

    spec = []
    bounds = [0]

    def add(label, terms, sense, rhs):
        row = [0] * n_cols
        for col, coef in terms:
            row[col] += coef
        spec.append((label, tuple(row), sense, rhs))

    for node in range(1, sink):
        add(f"flow_{node}", [(idx, (j == node) - (i == node)) for idx, (i, j) in enumerate(arcs)],
            "=", 0)
    add("source", [(idx, 1) for idx, (i, _) in enumerate(arcs) if i == 0], "=", 1)
    add("sink", [(idx, 1) for idx, (_, j) in enumerate(arcs) if j == sink], "=", 1)
    bounds.append(len(spec))
    for idx, (i, j) in enumerate(arcs):
        add(f"wle_d_{i}_{j}", [(col_w + idx, 1), (col_d + i, -1)], "<=", 0)
    bounds.append(len(spec))
    for idx, (i, j) in enumerate(arcs):
        add(f"wle_a_{i}_{j}", [(idx, -1), (col_w + idx, 1)], "<=", 0)
    bounds.append(len(spec))
    add("budget", [(col_d + node, 1) for node in range(n_nodes)], "<=", gamma)
    bounds.append(len(spec))
    for node in range(n_nodes):
        add(f"dub_{node}", [(col_d + node, 1)], "<=", 1)
    bounds.append(len(spec))
    labels, rows, senses, rhs = zip(*spec)

    columns = (
        [f"a_{i}_{j}" for i, j in arcs]
        + [f"w_{i}_{j}" for i, j in arcs]
        + [f"d_{v}" for v in range(n_nodes)]
    )
    return AdversaryMatrix(
        entries=rows,
        senses=senses,
        rhs=rhs,
        row_labels=labels,
        column_labels=tuple(columns),
        groups={f"group{g}": (bounds[g - 1], bounds[g]) for g in range(1, 6)},
        arcs=arcs,
        objective=(tuple(inst.nominal_duration[i] for i, _ in arcs)
                   + tuple(inst.max_deviation[i] for i, _ in arcs) + (0,) * n_nodes),
    )


def refutation_row_subset(matrix: AdversaryMatrix) -> tuple[int, ...]:
    """Five rows witnessing non-total-unimodularity.

    Takes the balance row of the smallest node with two outgoing arcs plus
    the w <= delta and w <= alpha rows of its first two out-arcs; the shared
    delta column then forces an unsatisfiable sign pattern.
    """
    out = {}
    for i, j in matrix.arcs:
        out.setdefault(i, []).append((i, j))
    branch = next((v for v in sorted(out) if len(out[v]) >= 2), None)
    if branch is None:
        raise ValueError("no activity with two outgoing arcs; witness unavailable")
    arc_a, arc_b = sorted(out[branch])[:2]
    g1_row = matrix.row_labels.index("source" if branch == 0 else f"flow_{branch}")
    rows = [
        g1_row,
        matrix.row_labels.index(f"wle_d_{arc_a[0]}_{arc_a[1]}"),
        matrix.row_labels.index(f"wle_d_{arc_b[0]}_{arc_b[1]}"),
        matrix.row_labels.index(f"wle_a_{arc_a[0]}_{arc_a[1]}"),
        matrix.row_labels.index(f"wle_a_{arc_b[0]}_{arc_b[1]}"),
    ]
    return tuple(rows)


def matrix_to_csv(matrix: AdversaryMatrix) -> str:
    """Labelled CSV rendering of the constraint matrix for inspection."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "group"] + list(matrix.column_labels))
    group_of = {}
    for name, (lo, hi) in matrix.groups.items():
        for idx in range(lo, hi):
            group_of[idx] = name
    for idx, (label, row) in enumerate(zip(matrix.row_labels, matrix.entries)):
        writer.writerow([label, group_of[idx]] + list(row))
    return buf.getvalue()


def ghouila_houri_refute(entries, rows) -> TuVerdict:
    """Exhaust all sign assignments of the rows ``rows`` of ``entries``, a
    sequence of equal-length integer rows such as ``AdversaryMatrix.entries``.
    Refuses more than 25 rows (2^25 assignments).
    """
    rows = tuple(rows)
    if len(rows) > 25:
        raise CapExceeded(f"{len(rows)} rows exceed the exhaustive-search cap of 25")
    if not rows:
        return TuVerdict(refuted=False, assignment=())
    selected = [entries[r] for r in rows]
    n_cols = len(selected[0])
    active_cols = [c for c in range(n_cols) if any(row[c] for row in selected)]
    for signs in product((1, -1), repeat=len(rows)):
        ok = True
        for c in active_cols:
            total = sum(s * row[c] for s, row in zip(signs, selected))
            if total < -1 or total > 1:
                ok = False
                break
        if ok:
            return TuVerdict(refuted=False, assignment=signs)
    return TuVerdict(refuted=True, assignment=None)
