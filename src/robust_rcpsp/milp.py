"""Solver-neutral compact model of the two-stage robust RCPSP.

Variables: leveled start times S_i_g, precedence binaries y_i_j, and
resource flows f_i_j_k.  The big-M precedence rows replicate the extended
network across gamma+1 levels (one extra level shift per delayed
predecessor), the flow rows route each resource from the source through the
activities to the sink, and optional extensions add transitivity rows,
per-arc tightened big-Ms from time windows, and integer start variables.

The model is exported in the standard LP text format; ``solve_external``
bridges to any solver process that accepts an LP file and writes back a
status line plus ``name value`` pairs.

``build_compact`` composes the model from three blocks, in this order, and
each block reads only its own inputs:

- the leveled block: the ``S`` columns and the ``nom_``/``dev_`` rows, from
  gamma, ``integral_starts``, the nominal durations, the deviations, and
  the windows' ``es``/``lf`` (or none), whose horizon is checked against
  the instance's nominal critical path, ``nominal_tail[0]``, so no build
  runs the adversary DP;
- the selection block: the ``y`` and ``f`` columns and the ``cap_``,
  ``fin_`` and ``fout_`` rows, from the precedence, the capacities and the
  requirements;
- the transitivity block: the ``pair_`` and ``tri_`` rows, from the node
  count alone.

The leveled and selection builders each split into a frame and a fill.
The frame is what the block holds whatever the instance, made once per
shape: the leveled frame per node count and gamma, the selection frame
per node and resource counts.  It holds the column and row names, the
``(name, +-1)`` terms that read no instance data, and the text of each
row's LP line up to where the instance's numbers go (for a leveled row,
its big-M; for a ``cap_`` row, the capacity; for a balance row, its
right-hand side).  The fill writes only those numbers, and makes the
rows and their text with ``map``/``zip`` over the frame.  The
transitivity block reads nothing but the node count, so it is a frame
alone.  ``export_lp`` only joins the texts of a model's blocks, section
by section; ``_render_rows`` writes the rows of a model without blocks,
one by one, and is the referee the tests hold each block's text to.  The
cyclic collector is paused while a build runs
(``_collector.collector_paused``): a build makes tens of thousands of
tracked rows, none in a cycle.

Every frame and block follows one cache rule: it is a
``functools.lru_cache(maxsize=1)`` function of exactly its inputs, so it
is rebuilt exactly when they change, emptied by its ``cache_clear``, and
the result it replaces is freed after the new one is built.  Models that
read equal inputs share the same row and column objects and the same
text: the four bench variants of one instance at one gamma build two
leveled blocks and one selection block, and every transitivity model of
one size shares one transitivity block.  Instances of one size at one
gamma share their frames, so their blocks share every name string.  A
model holds the blocks it was built from.  Rows are immutable named
tuples and the model is frozen, so a model's rows are its blocks' rows; a
model made any other way holds no blocks and is written as one block of
its own.  Every number is an int.  At j30 and gamma 7 (tracemalloc, text
included), the leveled frame takes about 2.6 MB and the selection frame
1.6 MB; above them a leveled block takes 3.1-3.4 MB and a selection
block 1.0-1.2 MB, and the transitivity block 8.7-8.9 MB.  A sweep that
changes gamma every few builds pays for a new leveled frame at each
change: 5-8 ms at j30 and gamma 3-7 (best of 15, Python 3.11 on a 2-core
machine).
"""
from __future__ import annotations

import functools
import shlex
import string
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from operator import add
from pathlib import Path
from typing import NamedTuple

from . import highs_bridge
from ._collector import collector_paused
from ._graph import arc_graph
from .errors import BridgeError, InvalidHorizonError
from .heuristics import TimeWindows, WarmStart
from .instance import ProjectInstance
from .network import extended_arcs


def start_name(i, g):
    return f"S_{i}_{g}"


def arc_name(i, j):
    return f"y_{i}_{j}"


def flow_name(i, j, k):
    return f"f_{i}_{j}_{k}"


class Variable(NamedTuple):
    name: str
    kind: str  # "continuous" | "integer" | "binary"
    lb: int = 0
    ub: int | None = None


class LinearConstraint(NamedTuple):
    name: str
    coeffs: tuple[tuple[str, int], ...]
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: tuple[tuple[str, int], ...]  # minimized
    # The blocks whose rows, in order, are the constraints; only
    # build_compact sets them, so a copy or a hand-made model has none.
    blocks: tuple = field(default=(), init=False, repr=False, compare=False)


@collector_paused
def build_compact(inst: ProjectInstance, gamma: int, *,
                  transitivity: bool = False,
                  tighten: TimeWindows | None = None,
                  integral_starts: bool = False) -> MilpModel:
    """Build the compact reformulation as a solver-neutral model.

    ``tighten`` replaces the global big-M by per-arc values derived from the
    window bounds: lf[i] - es[j] on same-level rows and additionally the
    deviation of i on level-crossing rows, both clamped at zero.  Zero
    coefficients are dropped from the big-M and transitivity rows.

    The model is the leveled block, then the selection block, then the
    transitivity block if asked for, and it holds those blocks; each comes
    from its builder's cache.  The cyclic collector is paused while the
    build runs (``_collector.collector_paused``).  Raises ``ValueError``
    for a negative gamma or for ``tighten`` windows whose length is not
    the instance's node count, and ``InvalidHorizonError`` for a
    ``tighten`` horizon below the nominal critical path,
    ``inst.nominal_tail[0]``.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if tighten is not None and not len(tighten.es) == len(tighten.lf) == inst.n_nodes:
        raise ValueError(f"tightening windows of length {len(tighten.es)} (es) and "
                         f"{len(tighten.lf)} (lf) for an instance of {inst.n_nodes} nodes")
    if tighten is not None and tighten.horizon < inst.nominal_tail[0]:
        raise InvalidHorizonError(
            f"tightening horizon {tighten.horizon} is below the nominal critical path"
        )
    windows = None if tighten is None else (tuple(tighten.es), tuple(tighten.lf))
    blocks = (_leveled_block(gamma, integral_starts, inst.nominal_duration,
                             inst.max_deviation, windows),
              _selection_block(inst.precedence, inst.capacity, inst.requirement))
    if transitivity:
        blocks += (_transitivity_block(inst.n_nodes),)
    model = MilpModel(
        variables=sum((block.columns for block in blocks), ()),
        constraints=sum((block.rows for block in blocks), ()),
        objective=((start_name(inst.sink, gamma), 1),),
    )
    object.__setattr__(model, "blocks", blocks)
    return model


class _Block(NamedTuple):
    """A builder's columns and rows with their LP text, written once: the
    rows' lines, and the columns' lines of the ``Bounds``, ``Generals``
    and ``Binaries`` sections, each section's lines joined."""
    columns: tuple[Variable, ...]
    rows: tuple[LinearConstraint, ...]
    text: str
    bounds: str
    generals: str
    binaries: str


def _block(columns, rows, lines):
    """The block of ``columns`` and ``rows``, whose LP lines are ``lines``."""
    return _Block(columns, rows, "\n".join(lines), *_column_sections(columns))


# A row from its (name, coeffs, sense, rhs) tuple, made in C without a
# call of the named tuple's Python-level __new__.
_new_row = functools.partial(tuple.__new__, LinearConstraint)


class _LeveledFrame(NamedTuple):
    """What the leveled block of ``n_nodes`` nodes at ``gamma`` holds
    whatever the instance.

    - ``starts`` and ``columns``: the start names ``S_i_g``, node by node,
      and, by kind, their columns;
    - ``pairs``: each ordered pair ``(i, j, y_i_j)``;
    - ``names`` and ``terms``: each row's name and start terms, pair by
      pair, the ``gamma + 1`` rows ``nom_i_j_g`` before the ``gamma``
      rows ``dev_i_j_g``;
    - ``lines``: per family (a pair's ``nom_`` rows, then its ``dev_``
      rows), the text of its rows' LP lines, each up to its big-M
      (``' nom_i_j_g: S_j_g - S_i_g'``) and ending in a newline.
    """
    starts: tuple[str, ...]
    columns: dict
    pairs: tuple[tuple[int, int, str], ...]
    names: tuple[str, ...]
    terms: tuple[tuple[tuple[str, int], ...], ...]
    lines: tuple[str, ...]


@functools.lru_cache(maxsize=1)
def _leveled_frame(n_nodes, gamma):
    nodes = range(n_nodes)
    levels = range(gamma + 1)
    suffix = [str(g) for g in levels]
    S = [[start_name(i, g) for g in levels] for i in nodes]
    s_pos = [[(s, 1) for s in row] for row in S]
    s_neg = [[(s, -1) for s in row] for row in S]
    names = []
    terms = []
    lines = []
    for i in nodes:
        for j in nodes:
            pre = f"nom_{i}_{j}_"
            names += [pre + sfx for sfx in suffix]
            if i == j:  # the start terms cancel on the diagonal
                terms += [()] * len(suffix)
                lines.append("".join(f" {pre}{sfx}:\n" for sfx in suffix))
            else:
                terms += [(s_pos[j][g], s_neg[i][g]) for g in levels]
                lines.append("".join(f" {pre}{suffix[g]}: {S[j][g]} - {S[i][g]}\n"
                                     for g in levels))
            pre = f"dev_{i}_{j}_"
            names += [pre + suffix[g] for g in range(gamma)]
            terms += [(s_pos[j][g + 1], s_neg[i][g]) for g in range(gamma)]
            lines.append("".join(f" {pre}{suffix[g]}: {S[j][g + 1]} - {S[i][g]}\n"
                                 for g in range(gamma)))
    starts = tuple(s for row in S for s in row)
    # The source's first start, S_0_0, is fixed at zero.
    columns = {kind: tuple(Variable(s, kind, 0, None if k else 0) for k, s in enumerate(starts))
               for kind in ("continuous", "integer")}
    return _LeveledFrame(starts, columns,
                         tuple((i, j, arc_name(i, j)) for i in nodes for j in nodes),
                         tuple(names), tuple(terms), tuple(lines))


@functools.lru_cache(maxsize=1)
def _leveled_block(gamma, integral_starts, nominal, dev, windows):
    """The start columns ``S_i_g`` and the big-M precedence rows ``nom_``
    and ``dev_`` over ``gamma + 1`` levels.  ``windows`` is ``(es, lf)``
    for per-arc big-Ms, or None for the global one.

    The names, the start terms and the lines up to the big-M come from
    the frame of the node count and gamma.  The block writes what the
    instance fixes: each pair's two big-Ms and right-hand sides, and the
    tail of each line, which ends every line of its family."""
    frame = _leveled_frame(len(nominal), gamma)
    m_global = sum(nominal) + sum(dev)  # total worst-case work bounds any makespan
    es, lf = windows or (None, None)
    empty = f" 0 {frame.starts[0]}"  # an empty row names the block's first column
    big_ms = []
    rhss = []
    tails = []
    for i, j, y in frame.pairs:
        if windows is None:
            m_same = m_cross = m_global
        else:
            m_same = max(0, lf[i] - es[j])
            m_cross = max(0, lf[i] + dev[i] - es[j])
        nom_m, nom_text = _big_m(y, m_same)
        dev_m, dev_text = _big_m(y, m_cross)
        nom_rhs = nominal[i] - m_same
        dev_rhs = nominal[i] + dev[i] - m_cross
        if i == j and not m_same:
            nom_text = empty
        big_ms += nom_m, dev_m
        rhss += nom_rhs, dev_rhs
        tails += f"{nom_text} >= {nom_rhs}\n", f"{dev_text} >= {dev_rhs}\n"

    def per_row(values):
        """One value per family, repeated for each of its rows: a nom_
        family has gamma + 1, a dev_ family gamma."""
        return chain.from_iterable(map(repeat, values, cycle((gamma + 1, gamma))))

    rows = tuple(map(_new_row, zip(frame.names, map(add, frame.terms, per_row(big_ms)),
                                   repeat(">="), per_row(rhss))))
    text = "".join(map(str.replace, frame.lines, repeat("\n"), tails))[:-1]
    columns = frame.columns["integer" if integral_starts else "continuous"]
    return _Block(columns, rows, text, *_column_sections(columns))


def _big_m(y, m):
    """The big-M term ``(y, -m)`` of a precedence row as a term tuple and
    as LP text after a space, both empty for a zero ``m``."""
    return (((y, -m),), f" {_coef(-m)}{y}") if m else ((), "")


class _SelectionFrame(NamedTuple):
    """What the selection block of ``n_nodes`` nodes and ``n_resources``
    resources holds whatever the instance: the arc names ``y_i_j`` and
    the flow names ``f_i_j_k``, row by row; the arc columns that no
    precedence fixes (a self-arc fixed at 0, the sink's at 1, the others
    free) with their ``Bounds`` lines (None for a free arc); the flow
    columns and the ``Binaries`` text; and the rows' names and their
    terms that read no instance data, with an LP ``template`` of their
    lines holding a ``%s`` where the instance writes a capacity's
    coefficient (``cap_``) or a right-hand side (``fin_``, ``fout_``)."""
    arcs: tuple[str, ...]
    arc_columns: tuple[Variable, ...]
    arc_bounds: tuple[str | None, ...]
    flows: tuple[str, ...]
    flow_columns: tuple[Variable, ...]
    binaries: str
    cap_names: tuple[str, ...]
    cap_flows: tuple[tuple[str, int], ...]
    cap_arcs: tuple[str, ...]
    balance_names: tuple[str, ...]
    balance_terms: tuple[tuple[tuple[str, int], ...], ...]
    template: str


@functools.lru_cache(maxsize=1)
def _selection_frame(n_nodes, n_resources):
    sink = n_nodes - 1
    nodes = range(n_nodes)
    resources = range(n_resources)
    Y = [[arc_name(i, j) for j in nodes] for i in nodes]
    F = [[[flow_name(i, j, k) for k in resources] for j in nodes] for i in nodes]
    f_pos = [[[(f, 1) for f in fs] for fs in row] for row in F]
    arc_columns = []
    arc_bounds = []
    for i in nodes:
        for j in nodes:
            if i != j:
                arc_columns.append(Variable(Y[i][j], "binary", 0, 1))
                arc_bounds.append(None)
            else:  # self-arcs are meaningless and poison big-M rows
                fixed = int(i == sink)
                arc_columns.append(Variable(Y[i][j], "binary", fixed, fixed))
                arc_bounds.append(f" {Y[i][j]} = {fixed}")
    flows = tuple(f for row in F for fs in row for f in fs)
    cap_names = []
    heads = []
    for i in nodes:
        for j in nodes:
            pre = f"cap_{i}_{j}_"
            cap_names += [f"{pre}{k}" for k in resources]
            heads += [f" {pre}{k}: {F[i][j][k]} %s{Y[i][j]} <= 0" for k in resources]
    balance_names = []
    balance_terms = []
    for j in nodes:
        for k in resources:
            balance_names.append(f"fin_{j}_{k}")
            balance_terms.append(tuple(f_pos[i][j][k] for i in nodes))
            heads.append(f" fin_{j}_{k}: {' + '.join(F[i][j][k] for i in nodes)} = %s")
    for i in nodes:
        for k in resources:
            balance_names.append(f"fout_{i}_{k}")
            balance_terms.append(tuple(f_pos[i][j][k] for j in nodes))
            heads.append(f" fout_{i}_{k}: {' + '.join(F[i][j][k] for j in nodes)} = %s")
    return _SelectionFrame(
        arcs=tuple(y for row in Y for y in row), arc_columns=tuple(arc_columns),
        arc_bounds=tuple(arc_bounds), flows=flows,
        flow_columns=tuple(Variable(f, "continuous", 0, None) for f in flows),
        binaries="\n".join(f" {y}" for row in Y for y in row),
        cap_names=tuple(cap_names), cap_flows=tuple(t for row in f_pos for ts in row for t in ts),
        cap_arcs=tuple(y for row in Y for y in row for _ in resources),
        balance_names=tuple(balance_names), balance_terms=tuple(balance_terms),
        template="\n".join(heads))


@functools.lru_cache(maxsize=1)
def _selection_block(precedence, capacity, requirement):
    """The arc binaries ``y_i_j``, the flows ``f_i_j_k`` and the flow rows
    ``cap_``, ``fin_`` and ``fout_``: the arcs fixed by the precedence, and
    the flows routing each resource from the source to the sink.

    The names, the flow terms and the line heads come from the frame of
    the node and resource counts; the block writes what the instance
    fixes: the precedence arcs' bounds, each ``cap_`` row's capacity and
    the balance rows' right-hand sides."""
    n_nodes = len(requirement)
    sink = n_nodes - 1
    frame = _selection_frame(n_nodes, len(capacity))
    arc_columns = list(frame.arc_columns)
    arc_bounds = list(frame.arc_bounds)
    for i, j in precedence:
        a = i * n_nodes + j
        arc_columns[a] = Variable(frame.arcs[a], "binary", 1, 1)
        arc_bounds[a] = f" {frame.arcs[a]} = 1"
    # The source emits and the sink absorbs the full capacity: with the
    # dummies' zero requirements in the balance, as the paper writes it, no
    # flow could leave the source and every positive demand would strand.
    rhss = [0 if j == 0 else c if j == sink else r
            for j, reqs in enumerate(requirement) for c, r in zip(capacity, reqs)]
    rhss += [c if i == 0 else 0 if i == sink else r
             for i, reqs in enumerate(requirement) for c, r in zip(capacity, reqs)]
    caps = zip(frame.cap_arcs, cycle([-c for c in capacity]))
    rows = chain(map(_new_row, zip(frame.cap_names, zip(frame.cap_flows, caps),
                                   repeat("<="), repeat(0))),
                 map(_new_row, zip(frame.balance_names, frame.balance_terms,
                                   repeat("="), rhss)))
    text = frame.template % (tuple(_coef(-c) for c in capacity) * (n_nodes * n_nodes)
                             + tuple(rhss))
    return _Block(tuple(arc_columns) + frame.flow_columns, tuple(rows), text,
                  "\n".join(filter(None, arc_bounds)), "", frame.binaries)


@functools.lru_cache(maxsize=1)
def _transitivity_block(n_nodes):
    """The ``pair_`` and ``tri_`` rows over the arc binaries of ``n_nodes``
    nodes: they read no instance data but the node count, with the sink as
    the last node.  The columns are the selection block's."""
    sink = n_nodes - 1
    nodes = range(n_nodes)
    suffix = [str(x) for x in nodes]
    Y = [[arc_name(i, j) for j in nodes] for i in nodes]
    y_pos = [[(y, 1) for y in row] for row in Y]
    y_neg = [[(y, -1) for y in row] for row in Y]
    rows = []
    lines = []
    for i in nodes:
        for j in nodes:
            if (i, j) == (sink, sink):
                continue
            if i == j:
                coeffs, body = ((Y[i][i], 2),), f"2 {Y[i][i]}"
            else:
                coeffs, body = (y_pos[i][j], y_pos[j][i]), f"{Y[i][j]} + {Y[j][i]}"
            rows.append(LinearConstraint(f"pair_{i}_{j}", coeffs, "<=", 1))
            lines.append(f" pair_{i}_{j}: {body} <= 1")
    for i in nodes:
        for l in nodes:
            # y_il + y_lj - y_ij <= 1; the names coincide only when
            # i == l or l == j, and what is left of those rows is y_ll,
            # with coefficient 1.
            y_il, Y_il, Y_l, Y_i = y_pos[i][l], Y[i][l], Y[l], Y[i]
            coeffs = [(y_il, y_lj, y_ij) for y_lj, y_ij in zip(y_pos[l], y_neg[i])]
            bodies = [f"{Y_il} + {Y_l[j]} - {Y_i[j]}" for j in nodes]
            for j in (nodes if i == l else (l,)):
                coeffs[j] = (y_pos[l][l],)
                bodies[j] = Y_l[l]
            pre = f"tri_{i}_{l}_"
            rows += [LinearConstraint(pre + sfx, c, "<=", 1) for sfx, c in zip(suffix, coeffs)]
            lines += [f" {pre}{sfx}: {body} <= 1" for sfx, body in zip(suffix, bodies)]
    return _block((), tuple(rows), lines)


# ---------------------------------------------------------------------------
# Warm-start assignments


def warm_start_assignment(inst: ProjectInstance, gamma: int,
                          warm: WarmStart) -> dict[str, int]:
    """Full variable assignment feasible for every build_compact variant.

    Arc binaries are the closure of the instance arcs and the selection,
    which the transitivity rows require, so a selection and its closure
    give one assignment; start values are the leveled recursion, and
    flows are routed greedily along the closure's arcs in start order.  The
    names, in the model's column order, are those of the leveled and
    selection frames of the instance's size and ``gamma``.  Raises
    ``ValueError`` unless ``warm.leveled_starts`` has a row of
    ``gamma + 1`` levels per node, as a warm start made at ``gamma`` for
    this instance has.
    """
    n_nodes = inst.n_nodes
    levels = {len(row) for row in warm.leveled_starts}
    if len(warm.leveled_starts) != n_nodes or levels != {gamma + 1}:
        raise ValueError(f"warm start of {len(warm.leveled_starts)} nodes with "
                         f"{sorted(levels)} levels; expected {n_nodes} nodes with "
                         f"{gamma + 1} levels (gamma {gamma})")
    n_resources = len(inst.capacity)
    selection = _selection_frame(n_nodes, n_resources)
    values = dict(zip(_leveled_frame(n_nodes, gamma).starts,
                      chain.from_iterable(warm.leveled_starts)))
    reach = arc_graph(n_nodes, extended_arcs(inst, warm.selection))[1]
    reach[inst.sink] |= 1 << inst.sink
    arcs = [0] * (n_nodes * n_nodes)
    for i, mask in enumerate(reach):
        while mask:
            low = mask & -mask
            arcs[i * n_nodes + low.bit_length() - 1] = 1
            mask ^= low
    values.update(zip(selection.arcs, arcs))
    flows = [0] * len(selection.flows)
    for (i, j, k), value in _greedy_flows(inst, warm.start, reach).items():
        flows[(i * n_nodes + j) * n_resources + k] = value
    values.update(zip(selection.flows, flows))
    return values


def _greedy_flows(inst, start, reach):
    """Hand resources along the arcs of the closure ``reach`` in
    (start, id) order.

    An activity takes its demand from the parcels of earlier holders that
    have an arc to it, the source first.  An earlier holder without one
    still holds the activity's start bucket, which the activity holds too,
    even at zero duration; the schedule keeps that bucket within capacity,
    so the parcels with an arc always cover the demand.
    """
    order = sorted(range(1, inst.n_nodes), key=lambda a: (start[a], a))
    flows = {}
    for k in inst.resource_types:
        parcels = [[0, inst.capacity[k]]]  # [holder, remaining], source first
        for j in order:
            need = inst.capacity[k] if j == inst.sink else inst.requirement[j][k]
            for parcel in parcels:
                if need == 0:
                    break
                holder, remaining = parcel
                if remaining == 0 or not (reach[holder] >> j) & 1:
                    continue
                take = min(need, remaining)
                parcel[1] -= take
                need -= take
                flows[(holder, j, k)] = flows.get((holder, j, k), 0) + take
            if need:  # pragma: no cover - schedule feasibility rules this out
                raise AssertionError(f"flow routing starved activity {j}")
            if j != inst.sink and inst.requirement[j][k]:
                parcels.append([j, inst.requirement[j][k]])
    return flows


def check_assignment(model: MilpModel, values, tol: float = 0) -> list[str]:
    """Violated bounds/rows of the model under ``values`` (empty if feasible).

    Sums are taken in the values' own arithmetic: int and Fraction values
    are checked exactly, solver floats within ``tol``.
    """
    violations = []
    for v in model.variables:
        val = values.get(v.name, 0)
        if val < v.lb - tol:
            violations.append(f"{v.name}={val} below lower bound {v.lb}")
        if v.ub is not None and val > v.ub + tol:
            violations.append(f"{v.name}={val} above upper bound {v.ub}")
        if v.kind in ("integer", "binary") and abs(val - round(val)) > tol:
            violations.append(f"{v.name}={val} not integral")
    for c in model.constraints:
        lhs = sum(values.get(name, 0) * coef for name, coef in c.coeffs)
        rhs = c.rhs
        if c.sense == "<=" and lhs > rhs + tol:
            violations.append(f"{c.name}: {lhs} <= {rhs} violated")
        elif c.sense == ">=" and lhs < rhs - tol:
            violations.append(f"{c.name}: {lhs} >= {rhs} violated")
        elif c.sense == "=" and abs(lhs - rhs) > tol:
            violations.append(f"{c.name}: {lhs} = {rhs} violated")
    return violations


def evaluate_objective(model: MilpModel, values):
    return sum(values.get(name, 0) * coef for name, coef in model.objective)


# ---------------------------------------------------------------------------
# LP text format


def export_lp(model: MilpModel) -> str:
    """Standard LP format, ints only, with deterministic row and variable
    order: block by block, each section joining the text its blocks
    wrote when they were built.  A model that holds no blocks is written
    as one block of its own columns and rows, each row rendered here."""
    blocks = model.blocks
    if not blocks:
        lines = []
        _render_rows(lines, model.constraints,
                     model.variables[0].name if model.variables else None)
        blocks = (_block(model.variables, model.constraints, lines),)
    out = ["Minimize", f" obj: {_render_terms(model.objective)}", "Subject To"]
    out += [block.text for block in blocks if block.text]
    out.append("Bounds")
    out += [block.bounds for block in blocks if block.bounds]
    generals = [block.generals for block in blocks if block.generals]
    if generals:
        out += ["Generals", *generals]
    binaries = [block.binaries for block in blocks if block.binaries]
    if binaries:
        out += ["Binaries", *binaries]
    out += ["End", ""]
    return "\n".join(out)


def _column_sections(columns):
    """The columns' lines of the ``Bounds``, ``Generals`` and ``Binaries``
    sections, each section's lines joined."""
    bounds = []
    for v in columns:
        if v.kind == "binary" and v.lb == 0 and v.ub == 1:
            continue
        if v.ub is not None and v.lb == v.ub:
            bounds.append(f" {v.name} = {v.lb}")
        else:
            if v.lb != 0:
                bounds.append(f" {v.name} >= {v.lb}")
            if v.ub is not None:
                bounds.append(f" {v.name} <= {v.ub}")
    generals = [f" {v.name}" for v in columns if v.kind == "integer"]
    binaries = [f" {v.name}" for v in columns if v.kind == "binary"]
    return "\n".join(bounds), "\n".join(generals), "\n".join(binaries)


def _render_rows(out, rows, first):
    """Append each row's LP line to ``out``; an empty row names ``first``."""
    for name, coeffs, sense, rhs in rows:
        body = _render_terms(coeffs) if coeffs else f"0 {first}"
        out.append(f" {name}: {body} {sense} {rhs}")


def _render_terms(coeffs):
    parts = []
    for name, coef in coeffs:
        if coef == 1:
            parts.append("+ " + name)
        elif coef == -1:
            parts.append("- " + name)
        elif coef >= 0:
            parts.append(f"+ {coef} {name}")
        else:
            parts.append(f"- {-coef} {name}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+") else text or "0"


def _coef(coef):
    """The sign and the coefficient that a builder writes before a name,
    as ``_render_terms`` writes a term after the first: ``+ ``, ``- ``,
    ``+ c `` or ``- c ``."""
    if coef == 1:
        return "+ "
    if coef == -1:
        return "- "
    return f"+ {coef} " if coef >= 0 else f"- {-coef} "


def read_lp(text: str):
    """HiGHS's view of LP text: the silent HiGHS solver holding the model
    that its reader, the one the bridge child runs, builds from ``text``.

    Needs scipy, whose bundled HiGHS :func:`highs_bridge.read_model` loads.
    """
    with tempfile.TemporaryDirectory(prefix="robust_rcpsp_") as scratch:
        path = Path(scratch) / "model.lp"
        path.write_text(text)
        return highs_bridge.read_model(path)


# ---------------------------------------------------------------------------
# Warm-start files and the external bridge


def export_warm_start(assignment, model: MilpModel) -> str:
    """MST-style lines ``<name> <value>``, one per assigned variable, in the
    model's declaration order."""
    names = [v.name for v in model.variables if v.name in assignment]
    return "\n".join(f"{name} {assignment[name]}" for name in names) + "\n"


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # one of highs_bridge.STATUSES
    objective: float | None = None
    bound: float | None = None
    values: dict = field(default_factory=dict, hash=False)
    time_s: float = 0.0
    message: str = ""


def solve_external(model: MilpModel, warm=None, *, command: str,
                   time_limit_s: float | None = None) -> SolveOutcome:
    """Run a solver process over the exported LP file.

    ``command`` is a template with ``{lp}``, ``{mst}``, ``{sol}`` and
    ``{time_s}`` placeholders; a template that :func:`template_error`
    rejects is an ``error`` outcome, and no process is started.  The
    warm start ``warm`` is written as an MST file only when the template
    names ``{mst}``; without one, ``{mst}`` renders empty.  The solver
    must exit 0 and write a solution file as :mod:`highs_bridge` sets out,
    which ``highs_bridge.read_values`` reads; a column it omits reads 0,
    and a name that is no column is ignored.  Reported solutions are
    re-validated against the model within 1e-6.  The files go to a
    temporary directory that is removed before returning.  A zero time
    limit is spent before the solver starts: the outcome is ``timeout``
    and no process is started.
    """
    t0 = time.perf_counter()
    problem = template_error(command)
    if problem:
        return SolveOutcome(status="error", message=problem)
    if time_limit_s == 0:
        return SolveOutcome(status="timeout",
                            message="time limit spent before the solver started")
    with tempfile.TemporaryDirectory(prefix="robust_rcpsp_") as scratch:
        lp_path = Path(scratch, "model.lp")
        sol_path = Path(scratch, "solution.sol")
        lp_path.write_text(export_lp(model))
        mst_path = ""
        if warm is not None and "mst" in _fields(command):
            mst_path = Path(scratch, "warm.mst")
            mst_path.write_text(export_warm_start(warm, model))
        cmd = command.format(lp=lp_path, mst=mst_path, sol=sol_path,
                             time_s=time_limit_s if time_limit_s else 0)
        try:
            proc = subprocess.run(
                shlex.split(cmd), capture_output=True, text=True,
                timeout=(time_limit_s + 60) if time_limit_s else None,
            )
        except subprocess.TimeoutExpired:
            return SolveOutcome(status="timeout", time_s=time.perf_counter() - t0,
                                message="solver process exceeded its grace period")
        except OSError as exc:
            return SolveOutcome(status="error", time_s=time.perf_counter() - t0,
                                message=f"failed to launch solver: {exc}")
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return SolveOutcome(status="error", time_s=elapsed,
                                message=f"solver exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            status, bound, values = _read_solution(sol_path)
        except BridgeError as exc:
            return SolveOutcome(status="error", time_s=elapsed, message=str(exc))
    if status in ("optimal", "feasible"):
        violations = check_assignment(model, values, tol=1e-6)
        if violations:
            return SolveOutcome(status="error", time_s=elapsed, values=values,
                                message="solution violates the model: "
                                        + "; ".join(violations[:5]))
        objective = float(evaluate_objective(model, values))
        return SolveOutcome(status=status, objective=objective, bound=bound,
                            values=values, time_s=elapsed)
    return SolveOutcome(status=status, bound=bound, values=values, time_s=elapsed,
                        message=proc.stderr.strip())


PLACEHOLDERS = ("lp", "mst", "sol", "time_s")


def template_error(command: str) -> str | None:
    """Why ``command`` is not a solver command template, or None: its
    braces must be well formed and each field one of ``PLACEHOLDERS``."""
    try:
        unknown = [name for name in _fields(command) if name not in PLACEHOLDERS]
    except ValueError as exc:
        return f"command template {command!r}: {exc}"
    return (f"command template {command!r}: unknown placeholder {{{unknown[0]}}}; expected "
            f"one of {PLACEHOLDERS}") if unknown else None


def _fields(command):
    """The field names of a template; raises ``ValueError`` for a lone brace."""
    return [name for _, name, _, _ in string.Formatter().parse(command) if name is not None]


def _read_solution(path: Path):
    if not path.exists():
        raise BridgeError(f"solver wrote no solution file at {path}")
    lines = path.read_text().splitlines()
    head = next((n for n, line in enumerate(lines) if line.strip()), None)
    if head is None:
        raise BridgeError("solution file is empty")
    fields = lines[head].split()
    status = fields[0].lower()
    if status not in highs_bridge.STATUSES:
        raise BridgeError(f"unknown solver status {status!r}")
    where = "solution file"
    bound = next(highs_bridge.read_values(lines, where, head))[2] if len(fields) > 1 else None
    values = {name: value for _, name, value in highs_bridge.read_values(lines, where, head + 1)}
    return status, bound, values
