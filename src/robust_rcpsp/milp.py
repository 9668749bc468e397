"""Solver-neutral compact model of the two-stage robust RCPSP.

Variables: leveled start times S_i_g, precedence binaries y_i_j, and
resource flows f_i_j_k.  The big-M precedence rows replicate the extended
network across gamma+1 levels (one extra level shift per delayed
predecessor), the flow rows route each resource from the source through the
activities to the sink, and optional extensions add transitivity rows,
time windows, and integer start variables.  The windows give per-arc
tightened big-Ms and bound every start column, ``es[i] <= S_i_g <=
lf[i] - d_i``; both hold for every solution within the windows' horizon.

The model is exported in the standard LP text format; ``solve_external``
bridges to any solver process that accepts an LP file and writes back a
status line plus ``name value`` pairs.

``build_compact`` composes the model from three blocks, in this order, and
each block reads only its own inputs:

- the leveled block: the ``S`` columns and the ``nom_``/``dev_`` rows, from
  gamma, ``integral_starts``, the nominal durations, the deviations, and
  the windows' ``es``/``lf`` (or none), whose horizon is checked against
  the instance's nominal critical path, ``nominal_tail[0]``, so no build
  runs the adversary DP; with windows, its columns carry their bounds;
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
right-hand side).  The fill writes only those numbers, in the frame's
flat order: the leveled fill works out each pair's two big-Ms as flat
lists, with no call per pair, and repeats each family's term and
right-hand side for its rows; the selection fill writes a capacity ``c``
as ``- c `` before its arc, or ``- `` for a capacity of 1, since the
instance rejects any capacity below 1.  The warm assignment fills the
same order: its arc binaries are the closure rows read ``i`` major, and
its flows one flat list indexed like the frame's flow names,
``(holder * n + j) * K + k``, zipped with them.  The transitivity block
reads nothing but the node count, so it is a frame alone.  All three
builders share one row constructor: one pass of ``map(tuple.__new__,
repeat(LinearConstraint), zip(names, coeffs, senses, rhss))``, whose
zipped columns cost no Python call per row.  At
gamma 7, a leveled block takes about 6 ms at j30 and 25-30 ms at j60, a
selection block 1.5 and 6 ms, and the transitivity block 18 and
140-155 ms (best of 15, of 5 for the transitivity block, collector
paused, Python 3.11 on a 2-core machine).  ``export_lp`` only joins the
texts of a model's blocks, section by section; ``_render_rows`` writes
the rows of a model without blocks, one by one, and is the referee the
tests hold each block's text to.  The
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
from itertools import chain, repeat
from operator import add, sub
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
    coefficients are dropped from the big-M and transitivity rows.  It
    also bounds every start column by its window (``_leveled_block``), so
    an unselected arc's row is implied by the bounds.  The model keeps its
    optimum exactly when the windows' horizon is at least that optimum;
    below it, the model is infeasible.

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


class _LeveledFrame(NamedTuple):
    """What the leveled block of ``n_nodes`` nodes at ``gamma`` holds
    whatever the instance.

    - ``starts`` and ``columns``: the start names ``S_i_g``, node by node,
      and, by kind, their columns;
    - ``arcs``: the arc name ``y_i_j`` of each ordered pair, ``i`` major;
    - ``names`` and ``terms``: each row's name and start terms, pair by
      pair, the ``gamma + 1`` rows ``nom_i_j_g`` before the ``gamma``
      rows ``dev_i_j_g``;
    - ``lines``: per family (a pair's ``nom_`` rows, then its ``dev_``
      rows), the text of its rows' LP lines, each up to its big-M
      (``' nom_i_j_g: S_j_g - S_i_g'``) and ending in a newline.
    """
    starts: tuple[str, ...]
    columns: dict
    arcs: tuple[str, ...]
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
    return _LeveledFrame(starts, columns, tuple(arc_name(i, j) for i in nodes for j in nodes),
                         tuple(names), tuple(terms), tuple(lines))


@functools.lru_cache(maxsize=1)
def _leveled_block(gamma, integral_starts, nominal, dev, windows):
    """The start columns ``S_i_g`` and the big-M precedence rows ``nom_``
    and ``dev_`` over ``gamma + 1`` levels.  ``windows`` is ``(es, lf)``
    for per-arc big-Ms and start bounds, or None for the global big-M and
    starts unbounded above.

    With windows, every start column but ``S_0_0``, which stays fixed at
    0, is bounded as ``es[i] <= S_i_g <= lf[i] - d_i``, for ``d_i`` the
    nominal duration.  The bounds cut no selection whose worst-case
    makespan is within the horizon, ``W(sink, gamma) <= horizon``: its DP
    rows ``W(i, g)``, the least starts the model admits for it, satisfy
    both.  ``es`` is the nominal longest path from the source over the
    instance arcs, which every selection keeps, so it is below every
    start.  The path from the source to i with at most g delays, then i
    nominal, then the instance's longest nominal tail from i to the sink,
    has at most gamma delays, so ``W(i, g) + d_i + nominal_tail[i] <=
    W(sink, gamma) <= horizon``, and ``lf[i] = horizon - nominal_tail[i]``.
    So a horizon at least the optimum, such as the warm start's bound,
    keeps the optimum and the warm assignment, and no solution is added;
    a horizon below the optimum leaves the model infeasible.

    The names, the start terms and the lines up to the big-M come from
    the frame of the node count and gamma.  The block writes what the
    instance fixes: each pair's two big-Ms, worked out as flat lists pair
    by pair, and from them the big-M terms, right-hand sides and line
    tails of its ``nom_`` and ``dev_`` families.  Each family's value is
    repeated for each of its rows, ``gamma + 1`` or ``gamma``, and the
    rows are made in one pass of the row constructor."""
    frame = _leveled_frame(len(nominal), gamma)
    if windows is None:  # total worst-case work bounds any makespan
        m_same = m_cross = [sum(nominal) + sum(dev)] * len(frame.arcs)
    else:
        es, lf = windows
        m_same = [l - e if l > e else 0 for l in lf for e in es]
        m_cross = [l - e if l > e else 0 for l in map(add, lf, dev) for e in es]

    def family(big_ms, work):
        """The big-M terms, right-hand sides and line tails of one family
        of each pair, whose rows read ``big_ms`` and the pair's ``work``;
        a zero big-M writes no term."""
        rhss = list(map(sub, work, big_ms))
        terms = [((y, -m),) if m else () for y, m in zip(frame.arcs, big_ms)]
        tails = [f" - {m} {y} >= {r}\n" if m > 1 else f" - {y} >= {r}\n" if m else f" >= {r}\n"
                 for y, m, r in zip(frame.arcs, big_ms, rhss)]
        return terms, rhss, tails

    def repeated(nom, dev):
        """One value per family, repeated for each of its rows: a nom_
        family has gamma + 1, a dev_ family gamma."""
        return chain.from_iterable(zip(*[nom] * (gamma + 1), *[dev] * gamma))

    nom_terms, nom_rhss, nom_tails = family(m_same, [w for w in nominal for _ in nominal])
    dev_terms, dev_rhss, dev_tails = family(
        m_cross, [w + d for w, d in zip(nominal, dev) for _ in nominal])
    for p in range(0, len(frame.arcs), len(nominal) + 1):
        if not m_same[p]:  # an empty row names the block's first column
            nom_tails[p] = f" 0 {frame.starts[0]} >= {nom_rhss[p]}\n"
    rows = tuple(map(tuple.__new__, repeat(LinearConstraint),
                     zip(frame.names, map(add, frame.terms, repeated(nom_terms, dev_terms)),
                         repeat(">="), repeated(nom_rhss, dev_rhss))))
    tails = chain.from_iterable(zip(nom_tails, dev_tails))
    text = "".join(map(str.replace, frame.lines, repeat("\n"), tails))[:-1]
    kind = "integer" if integral_starts else "continuous"
    if windows is None:
        columns = frame.columns[kind]
    else:  # every start within its window; S_0_0 stays fixed at zero
        lbs = [e for e in es for _ in range(gamma + 1)]
        ubs = [l - w for l, w in zip(lf, nominal) for _ in range(gamma + 1)]
        lbs[0] = ubs[0] = 0
        columns = tuple(map(Variable, frame.starts, repeat(kind), lbs, ubs))
    return _Block(columns, rows, text, *_column_sections(columns))


class _SelectionFrame(NamedTuple):
    """What the selection block of ``n_nodes`` nodes and ``n_resources``
    resources holds whatever the instance: the arc names ``y_i_j`` and
    the flow names ``f_i_j_k``, row by row; the arc columns that no
    precedence fixes (a self-arc fixed at 0, the sink's at 1, the others
    free) with their ``Bounds`` lines (None for a free arc); the flow
    columns and the ``Binaries`` text; and the rows' names and senses,
    the ``cap_`` rows before the balance rows, their terms that read no
    instance data, and an LP ``template`` of their lines holding a ``%s``
    where the instance writes a capacity's coefficient (``cap_``) or a
    right-hand side (``fin_``, ``fout_``)."""
    arcs: tuple[str, ...]
    arc_columns: tuple[Variable, ...]
    arc_bounds: tuple[str | None, ...]
    flows: tuple[str, ...]
    flow_columns: tuple[Variable, ...]
    binaries: str
    names: tuple[str, ...]
    senses: tuple[str, ...]
    cap_flows: tuple[tuple[str, int], ...]
    cap_arcs: tuple[str, ...]
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
        names=tuple(cap_names + balance_names),
        senses=("<=",) * len(cap_names) + ("=",) * len(balance_names),
        cap_flows=tuple(t for row in f_pos for ts in row for t in ts),
        cap_arcs=tuple(y for row in Y for y in row for _ in resources),
        balance_terms=tuple(balance_terms), template="\n".join(heads))


@functools.lru_cache(maxsize=1)
def _selection_block(precedence, capacity, requirement):
    """The arc binaries ``y_i_j``, the flows ``f_i_j_k`` and the flow rows
    ``cap_``, ``fin_`` and ``fout_``: the arcs fixed by the precedence, and
    the flows routing each resource from the source to the sink.

    The names, the senses, the flow terms and the line heads come from
    the frame of the node and resource counts; the block writes what the
    instance fixes: the precedence arcs' bounds, each ``cap_`` row's
    capacity and the balance rows' right-hand sides, and makes the rows
    in one pass of the row constructor.  A capacity ``c`` is the arc's
    coefficient ``-c``, written ``- c `` or, for a capacity of 1, ``- ``;
    no other form arises, since the instance rejects any capacity below
    1."""
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
    caps = zip(frame.cap_arcs, [-c for c in capacity] * (n_nodes * n_nodes))
    rows = map(tuple.__new__, repeat(LinearConstraint),
               zip(frame.names, chain(zip(frame.cap_flows, caps), frame.balance_terms),
                   frame.senses, [0] * len(frame.cap_flows) + rhss))
    text = frame.template % (tuple("- " if c == 1 else f"- {c} " for c in capacity)
                             * (n_nodes * n_nodes) + tuple(rhss))
    return _Block(tuple(arc_columns) + frame.flow_columns, tuple(rows), text,
                  "\n".join(filter(None, arc_bounds)), "", frame.binaries)


@functools.lru_cache(maxsize=1)
def _transitivity_block(n_nodes):
    """The ``pair_`` and ``tri_`` rows over the arc binaries of ``n_nodes``
    nodes: they read no instance data but the node count, with the sink as
    the last node.  The columns are the selection block's.  The names,
    terms and lines are made pair by pair, and the rows in one pass of the
    row constructor."""
    sink = n_nodes - 1
    nodes = range(n_nodes)
    suffix = [str(x) for x in nodes]
    Y = [[arc_name(i, j) for j in nodes] for i in nodes]
    y_pos = [[(y, 1) for y in row] for row in Y]
    y_neg = [[(y, -1) for y in row] for row in Y]
    names = []
    coeffs = []
    lines = []
    for i in nodes:
        for j in nodes:
            if (i, j) == (sink, sink):
                continue
            if i == j:
                coeffs.append(((Y[i][i], 2),))
                body = f"2 {Y[i][i]}"
            else:
                coeffs.append((y_pos[i][j], y_pos[j][i]))
                body = f"{Y[i][j]} + {Y[j][i]}"
            names.append(f"pair_{i}_{j}")
            lines.append(f" {names[-1]}: {body} <= 1")
    for i in nodes:
        for l in nodes:
            # y_il + y_lj - y_ij <= 1; the names coincide only when
            # i == l or l == j, and what is left of those rows is y_ll,
            # with coefficient 1.
            Y_il, Y_l, Y_i = Y[i][l], Y[l], Y[i]
            pre = f"tri_{i}_{l}_"
            family = [pre + sfx for sfx in suffix]
            terms = list(zip(repeat(y_pos[i][l]), y_pos[l], y_neg[i]))
            family_lines = [f" {name}: {Y_il} + {y_lj} - {y_ij} <= 1"
                            for name, y_lj, y_ij in zip(family, Y_l, Y_i)]
            merged = (y_pos[l][l],)
            for j in (nodes if i == l else (l,)):
                terms[j] = merged
                family_lines[j] = f" {family[j]}: {Y_l[l]} <= 1"
            names += family
            coeffs += terms
            lines += family_lines
    # The lines are joined and freed before the rows are made: holding
    # both raised model-j30's peak RSS by 2 MB.
    text = "\n".join(lines)
    del lines
    rows = tuple(map(tuple.__new__, repeat(LinearConstraint),
                     zip(names, coeffs, repeat("<="), repeat(1))))
    return _Block((), rows, text, "", "", "")


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
    selection frames of the instance's size and ``gamma``, and each
    family's values come in the frame's flat order: the starts node by
    node, the arc binaries read off the closure rows ``i`` major, and the
    flows as ``_greedy_flows`` lists them.  Raises
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
    selection = _selection_frame(n_nodes, len(inst.capacity))
    values = dict(zip(_leveled_frame(n_nodes, gamma).starts,
                      chain.from_iterable(warm.leveled_starts)))
    reach = arc_graph(n_nodes, extended_arcs(inst, warm.selection))[1]
    reach[inst.sink] |= 1 << inst.sink
    values.update(zip(selection.arcs, [mask >> j & 1 for mask in reach for j in range(n_nodes)]))
    values.update(zip(selection.flows, _greedy_flows(inst, warm.start, reach)))
    return values


def _greedy_flows(inst, start, reach):
    """Hand resources along the arcs of the closure ``reach`` in
    (start, id) order; the flat list of amounts, one per flow name of the
    selection frame, at ``(holder * n + j) * K + k`` for ``n`` nodes and
    ``K`` resources.

    An activity takes its demand from the parcels of earlier holders that
    have an arc to it, the source first.  An earlier holder without one
    still holds the activity's start bucket, which the activity holds too,
    even at zero duration; the schedule keeps that bucket within capacity,
    so the parcels with an arc always cover the demand.
    """
    n_nodes, n_resources = inst.n_nodes, len(inst.capacity)
    order = sorted(range(1, n_nodes), key=lambda a: (start[a], a))
    flows = [0] * (n_nodes * n_nodes * n_resources)
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
                flows[(holder * n_nodes + j) * n_resources + k] += take
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
