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
  the windows' ``es``/``lf`` (or none);
- the selection block: the ``y`` and ``f`` columns and the ``cap_``,
  ``fin_`` and ``fout_`` rows, from the precedence, the capacities and the
  requirements;
- the transitivity block: the ``pair_`` and ``tri_`` rows, from the node
  count alone.

Each builder keeps its most recent block (``functools.lru_cache`` of size
one, emptied by its ``cache_clear``), so models that read equal inputs
share the same row and column objects: the four bench variants of one
instance at one gamma build two leveled blocks and one selection block,
and every transitivity model of one size shares one transitivity block.
A model holds the blocks it was built from, and ``export_lp`` writes each
block's text, rendered once per block, in place of its rows.  Rows are
immutable named tuples and the model is frozen, so a model's rows are its
blocks' rows; a model made any other way is written as one block of its
own.  Every number is an int.  The cache holds a block until a build with
other inputs replaces it: at j30 and gamma 7, about 4.4 MB for the leveled
block, 2.5 MB for the selection block and 8.9 MB for the transitivity block.
"""
from __future__ import annotations

import functools
import math
import shlex
import string
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import highs_bridge
from .adversary import worst_case_makespan_dp
from .errors import BridgeError, InvalidHorizonError
from .heuristics import TimeWindows, WarmStart
from .instance import ProjectInstance
from .network import Selection, extended_arcs


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
    from its builder's cache.  Raises ``ValueError`` for a negative gamma.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if tighten is not None:
        critical = worst_case_makespan_dp(inst, Selection(), 0).value
        if tighten.horizon < critical:
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


class _Block:
    """A builder's columns and rows, and the rows' LP text once an export
    asks for it."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows
        self._text = None

    def text(self):
        # An empty row names the block's first column: S_0_0 in the
        # leveled block, the only block build_compact makes empty rows in.
        if self._text is None:
            lines = []
            _render_rows(lines, self.rows, self.columns[0].name if self.columns else None)
            self._text = "\n".join(lines)
        return self._text


@functools.lru_cache(maxsize=1)
def _leveled_block(gamma, integral_starts, nominal, dev, windows):
    """The start columns ``S_i_g`` and the big-M precedence rows ``nom_``
    and ``dev_`` over ``gamma + 1`` levels.  ``windows`` is ``(es, lf)``
    for per-arc big-Ms, or None for the global one."""
    nodes = range(len(nominal))
    levels = range(gamma + 1)
    m_global = sum(nominal) + sum(dev)  # total worst-case work bounds any makespan
    # Names and the (name, +-1) terms are built once and shared by every row
    # that uses them; a row name is a per-pair prefix plus an index suffix.
    suffix = [str(g) for g in levels]
    S = [[start_name(i, g) for g in levels] for i in nodes]
    s_pos = [[(s, 1) for s in row] for row in S]
    s_neg = [[(s, -1) for s in row] for row in S]
    es, lf = windows or (None, None)
    start_kind = "integer" if integral_starts else "continuous"
    columns = tuple(Variable(S[i][g], start_kind, 0, 0 if i == g == 0 else None)
                    for i in nodes for g in levels)
    rows = []
    for i in nodes:
        for j in nodes:
            if windows is None:
                m_same = m_cross = m_global
            else:
                m_same = max(0, lf[i] - es[j])
                m_cross = max(0, lf[i] + dev[i] - es[j])
            y = arc_name(i, j)
            s_j, s_i = s_pos[j], s_neg[i]
            big_m = ((y, -m_same),) if m_same else ()
            pre = f"nom_{i}_{j}_"
            rhs = nominal[i] - m_same
            if i == j:  # the start terms cancel on the diagonal
                rows += [LinearConstraint(pre + suffix[g], big_m, ">=", rhs) for g in levels]
            else:
                rows += [LinearConstraint(pre + suffix[g], (s_j[g], s_i[g]) + big_m, ">=", rhs)
                         for g in levels]
            big_m = ((y, -m_cross),) if m_cross else ()
            pre = f"dev_{i}_{j}_"
            rhs = nominal[i] + dev[i] - m_cross
            rows += [LinearConstraint(pre + suffix[g], (s_j[g + 1], s_i[g]) + big_m, ">=", rhs)
                     for g in range(gamma)]
    return _Block(columns, tuple(rows))


@functools.lru_cache(maxsize=1)
def _selection_block(precedence, capacity, requirement):
    """The arc binaries ``y_i_j``, the flows ``f_i_j_k`` and the flow rows
    ``cap_``, ``fin_`` and ``fout_``: the arcs fixed by the precedence, and
    the flows routing each resource from the source to the sink."""
    n_nodes = len(requirement)
    sink = n_nodes - 1
    nodes = range(n_nodes)
    resources = range(len(capacity))
    suffix = [str(k) for k in resources]
    Y = [[arc_name(i, j) for j in nodes] for i in nodes]
    F = [[[flow_name(i, j, k) for k in resources] for j in nodes] for i in nodes]
    f_pos = [[[(f, 1) for f in fs] for fs in row] for row in F]
    base_arcs = set(precedence)
    columns = []
    for i in nodes:
        for j in nodes:
            if (i, j) in base_arcs or (i, j) == (sink, sink):
                lb = ub = 1
            elif i == j:
                lb = ub = 0  # self-arcs are meaningless and poison big-M rows
            else:
                lb, ub = 0, 1
            columns.append(Variable(Y[i][j], "binary", lb, ub))
    columns += [Variable(f, "continuous", 0, None) for row in F for fs in row for f in fs]
    rows = []
    for i in nodes:
        for j in nodes:
            y, f_ij, pre = Y[i][j], f_pos[i][j], f"cap_{i}_{j}_"
            rows += [LinearConstraint(pre + suffix[k], (f_ij[k], (y, -capacity[k])), "<=", 0)
                     for k in resources]
    # The source emits and the sink absorbs the full capacity: with the
    # dummies' zero requirements in the balance, as the paper writes it, no
    # flow could leave the source and every positive demand would strand.
    for j in nodes:
        for k in resources:
            rhs = 0 if j == 0 else capacity[k] if j == sink else requirement[j][k]
            rows.append(LinearConstraint(f"fin_{j}_{k}", tuple(f_pos[i][j][k] for i in nodes),
                                         "=", rhs))
    for i in nodes:
        for k in resources:
            rhs = capacity[k] if i == 0 else 0 if i == sink else requirement[i][k]
            rows.append(LinearConstraint(f"fout_{i}_{k}", tuple(f_pos[i][j][k] for j in nodes),
                                         "=", rhs))
    return _Block(tuple(columns), tuple(rows))


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
    for i in nodes:
        for j in nodes:
            if (i, j) == (sink, sink):
                continue
            coeffs = ((Y[i][i], 2),) if i == j else (y_pos[i][j], y_pos[j][i])
            rows.append(LinearConstraint(f"pair_{i}_{j}", coeffs, "<=", 1))
    for i in nodes:
        for l in nodes:
            # y_il + y_lj - y_ij <= 1; the names coincide only when
            # i == l or l == j, and only those rows need merging.
            y_il = y_pos[i][l]
            coeffs = [(y_il, y_lj, y_ij) for y_lj, y_ij in zip(y_pos[l], y_neg[i])]
            for j in (nodes if i == l else (l,)):
                coeffs[j] = _merge_terms(coeffs[j])
            pre = f"tri_{i}_{l}_"
            rows += [LinearConstraint(pre + sfx, c, "<=", 1) for sfx, c in zip(suffix, coeffs)]
    return _Block((), tuple(rows))


def _merge_terms(terms):
    """Sum the coefficients of repeated names and drop the zeros."""
    merged = {}
    for name, c in terms:
        merged[name] = merged.get(name, 0) + c
    return tuple((name, c) for name, c in merged.items() if c != 0)


# ---------------------------------------------------------------------------
# Warm-start assignments


def warm_start_assignment(inst: ProjectInstance, gamma: int,
                          warm: WarmStart) -> dict[str, int]:
    """Full variable assignment feasible for every build_compact variant.

    Arc binaries follow the schedule-derived selection (which is closed
    under transitivity), start values are the leveled recursion, and flows
    are routed greedily along the selection's arcs in start order.
    """
    n_nodes = inst.n_nodes
    sink = inst.sink
    values: dict[str, int] = {}
    for i in range(n_nodes):
        for g in range(gamma + 1):
            values[start_name(i, g)] = warm.leveled_starts[i][g]
    active = set(extended_arcs(inst, warm.selection)) | {(sink, sink)}
    for i in range(n_nodes):
        for j in range(n_nodes):
            values[arc_name(i, j)] = 1 if (i, j) in active else 0
    flows = _greedy_flows(inst, warm.start, active)
    for i in range(n_nodes):
        for j in range(n_nodes):
            for k in inst.resource_types:
                values[flow_name(i, j, k)] = flows.get((i, j, k), 0)
    return values


def _greedy_flows(inst, start, active):
    """Hand resources along the arcs ``active`` in (start, id) order.

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
                if remaining == 0 or (holder, j) not in active:
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
    order: block by block, each block's text rendered once.  A model that
    holds no blocks is one block of its own columns and rows."""
    blocks = model.blocks or (_Block(model.variables, model.constraints),)
    out = ["Minimize", f" obj: {_render_terms(model.objective)}", "Subject To"]
    out += [block.text() for block in blocks if block.rows]
    out.append("Bounds")
    for v in model.variables:
        if v.kind == "binary" and v.lb == 0 and v.ub == 1:
            continue
        if v.ub is not None and v.lb == v.ub:
            out.append(f" {v.name} = {v.lb}")
        else:
            if v.lb != 0:
                out.append(f" {v.name} >= {v.lb}")
            if v.ub is not None:
                out.append(f" {v.name} <= {v.ub}")
    generals = [v.name for v in model.variables if v.kind == "integer"]
    if generals:
        out.append("Generals")
        out.extend(f" {name}" for name in generals)
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        out.append("Binaries")
        out.extend(f" {name}" for name in binaries)
    out.append("End")
    return "\n".join(out) + "\n"


def _render_rows(out, rows, first):
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
    status: str  # optimal | feasible | infeasible | timeout | error
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
    must exit 0 and write a solution file starting with a status word
    (optionally followed by a best bound) and one ``name value`` line per
    variable.  Reported solutions are re-validated against the model
    within 1e-6.  The files go to a temporary directory that is removed
    before returning.  A zero time limit is spent before the solver
    starts: the outcome is ``timeout`` and no process is started.
    """
    t0 = time.perf_counter()
    problem = template_error(command)
    if problem:
        return SolveOutcome(status="error", message=problem)
    if time_limit_s == 0:
        return SolveOutcome(status="timeout", message="time limit of 0 s")
    with tempfile.TemporaryDirectory(prefix="robust_rcpsp_") as scratch:
        return _solve_in(Path(scratch), model, warm, command, time_limit_s, t0)


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


def _solve_in(base: Path, model, warm, command, time_limit_s, t0) -> SolveOutcome:
    lp_path = base / "model.lp"
    sol_path = base / "solution.sol"
    lp_path.write_text(export_lp(model))
    mst_path = ""
    if warm is not None and "mst" in _fields(command):
        mst_path = base / "warm.mst"
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


def _read_solution(path: Path):
    if not path.exists():
        raise BridgeError(f"solver wrote no solution file at {path}")
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise BridgeError("solution file is empty")
    head = lines[0].split()
    status = head[0].lower()
    if status not in ("optimal", "feasible", "infeasible", "timeout", "error"):
        raise BridgeError(f"unknown solver status {status!r}")
    bound = _finite(head[1], lines[0]) if len(head) > 1 else None
    values = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise BridgeError(f"malformed solution line {ln!r}")
        values[parts[0]] = _finite(parts[1], ln)
    return status, bound, values


def _finite(text, line):
    """``text`` as a float.  NaN passes every comparison of
    ``check_assignment`` and an infinity cannot be rounded, so both are
    errors, like a non-number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise BridgeError(f"non-numeric value in line {line!r}") from exc
    if not math.isfinite(value):
        raise BridgeError(f"non-finite value in line {line!r}")
    return value
