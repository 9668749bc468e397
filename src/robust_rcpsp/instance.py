"""Project instances with budgeted duration uncertainty.

Parses single-mode PSPLIB ``.sm`` files, attaches per-activity duration
deviations, and provides the canonical JSON serialization used by the CLI.
A JSON instance has one key per field, from the key table that ``to_json``
and ``from_json`` share, and the optional ``activities`` (0..n+1) and ``meta``
(``InstanceMeta``'s fields); other JSON or another key is a ``ParseError``.
Activity ids are 0-based: PSPLIB job 1 becomes the dummy source 0 and job
n+2 the dummy sink n+1, so index conventions match the rest of the library.

An instance also holds three derived fields, set at construction and left
out of ``==``, the hash, ``repr`` and the JSON: ``worst_case_duration``,
and the ``order`` and ``closure`` of its arcs that validation computes.
The DP, the time windows, the warm start, the forbidden-set kernel and the
branch-and-bound's root read these two instead of sorting the arcs again.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

from ._graph import ordered_closure
from .errors import CyclicGraphError, ParseError


@dataclass(frozen=True)
class InstanceMeta:
    """Optional instance descriptors (PSPLIB difficulty parameters)."""

    name: str = ""
    network_complexity: float | None = None
    resource_factor: float | None = None
    resource_strength: float | None = None
    source_path: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = type(value) in (int, float) and abs(value) < float("inf")
            if not (isinstance(value, str) if f.type == "str" else value is None or number):
                raise TypeError(f"meta {f.name} must be {f.type}, not {value!r}")


@dataclass(frozen=True)
class ProjectInstance:
    """Immutable project: durations, deviations, resources, precedence.

    Activities are 0..n+1 where 0 and n+1 are zero-duration dummies with no
    resource usage.  Every activity is reachable from the source and reaches
    the sink; the precedence graph is acyclic.  Every entry is an integer.
    Violations raise ValueError at construction time.  Three fields are
    derived: ``worst_case_duration``, the nominal duration plus the maximal
    deviation per activity; ``order``, the topological order of the arcs
    (``_graph.topological_order``, ties by smallest id); and ``closure``,
    their reachability bitmasks (``_graph.closure_bitsets``), both tuples
    that the check for cycles computes.
    """

    nominal_duration: tuple[int, ...]
    max_deviation: tuple[int, ...]
    requirement: tuple[tuple[int, ...], ...]
    capacity: tuple[int, ...]
    precedence: tuple[tuple[int, int], ...]
    meta: InstanceMeta = InstanceMeta()
    worst_case_duration: tuple[int, ...] = field(init=False, compare=False, repr=False)
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    closure: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nominal_duration", _ints(self.nominal_duration))
        object.__setattr__(self, "max_deviation", _ints(self.max_deviation))
        object.__setattr__(self, "requirement", tuple(map(_ints, self.requirement)))
        object.__setattr__(self, "capacity", _ints(self.capacity))
        object.__setattr__(self, "precedence", tuple(sorted(set(map(_ints, self.precedence)))))
        order, closure = _validate(self)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "closure", closure)
        object.__setattr__(self, "worst_case_duration", tuple(
            a + d for a, d in zip(self.nominal_duration, self.max_deviation)))

    @property
    def n_nodes(self):
        return len(self.nominal_duration)

    @property
    def n_activities(self):
        """Number of non-dummy activities."""
        return self.n_nodes - 2

    @property
    def resource_types(self):
        return range(len(self.capacity))

    @property
    def sink(self):
        return self.n_nodes - 1


def _ints(values):
    """``values`` as a tuple of ints; a value that ``int()`` would change,
    such as 2.7, or a boolean raises ValueError instead of being converted."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values or bool in map(type, values):
        bad = next(v for v, i in zip(values, ints) if v != i or type(v) is bool)
        raise ValueError(f"{bad!r} is not an integer")
    return ints


def _validate(inst: ProjectInstance):
    """Raise ValueError unless the instance is well formed; return the
    topological order and the closure of its arcs, as tuples."""
    n_nodes = inst.n_nodes
    if n_nodes < 2:
        raise ValueError("an instance needs at least the two dummy activities")
    for name, vec in (("nominal_duration", inst.nominal_duration),
                      ("max_deviation", inst.max_deviation)):
        if len(vec) != n_nodes:
            raise ValueError(f"{name} must have one entry per activity")
        if any(v < 0 for v in vec):
            raise ValueError(f"{name} entries must be nonnegative")
    if len(inst.requirement) != n_nodes:
        raise ValueError("requirement must have one row per activity")
    k = len(inst.capacity)
    for i, row in enumerate(inst.requirement):
        if len(row) != k:
            raise ValueError(f"requirement row {i} must have {k} entries")
        if any(r < 0 for r in row):
            raise ValueError(f"requirement row {i} has a negative entry")
        for kk, r in enumerate(row):
            if r > inst.capacity[kk]:
                raise ValueError(
                    f"activity {i} needs {r} of resource {kk} but only "
                    f"{inst.capacity[kk]} is available"
                )
    if any(c <= 0 for c in inst.capacity):
        raise ValueError("resource capacities must be positive")
    sink = inst.sink
    for dummy in (0, sink):
        if inst.nominal_duration[dummy] != 0 or inst.max_deviation[dummy] != 0:
            raise ValueError(f"dummy activity {dummy} must have zero duration")
        if any(inst.requirement[dummy]):
            raise ValueError(f"dummy activity {dummy} must not use resources")
    for i, j in inst.precedence:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"arc ({i}, {j}) references an unknown activity")
    try:
        order, reach = ordered_closure(n_nodes, inst.precedence)
    except CyclicGraphError as exc:
        raise ValueError(f"cyclic precedence relations: {exc}") from exc
    for v in range(1, n_nodes):
        if not (reach[0] >> v) & 1:
            raise ValueError(f"activity {v} is not reachable from the source")
    for v in range(n_nodes - 1):
        if not (reach[v] >> sink) & 1:
            raise ValueError(f"activity {v} does not reach the sink")
    return tuple(order), tuple(reach)


def robustify(inst: ProjectInstance) -> ProjectInstance:
    """Attach duration deviations: half the nominal duration, rounded up.

    Dummies keep a zero deviation.  An instance with a positive deviation
    is already robustified and is refused.
    """
    if any(inst.max_deviation):
        raise ValueError("instance already robustified")
    dev = [0] * inst.n_nodes
    for i in range(1, inst.sink):
        dev[i] = -(-inst.nominal_duration[i] // 2)
    return replace(inst, max_deviation=tuple(dev))


# ---------------------------------------------------------------------------
# PSPLIB .sm parsing


def parse_psplib(text: str, *, name: str = "", source_path: str = "") -> ProjectInstance:
    """Parse a single-mode PSPLIB ``.sm`` file into a ProjectInstance.

    PSPLIB job numbers are 1-based; they are shifted down by one so the
    dummy source is activity 0.  Deviations are left at zero (see
    :func:`robustify`).  Raises ParseError naming the offending line and
    section for malformed input.
    """
    lines = text.splitlines()
    n_jobs = _header_int(lines, "jobs", "header")
    n_res = _header_int(lines, "- renewable", "header")
    if n_jobs < 2:
        raise ParseError(f"need at least 2 jobs, got {n_jobs}", section="header")

    prec_rows = _table_rows(lines, "PRECEDENCE RELATIONS", n_jobs)
    req_rows = _table_rows(lines, "REQUESTS/DURATIONS", n_jobs)
    avail = _availability_row(lines, n_res)

    successors = {}
    for lineno, ints in prec_rows:
        if len(ints) < 3:
            raise ParseError("expected jobnr, #modes, #successors",
                             line=lineno, section="PRECEDENCE RELATIONS")
        job, modes, n_succ = ints[0], ints[1], ints[2]
        succ = ints[3:]
        if modes != 1:
            raise ParseError(f"job {job} has {modes} modes; only single-mode files are supported",
                             line=lineno, section="PRECEDENCE RELATIONS")
        if len(succ) != n_succ:
            raise ParseError(f"job {job} announces {n_succ} successors but lists {len(succ)}",
                             line=lineno, section="PRECEDENCE RELATIONS")
        if not 1 <= job <= n_jobs or job in successors:
            raise ParseError(f"unexpected job number {job}",
                             line=lineno, section="PRECEDENCE RELATIONS")
        for s in succ:
            if not 1 <= s <= n_jobs:
                raise ParseError(f"job {job} references unknown successor {s}",
                                 line=lineno, section="PRECEDENCE RELATIONS")
        successors[job] = succ

    # _table_rows returns n_jobs rows and every job number is checked to be
    # new and in range, so each table lists every job.
    durations = [None] * n_jobs
    requirements = [None] * n_jobs
    for lineno, ints in req_rows:
        if len(ints) != 3 + n_res:
            raise ParseError(f"expected jobnr, mode, duration and {n_res} requests",
                             line=lineno, section="REQUESTS/DURATIONS")
        job, mode, dur = ints[0], ints[1], ints[2]
        if not 1 <= job <= n_jobs or durations[job - 1] is not None:
            raise ParseError(f"unexpected job number {job}",
                             line=lineno, section="REQUESTS/DURATIONS")
        if mode != 1:
            raise ParseError(f"job {job} uses mode {mode}; only single-mode files are supported",
                             line=lineno, section="REQUESTS/DURATIONS")
        durations[job - 1] = dur
        requirements[job - 1] = tuple(ints[3:])

    arcs = []
    for job, succ in successors.items():
        for s in succ:
            arcs.append((job - 1, s - 1))
    meta = InstanceMeta(
        name=name or (os.path.splitext(os.path.basename(source_path))[0] if source_path else ""),
        source_path=source_path,
    )
    try:
        return ProjectInstance(
            nominal_duration=tuple(durations),
            max_deviation=(0,) * n_jobs,
            requirement=tuple(requirements),
            capacity=tuple(avail),
            precedence=tuple(arcs),
            meta=meta,
        )
    except ValueError as exc:
        raise ParseError(str(exc), section="validation") from exc


def _header_int(lines, key, section):
    for idx, line in enumerate(lines):
        if key in line and ":" in line:
            value = line.split(":", 1)[1].split()
            if not value:
                raise ParseError(f"missing value after {key!r}", line=idx + 1, section=section)
            try:
                return int(value[0])
            except ValueError:
                raise ParseError(f"non-integer value for {key!r}: {value[0]!r}",
                                 line=idx + 1, section=section) from None
    raise ParseError(f"missing header entry {key!r}", section=section)


def _section_start(lines, title):
    for idx, line in enumerate(lines):
        if line.strip().startswith(title):
            return idx
    raise ParseError(f"missing section header {title!r}", section=title)


def _table_rows(lines, title, n_rows):
    """Integer rows of a PSPLIB table, skipping column headers and rules."""
    start = _section_start(lines, title)
    rows = []
    idx = start + 1
    while idx < len(lines) and len(rows) < n_rows:
        line = lines[idx]
        stripped = line.strip()
        idx += 1
        if not stripped or stripped.startswith("*") or stripped.startswith("-"):
            if stripped.startswith("*") and rows:
                break
            continue
        tokens = stripped.split()
        if not tokens[0].lstrip("-").isdigit():
            continue  # column header line
        ints = []
        for tok in tokens:
            try:
                ints.append(int(tok))
            except ValueError:
                raise ParseError(f"non-integer field {tok!r}", line=idx, section=title) from None
        rows.append((idx, ints))
    if len(rows) < n_rows:
        raise ParseError(f"expected {n_rows} rows, found {len(rows)}", section=title)
    return rows


def _availability_row(lines, n_res):
    title = "RESOURCEAVAILABILITIES"
    start = _section_start(lines, title)
    for idx in range(start + 1, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("*"):
            continue
        tokens = stripped.split()
        if all(tok.lstrip("-").isdigit() for tok in tokens):
            if len(tokens) != n_res:
                raise ParseError(f"expected {n_res} capacities, found {len(tokens)}",
                                 line=idx + 1, section=title)
            return [int(t) for t in tokens]
    raise ParseError("missing capacity row", section=title)


# ---------------------------------------------------------------------------
# Canonical JSON serialization


# The JSON key of each ProjectInstance field, in the order ``to_json`` writes them.
_JSON_KEYS = {"nominal": "nominal_duration", "deviation": "max_deviation",
             "requirements": "requirement", "capacities": "capacity", "arcs": "precedence"}


def to_json(inst: ProjectInstance) -> str:
    """Canonical JSON form; integers only except the meta decimals."""
    payload = {"activities": list(range(inst.n_nodes)),
               **{key: getattr(inst, name) for key, name in _JSON_KEYS.items()},
               "meta": asdict(inst.meta)}
    return json.dumps(payload, separators=(", ", ": "))


def from_json(text: str) -> ProjectInstance:
    """Inverse of :func:`to_json`.  The instance's constructor checks the
    ``_JSON_KEYS`` values; ``activities`` other than 0..n+1 is a ParseError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", section="json") from exc
    try:
        if not isinstance(payload, dict):
            raise TypeError(f"expected an object, not {payload!r}")
        unknown = payload.keys() - _JSON_KEYS.keys() - {"activities", "meta"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        inst = ProjectInstance(**{name: payload[key] for key, name in _JSON_KEYS.items()},
                               meta=InstanceMeta(**payload.get("meta", {})))
        nodes = tuple(range(inst.n_nodes))
        if _ints(payload.get("activities", nodes)) != nodes:
            raise ValueError(f"activities must be 0..{inst.sink}")
        return inst
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ParseError(f"invalid instance payload: {exc}", section="json") from exc
