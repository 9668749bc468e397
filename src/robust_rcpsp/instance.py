"""Project instances with budgeted duration uncertainty.

Parses single-mode PSPLIB ``.sm`` files, attaches per-activity duration
deviations, and provides the canonical JSON serialization used by the CLI.
A JSON instance has one key per field, from the key table that ``to_json``
and ``from_json`` share, and the optional ``activities`` (0..n+1) and ``meta``
(``InstanceMeta``'s fields); other JSON or another key is a ``ParseError``.
Activity ids are 0-based: PSPLIB job 1 becomes the dummy source 0 and job
n+2 the dummy sink n+1, so index conventions match the rest of the library.

An instance also holds eight derived fields, set at construction and
left out of ``==``, the hash, ``repr`` and the JSON:

- ``worst_case_duration``;
- the ``order`` and ``closure`` of its arcs (``_graph.arc_graph``),
  which the warm start's tie rank, the time windows, the forbidden-set
  kernel and the branch-and-bound's root read instead of sorting the
  arcs again;
- ``nominal_tail``, a run of the one longest-path kernel
  (``_graph.leveled_rows``) backward over ``order`` at no delay, which
  gives the LFT schedule its priorities, the time windows their latest
  finishes and the nominal critical path (``nominal_tail[0]``) that a
  horizon is checked against;
- ``pred`` and ``succ``, the arcs' predecessor and successor tuples,
  which the LFT schedule (``succ`` and the in-degrees), the time windows'
  forward pass (``pred``) and the branch-and-bound's root (both) read
  instead of regrouping the arcs in every solve;
- ``ancestors``, the transpose of ``closure``, which the catalog, the
  exhaustive enumerator and the branch-and-bound's root start from;
- ``resource_fields``, the requirement rows packed into one int each
  with ``high`` and ``empty`` (``_resource_fields``), the one resource
  arithmetic, which the LFT schedule and the forbidden-set kernel read.

Construction checks each field once: one ``_ints`` call over its values,
regrouped into rows or arcs, then ``_validate`` on every field but the
arcs.  The arc checks and the last six derived fields are one pure
function of the nominal durations and the arcs, ``_arc_derivation``,
cached for the last pair of them like ``milp``'s frames and blocks; so
``robustify``, a ``dataclasses.replace`` that keeps both and a parse of an
instance just built derive nothing again, and share its tuples.  The
packing is cached the same way for the last pair of requirements and
capacities.
"""
from __future__ import annotations

import functools
import json
import operator
import os
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate, chain

from ._graph import arc_graph, leveled_rows, reach_bitsets
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
    the sink; the precedence graph is acyclic.  Every entry is an integer
    and every arc a pair.  Violations raise ValueError at construction
    time.  Eight fields are derived: ``worst_case_duration``, the nominal
    duration plus the maximal deviation per activity; ``order``, the
    topological order of the arcs (ties by smallest id); ``closure``,
    their reachability bitmasks; ``pred`` and ``succ``, per activity the
    tuple of its predecessors and of its successors, in arc order, all
    four the tuples of the ``_graph.arc_graph`` call that checks for
    cycles; ``nominal_tail``, the longest nominal path from each
    activity's finish to the sink, the level-zero column of
    ``_graph.leveled_rows`` on the successor lists in reversed ``order``,
    at every gamma; and ``ancestors``, the transpose of ``closure`` (per
    activity the mask of the activities that reach it), one forward
    ``_graph.reach_bitsets`` pass over ``order`` and ``pred``.  The last
    six depend on ``nominal_duration`` and ``precedence`` alone, and an
    instance that shares both with the one built before it shares those
    six tuples too (``_arc_derivation``).  ``resource_fields`` is
    ``(packed, high, empty)``, the packed resource sums of
    ``_resource_fields``; it depends on ``requirement`` and ``capacity``
    alone and is shared the same way.
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
    nominal_tail: tuple[int, ...] = field(init=False, compare=False, repr=False)
    pred: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    succ: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    ancestors: tuple[int, ...] = field(init=False, compare=False, repr=False)
    resource_fields: tuple[tuple[int, ...], int, int] = field(init=False, compare=False,
                                                               repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nominal_duration", _ints(self.nominal_duration))
        object.__setattr__(self, "max_deviation", _ints(self.max_deviation))
        object.__setattr__(self, "requirement", _int_rows(self.requirement))
        object.__setattr__(self, "capacity", _ints(self.capacity))
        object.__setattr__(self, "precedence", _int_pairs(self.precedence))
        _validate(self)
        for name, value in zip(("order", "closure", "nominal_tail", "pred", "succ", "ancestors"),
                               _arc_derivation(self.nominal_duration, self.precedence)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "resource_fields",
                           _resource_fields(self.requirement, self.capacity))
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


def _int_rows(rows):
    """``rows`` as a tuple of int tuples, of the same lengths, from one
    ``_ints`` call over their values in order."""
    rows = tuple(map(tuple, rows))
    values = _ints(chain.from_iterable(rows))
    ends = tuple(accumulate(map(len, rows), initial=0))
    return tuple(values[a:b] for a, b in zip(ends, ends[1:]))


def _int_pairs(arcs):
    """``arcs`` as sorted distinct pairs of ints, from one ``_ints`` call
    over their values; an arc that is no pair raises ValueError."""
    arcs = tuple(map(tuple, arcs))
    values = _ints(chain.from_iterable(arcs))
    if {*map(len, arcs)} - {2}:
        bad = next(arc for arc in arcs if len(arc) != 2)
        raise ValueError(f"arc {bad} is not a pair")
    return tuple(sorted(set(zip(values[::2], values[1::2]))))


def _validate(inst: ProjectInstance):
    """Raise ValueError unless every field but the arcs is well formed;
    ``_arc_derivation`` checks the arcs."""
    n_nodes = inst.n_nodes
    if n_nodes < 2:
        raise ValueError("an instance needs at least the two dummy activities")
    for name, vec in (("nominal_duration", inst.nominal_duration),
                      ("max_deviation", inst.max_deviation)):
        if len(vec) != n_nodes:
            raise ValueError(f"{name} must have one entry per activity")
        if min(vec) < 0:
            raise ValueError(f"{name} entries must be nonnegative")
    rows, capacity = inst.requirement, inst.capacity
    if len(rows) != n_nodes:
        raise ValueError("requirement must have one row per activity")
    if ({*map(len, rows)} - {len(capacity)} or min(chain.from_iterable(rows), default=0) < 0
            or any(map(operator.gt, map(max, zip(*rows)), capacity))):
        _raise_row_fault(rows, capacity)
    if any(c <= 0 for c in inst.capacity):
        raise ValueError("resource capacities must be positive")
    for dummy in (0, inst.sink):
        if inst.nominal_duration[dummy] != 0 or inst.max_deviation[dummy] != 0:
            raise ValueError(f"dummy activity {dummy} must have zero duration")
        if any(inst.requirement[dummy]):
            raise ValueError(f"dummy activity {dummy} must not use resources")


def _raise_row_fault(rows, capacity):
    """Raise ValueError naming the first requirement row of the wrong
    length, with a negative entry or with more than a capacity."""
    k = len(capacity)
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ValueError(f"requirement row {i} must have {k} entries")
        if any(r < 0 for r in row):
            raise ValueError(f"requirement row {i} has a negative entry")
        for kk, r in enumerate(row):
            if r > capacity[kk]:
                raise ValueError(
                    f"activity {i} needs {r} of resource {kk} but only "
                    f"{capacity[kk]} is available"
                )


@functools.lru_cache(maxsize=1)
def _arc_derivation(nominal_duration, precedence):
    """Check the arcs ``precedence`` over the activities of
    ``nominal_duration`` and derive ``(order, closure, nominal_tail, pred,
    succ, ancestors)`` from them, as tuples.

    Raise ValueError unless every arc joins two known activities, the
    arcs are acyclic, every activity is reachable from the source and
    every activity reaches the sink.  The result depends on nothing else,
    so it is cached for the last pair of inputs: ``robustify``, a
    ``dataclasses.replace`` that keeps both and a parse of the instance
    just built derive nothing again.  A failed check is never cached.
    """
    n_nodes = len(nominal_duration)
    sink = n_nodes - 1
    for i, j in precedence:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"arc ({i}, {j}) references an unknown activity")
    try:
        order, reach, pred, succ = arc_graph(n_nodes, precedence)
    except CyclicGraphError as exc:
        raise ValueError(f"cyclic precedence relations: {exc}") from exc
    for v in range(1, n_nodes):
        if not (reach[0] >> v) & 1:
            raise ValueError(f"activity {v} is not reachable from the source")
    for v in range(n_nodes - 1):
        if not (reach[v] >> sink) & 1:
            raise ValueError(f"activity {v} does not reach the sink")
    tail = leveled_rows(nominal_duration, nominal_duration, 0, reversed(order), succ)
    return (tuple(order), tuple(reach), tuple(row[0] for row in tail),
            tuple(map(tuple, pred)), tuple(map(tuple, succ)),
            tuple(reach_bitsets(order, pred)))


@functools.lru_cache(maxsize=1)
def _resource_fields(requirement, capacity):
    """``(packed, high, empty)``: each requirement row packed into one int
    with a ``w``-bit field per resource, k in bits ``[k*w, (k+1)*w)``.
    Field k of ``empty`` is ``2**(w-1) - 1 - cap[k]``, so its top bit (the
    overflow bit) in ``empty + sum(packed[i] for i in S)`` is set exactly
    when S needs more than ``cap[k]``; ``high`` holds those bits.  ``w``
    fits every requirement sum plus the largest capacity, so no carry
    crosses into the next field.  Each row, ``high`` and ``empty`` are
    packed by Horner's rule in base ``2**w``, from the last resource down.

    The result depends on the two fields alone, so it is cached for the
    last pair of them, like ``_arc_derivation``.
    """
    bound = max(map(sum, zip(*requirement)), default=0) + max(capacity, default=0)
    w = bound.bit_length() + 1
    top = 1 << (w - 1)
    high = empty = 0
    for c in reversed(capacity):
        high = high << w | top
        empty = empty << w | (top - 1 - c)
    packed = []
    for row in requirement:
        total = 0
        for r in reversed(row):
            total = total << w | r
        packed.append(total)
    return tuple(packed), high, empty


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


def parse_psplib(text: str, *, source_path: str = "") -> ProjectInstance:
    """Parse a single-mode PSPLIB ``.sm`` file into a ProjectInstance.

    PSPLIB job numbers are 1-based; they are shifted down by one so the
    dummy source is activity 0.  Deviations are left at zero (see
    :func:`robustify`).  Raises ParseError naming the offending line and
    section for malformed input.
    """
    lines = text.splitlines()
    first = _first_lines(lines)
    n_jobs = _header_int(lines, first, "jobs")
    n_res = _header_int(lines, first, "- renewable")
    if n_jobs < 2:
        raise ParseError(f"need at least 2 jobs, got {n_jobs}", section="header")

    prec_rows = _table_rows(lines, first, "PRECEDENCE RELATIONS", n_jobs)
    req_rows = _table_rows(lines, first, "REQUESTS/DURATIONS", n_jobs)
    avail = _availability_row(lines, first, n_res)

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
        name=os.path.splitext(os.path.basename(source_path))[0] if source_path else "",
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


_HEADER_KEYS = ("jobs", "- renewable")
_SECTION_TITLES = ("PRECEDENCE RELATIONS", "REQUESTS/DURATIONS", "RESOURCEAVAILABILITIES")


def _first_lines(lines):
    """The index of the first line that holds each header key and a colon,
    and of the first line that starts with each section title (after
    leading blanks), or None, from one pass over ``lines``."""
    first = dict.fromkeys(_HEADER_KEYS + _SECTION_TITLES)
    for idx, line in enumerate(lines):
        if ":" in line:
            for key in _HEADER_KEYS:
                if key in line and first[key] is None:
                    first[key] = idx
        head = line.lstrip()
        if head.startswith(_SECTION_TITLES):
            for title in _SECTION_TITLES:
                if head.startswith(title) and first[title] is None:
                    first[title] = idx
    return first


def _header_int(lines, first, key):
    idx = first[key]
    if idx is None:
        raise ParseError(f"missing header entry {key!r}", section="header")
    value = lines[idx].split(":", 1)[1].split()
    if not value:
        raise ParseError(f"missing value after {key!r}", line=idx + 1, section="header")
    try:
        return int(value[0])
    except ValueError:
        raise ParseError(f"non-integer value for {key!r}: {value[0]!r}",
                         line=idx + 1, section="header") from None


def _section_start(first, title):
    if first[title] is None:
        raise ParseError(f"missing section header {title!r}", section=title)
    return first[title]


def _table_rows(lines, first, title, n_rows):
    """Integer rows of a PSPLIB table, skipping column headers and rules."""
    start = _section_start(first, title)
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


def _availability_row(lines, first, n_res):
    title = "RESOURCEAVAILABILITIES"
    start = _section_start(first, title)
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


def unique_keys(pairs):
    """``object_pairs_hook`` of the JSON readers: the object of the
    ``(key, value)`` pairs, or ValueError on a key that it repeats, where
    ``json`` would keep the last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def from_json(text: str) -> ProjectInstance:
    """Inverse of :func:`to_json`.  The instance's constructor checks the
    ``_JSON_KEYS`` values; ``activities`` other than 0..n+1 is a ParseError."""
    try:
        payload = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # a JSONDecodeError or a repeated key
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
