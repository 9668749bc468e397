"""Batch experiment harness: solve variants over an instance directory and
derive Dolan-More performance profiles and per-set summary tables.

Variants: ``bnb`` (self-contained exact solver) and the four compact-model
variants ``basic``, ``trans``, ``warm``, ``warm+trans``; the model variants
need an external solver bridge and are recorded as skipped without one.
The ``warm`` variants supply the heuristic solution as an MST file and use
it to tighten the big-M values; all model variants use integer starts.

The config keys and their defaults are ``BenchConfig``'s fields, and the
columns of ``results.csv`` and ``summary.csv`` are those of ``ResultRecord``
and ``SummaryRow``; a reader rejects a key or a column that is no field.
"""
from __future__ import annotations

import csv
import io
import json
import re
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import bnb as bnb_mod
from . import milp
from .errors import ParseError, RobustRcpspError
from .heuristics import time_windows, warm_start
from .instance import parse_psplib, robustify, unique_keys

MILP_VARIANTS = ("basic", "trans", "warm", "warm+trans")
ALL_VARIANTS = MILP_VARIANTS + ("bnb",)


def variant_order(names) -> tuple[str, ...]:
    """The profile's column order for the variants ``names``: that of
    ``ALL_VARIANTS``, then any other name, sorted.  ``performance_profile``
    orders its columns by it, so ``write_outputs`` and CLI ``profile``
    write one profile of one run."""
    return tuple(sorted(set(names), key=lambda v: (
        ALL_VARIANTS.index(v) if v in ALL_VARIANTS else len(ALL_VARIANTS), v)))


def is_seconds(value) -> bool:
    """Whether ``value`` is a finite number >= 0, the rule for a time limit
    and a time; a boolean is not a number."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


def _distinct(values, rule) -> bool:
    return (isinstance(values, tuple) and all(map(rule, values))
            and 0 < len(set(values)) == len(values))


@dataclass(frozen=True)
class BenchConfig:
    """A bench run's settings.  However it is built, a bad value raises
    ``ValueError`` (``bench config: <field> must be <rule>, not <value>``)."""

    instances_dir: str
    gammas: tuple[int, ...] = (3, 5, 7)
    variants: tuple[str, ...] = ("bnb",)
    time_limit_s: float | None = None
    bridge_cmd: str | None = None
    workers: int = 1

    def __post_init__(self):
        for name, (rule, holds) in _CONFIG_RULES.items():
            value = getattr(self, name)
            if not holds(value):
                raise ValueError(f"bench config: {name} must be {rule}, not {value!r}")

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        """Read a config object, its lists as tuples; a key it omits takes
        its field's default.  An unknown or repeated key raises
        ``ValueError`` naming it, and a bad value the field's own."""
        try:
            raw = json.loads(text, object_pairs_hook=unique_keys)
        except ValueError as exc:  # a JSONDecodeError or a repeated key
            raise ValueError(f"bench config: {exc}") from None
        if not isinstance(raw, dict) or "instances_dir" not in raw:
            raise ValueError('bench config: expected an object with "instances_dir"')
        names = [f.name for f in fields(cls)]
        unknown = [key for key in raw if key not in names]
        if unknown:
            raise ValueError(f"bench config: unknown key {unknown[0]!r}; the keys are {names}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


_CONFIG_RULES = {  # field -> (rule, check)
    "instances_dir": ("a string", lambda v: isinstance(v, str)),
    "gammas": ("a non-empty list (in code, a tuple) of distinct ints >= 0",
               lambda v: _distinct(v, lambda g: type(g) is int and g >= 0)),
    "variants": (f"a non-empty list (in code, a tuple) of distinct names from {ALL_VARIANTS}",
                 lambda v: _distinct(v, lambda name: name in ALL_VARIANTS)),
    "time_limit_s": ("null or a finite number >= 0", lambda v: v is None or is_seconds(v)),
    "bridge_cmd": (f"null or a command template with fields from {milp.PLACEHOLDERS}",
                   lambda v: v is None or (isinstance(v, str) and milp.template_error(v) is None)),
    "workers": ("an int >= 1", lambda v: type(v) is int and v >= 1),
}


@dataclass(frozen=True)
class ResultRecord:
    instance: str
    gamma: int
    variant: str
    status: str
    objective: float | None
    bound: float | None
    gap_percent: float | None
    time_s: float


RESULTS_HEADER = tuple(f.name for f in fields(ResultRecord))


@dataclass(frozen=True)
class SummaryRow:
    """Per (set, variant): mean time over solved, mean gap over unsolved
    with a gap (None over no record), and the solved count."""

    set: str
    variant: str
    time: float | None
    gap: float | None
    solved: int


@dataclass(frozen=True)
class PerformanceProfile:
    taus: tuple[float, ...]
    rho: dict  # variant -> tuple of fractions, aligned with taus; in column order
    failure_ratio: float


def run_experiment(config: BenchConfig) -> list[ResultRecord]:
    """Solve every (instance, gamma, variant) combination of the config on
    a pool of ``config.workers`` threads; raises ``ValueError`` when the
    instance directory holds no ``.sm`` file."""
    files = sorted(Path(config.instances_dir).glob("*.sm"))
    if not files:
        raise ValueError(f"no .sm instances in {config.instances_dir}")
    tasks = [(path, gamma, variant)
             for path in files for gamma in config.gammas for variant in config.variants]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        records = list(pool.map(lambda t: _solve_one(config, *t), tasks))
    records.sort(key=lambda r: (r.instance, r.gamma, r.variant))
    return records


def _solve_one(config: BenchConfig, path: Path, gamma: int, variant: str) -> ResultRecord:
    """The record of one task.  A task that raises is recorded as ``error``,
    so one bad instance cannot abort the run; an exception other than the
    library's own is a bug and also prints its traceback on stderr."""
    t0 = time.perf_counter()
    try:
        return _run_task(config, path, gamma, variant)
    except RobustRcpspError:
        pass
    except Exception:
        print(f"bench: task ({path.stem}, gamma={gamma}, {variant}) failed:", file=sys.stderr)
        traceback.print_exc()
    return ResultRecord(path.stem, gamma, variant, "error", None, None, None,
                        time.perf_counter() - t0)


def _run_task(config, path, gamma, variant):
    name = path.stem
    try:
        inst = robustify(parse_psplib(path.read_text(), source_path=str(path)))
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if variant == "bnb":
        res = bnb_mod.solve_exact(inst, gamma, time_limit_s=config.time_limit_s)
        status = "optimal" if res.status == "optimal" else "feasible"
        return ResultRecord(name, gamma, variant, status, float(res.value),
                            float(res.best_bound), bnb_mod.optimality_gap(res), res.time_s)
    if config.bridge_cmd is None:
        return ResultRecord(name, gamma, variant, "skipped", None, None, None, 0.0)
    outcome = solve_variant(inst, gamma, variant, command=config.bridge_cmd,
                            time_limit_s=config.time_limit_s)
    gap = bnb_mod.gap_percent(outcome.status, outcome.objective, outcome.bound)
    return ResultRecord(name, gamma, variant, outcome.status, outcome.objective,
                        outcome.bound, gap, outcome.time_s)


def build_variant(inst, gamma, variant):
    """The compact model of a MILP variant and, for the ``warm`` variants,
    the warm-start assignment (else None); raises ``ValueError`` for a
    name not in ``MILP_VARIANTS``."""
    if variant not in MILP_VARIANTS:
        raise ValueError(f"unknown MILP variant {variant!r}; expected one of {MILP_VARIANTS}")
    warm = tighten = None
    if variant.startswith("warm"):
        warm = warm_start(inst, gamma)
        tighten = time_windows(inst, warm.selection, gamma, warm.upper_bound)
    model = milp.build_compact(inst, gamma, transitivity=variant.endswith("trans"),
                               tighten=tighten, integral_starts=True)
    assignment = None if warm is None else milp.warm_start_assignment(inst, gamma, warm)
    return model, assignment


def solve_variant(inst, gamma, variant, *, command, time_limit_s=None):
    """Build a MILP variant and solve it through the bridge ``command``,
    both within ``time_limit_s``: the solver gets what the build left of
    it, so a build that spends it all gives ``timeout`` and starts no
    process, and the outcome's ``time_s`` counts from before the build."""
    t0 = time.perf_counter()
    model, assignment = build_variant(inst, gamma, variant)
    if time_limit_s is not None:
        time_limit_s = max(0, time_limit_s - (time.perf_counter() - t0))
    outcome = milp.solve_external(model, assignment, command=command,
                                  time_limit_s=time_limit_s)
    return replace(outcome, time_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Performance profiles


def performance_profile(records, variants) -> PerformanceProfile:
    """Dolan-More profile over solve-to-optimality times.

    The performance ratio of a variant on an instance is its time divided by
    the best time over the compared variants; unsolved pairs get the failure
    ratio P, set to twice the largest finite ratio.  ``skipped`` records
    are left out, and ``rho`` has the columns ``variants`` in
    ``variant_order``.
    """
    variants = variant_order(variants)
    table = {}
    for r in records:
        if r.variant not in variants or r.status == "skipped":
            continue
        slot = ((r.instance, r.gamma), r.variant)
        if slot in table:
            raise ValueError(f"duplicate record for {slot}")
        table[slot] = r
    keys = sorted({key for key, _ in table})
    ratios = {}  # (key, variant) -> ratio, for the solved pairs only
    for key in keys:
        solved = {v: table[(key, v)].time_s for v in variants
                  if (key, v) in table and table[(key, v)].status == "optimal"}
        best = max(min(solved.values(), default=0.0), 1e-9)
        for v, time_s in solved.items():
            ratios[(key, v)] = max(1.0, time_s / best)
    failure_ratio = 2.0 * max(ratios.values()) if ratios else 2.0
    taus = tuple(sorted(set(ratios.values())))
    n = len(keys)
    rho = {
        v: tuple(sum(1 for key in keys if ratios.get((key, v), failure_ratio) <= tau) / n
                 for tau in taus)
        for v in variants
    }
    return PerformanceProfile(taus=taus, rho=rho, failure_ratio=failure_ratio)


def instance_set_label(name: str) -> str:
    """PSPLIB set label (J301..J3048) from a file stem like j3012_7."""
    m = re.match(r"[jJ]30(\d+)_\d+$", name)
    return f"J30{m.group(1)}" if m else name


def summarize(records) -> list[SummaryRow]:
    """One row per (set, variant), in PSPLIB set order, then by variant."""
    groups = {}
    for r in records:
        groups.setdefault((instance_set_label(r.instance), r.variant), []).append(r)
    rows = []
    for (label, variant), recs in sorted(groups.items(), key=lambda kv: (_set_key(kv[0][0]), kv[0][1])):
        times = [r.time_s for r in recs if r.status == "optimal"]
        gaps = [r.gap_percent for r in recs if r.status != "optimal" and r.gap_percent is not None]
        rows.append(SummaryRow(label, variant, round(sum(times) / len(times), 4) if times else None,
                               round(sum(gaps) / len(gaps), 4) if gaps else None, len(times)))
    return rows


def _set_key(label):
    m = re.match(r"J30(\d+)$", label)
    return (0, int(m.group(1))) if m else (1, label)


# ---------------------------------------------------------------------------
# CSV / SVG output


def _fmt(value):
    return "" if value is None else f"{value:.6g}"


def _seconds(text):
    value = float(text)
    if not is_seconds(value):
        raise ValueError(f"time_s must be a finite number >= 0, not {text!r}")
    return value


def _optional_number(text):
    if not text:
        return None
    value = float(text)
    if not abs(value) <= sys.float_info.max:  # nan compares false
        raise ValueError(f"expected a finite number or nothing, not {text!r}")
    return value


# Field type -> (write, read) of its CSV column; ResultRecord.time_s is the
# one plain float, a time in seconds.
_CODECS = {"str": (str, str), "int": (str, int),
           "float | None": (_fmt, _optional_number),
           "float": (lambda v: f"{v:.6f}", _seconds)}
_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(ResultRecord)]  # (name, write, read)


def _to_csv(cls, rows) -> str:
    """A header of the dataclass's field names, then each row by its fields."""
    writes = [(f.name, _CODECS[f.type][0]) for f in fields(cls)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _ in writes])
    writer.writerows([write(getattr(row, name)) for name, write in writes] for row in rows)
    return buf.getvalue()


def results_to_csv(records) -> str:
    return _to_csv(ResultRecord, records)


def records_from_csv(text: str) -> list[ResultRecord]:
    """The records of a results CSV; raises ``ValueError`` naming the line
    of a missing, unknown or repeated column, a short or long row, a bad
    number, an ``objective``, ``bound`` or ``gap_percent`` that is not a
    finite number or empty, or a ``time_s`` that is not a finite number
    >= 0."""
    reader = csv.DictReader(io.StringIO(text))
    columns = reader.fieldnames or ()
    missing = [c for c in RESULTS_HEADER if c not in columns]
    if missing:
        raise ValueError(f"results CSV line 1: no column {missing[0]!r}")
    unknown = [c for c in columns if c not in RESULTS_HEADER]
    if unknown:
        raise ValueError(f"results CSV line 1: unknown column {unknown[0]!r}")
    repeated = [c for i, c in enumerate(columns) if c in columns[:i]]
    if repeated:
        raise ValueError(f"results CSV line 1: repeated column {repeated[0]!r}")
    records = []
    for row in reader:
        short = [c for c in RESULTS_HEADER if row[c] is None]
        if short:
            raise ValueError(f"results CSV line {reader.line_num}: no value in column {short[0]!r}")
        if None in row:  # DictReader's key for the values past the last column
            raise ValueError(f"results CSV line {reader.line_num}: "
                             f"more values than the {len(columns)} columns")
        try:
            records.append(ResultRecord(*(read(row[name]) for name, _, read in _COLUMNS)))
        except ValueError as exc:
            raise ValueError(f"results CSV line {reader.line_num}: {exc}") from None
    return records


def profile_to_csv(profile: PerformanceProfile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tau"] + [f"rho_{v}" for v in profile.rho])
    for tau, *fracs in zip(profile.taus, *profile.rho.values()):
        writer.writerow([f"{tau:.6f}"] + [f"{frac:.6f}" for frac in fracs])
    return buf.getvalue()


def summary_to_csv(rows) -> str:
    return _to_csv(SummaryRow, rows)


_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b")
_SVG_WIDTH = 640
_SVG_HEIGHT = 420


def profile_svg(profile: PerformanceProfile) -> str:
    """Step-function line chart of the profile, no plotting dependency.

    Variant names are escaped as XML text, since a results CSV may hold
    any name: ``&``, ``<`` and ``>`` become entities, the replacements
    ``xml.sax.saxutils.escape`` makes.  That module is not imported, as it
    loads ``urllib.request`` and ``ssl`` with it."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    left, right, top, bottom = 60, 20, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    taus = profile.taus or (1.0,)
    t_min, t_max = 1.0, max(taus[-1], 1.0 + 1e-9)

    def x(tau):
        return left + plot_w * (tau - t_min) / (t_max - t_min)

    def y(frac):
        return top + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">performance ratio tau</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">fraction solved</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{left - 8}" y="{y(frac) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{frac:.1f}</text>')
    for idx, (variant, series) in enumerate(profile.rho.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = []
        prev = 0.0
        for tau, frac in zip(profile.taus, series):
            pts.append((x(tau), y(prev)))
            pts.append((x(tau), y(frac)))
            prev = frac
        pts.append((left + plot_w, y(prev)))
        path = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        label = variant.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{left + 10}" y="{top + 14 + 14 * idx}" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_outputs(records, out_dir, variants) -> dict:
    """Write results.csv, profile.csv, profile.svg and summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "results": out / "results.csv",
        "profile": out / "profile.csv",
        "svg": out / "profile.svg",
        "summary": out / "summary.csv",
    }
    paths["results"].write_text(results_to_csv(records))
    profile = performance_profile(records, variants)
    paths["profile"].write_text(profile_to_csv(profile))
    paths["svg"].write_text(profile_svg(profile))
    paths["summary"].write_text(summary_to_csv(summarize(records)))
    return paths
