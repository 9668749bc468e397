"""The benchmark's workloads: corpus spec, timed operation and output checks.

Each workload solves or models instances drawn from the test generator
``tests/gen.random_psplib_instance`` with ``random.Random(seed)``.  A run
times one pass of operations (an op is one library call made the way the
CLI or the bench makes it), checks every output outside the timed region,
and counts an op as failed when it raises or a check finds a problem.

Every run draws a new corpus from its seed, and the cost of single
instances spreads over two orders of magnitude (a node-capped j30 solve
takes 0.1 s to 10 s), so the search and catalog passes hold hundreds of
small instances; only then does a pass time repeat within about 10%
across seeds.  ``instances_per_s`` sizes a pass to take about
``--seconds`` at the reference speed of calibration.py.
"""
from __future__ import annotations

import dataclasses
import functools
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from robust_rcpsp import adversary, bench, bnb, heuristics, milp, network


@dataclass
class Item:
    name: str
    path: Path
    inst: object


@dataclass
class Op:
    """Outcome of one timed operation; ``problems`` is empty when it passed."""

    name: str
    seconds: float
    problems: list
    solved: bool = False
    gap_pct: float | None = None
    makespan: float | None = None
    counts: dict = field(default_factory=dict)


class Workload:
    name = ""
    n_act = 0
    resources = 4
    gamma = 3
    instances_per_s = 1.0
    min_instances = 4
    calibrated = True  # see calibration.py

    def pass_size(self, seconds):
        return max(self.min_instances, round(seconds * self.instances_per_s))

    def spec(self):
        return {"n": self.n_act, "K": self.resources, "gamma": self.gamma}

    def layer_metrics(self):
        """Per-layer values measured outside the spans, by name."""
        return {}


def _observe_result(span, res, args):
    span.attrs.update(nodes=res.nodes, best_bound=res.best_bound, value=res.value)


def _observe_catalog(span, catalog, args):
    span.attrs["sets"] = len(catalog)


def _observe_warm(span, warm, args):
    span.attrs["upper_bound"] = warm.upper_bound


def _observe_dp(span, dp, args):
    span.attrs["value"] = dp.value


def _observe_model(span, model, args):
    span.attrs.update(rows=len(model.constraints), cols=len(model.variables),
                      nnz=sum(len(c.coeffs) for c in model.constraints))


def _observe_text(span, text, args):
    span.attrs["bytes"] = len(text)


class ExactSearch(Workload):
    """One op is ``solve_exact(inst, 3, node_cap=C)`` with the catalog left
    to the solver, as the CLI does."""

    node_cap = 0

    def spec(self):
        return {**super().spec(), "node_cap": self.node_cap}

    def hooks(self, tracer):
        tracer.hook(bnb, "solve_exact", _observe_result)
        tracer.hook(bnb, "minimal_forbidden_sets", _observe_catalog)
        tracer.hook(bnb, "warm_start", _observe_warm)
        tracer.hook(bnb, "worst_case_makespan_dp", _observe_dp)
        tracer.hook(network, "verify_selection")
        tracer.hook(adversary, "worst_case_makespan_dp", _observe_dp)

    def run(self, items, session):
        catalogs = []
        original = bnb.minimal_forbidden_sets

        # The checks verify against the catalog the solver itself used;
        # keeping a reference to it costs one Python call per op.
        @functools.wraps(original)
        def remembering(*args, **kwargs):
            catalogs.append(original(*args, **kwargs))
            return catalogs[-1]

        bnb.minimal_forbidden_sets = remembering
        try:
            ops = [self._one(item, session, catalogs) for item in items]
        finally:
            bnb.minimal_forbidden_sets = original
        return ops, sum(op.seconds for op in ops)

    def _one(self, item, session, catalogs):
        catalogs.clear()
        res, seconds, error = session.op(
            lambda: bnb.solve_exact(item.inst, self.gamma, node_cap=self.node_cap))
        if error:
            return Op(item.name, seconds, [error])
        catalog = catalogs[-1] if catalogs else network.minimal_forbidden_sets(item.inst)
        problems, error = session.check(lambda: self.check(item.inst, res, catalog))
        return Op(item.name, seconds, [error] if error else problems,
                  solved=res.status == "optimal", gap_pct=bnb.optimality_gap(res),
                  makespan=res.value,
                  counts={"bnb.nodes": res.nodes, "network.catalog_sets": len(catalog)})

    def check(self, inst, res, catalog):
        if res.selection is None or res.value is None:
            return ["no selection returned"]
        problems = []
        verdict = network.verify_selection(inst, res.selection, catalog)
        if not verdict.sufficient:
            problems.append(f"selection is not sufficient: {verdict}")
        value = adversary.worst_case_makespan_dp(inst, res.selection, self.gamma).value
        if value != res.value:
            problems.append(f"reported makespan {res.value}, the DP gives {value}")
        if res.best_bound is None or res.best_bound > res.value:
            problems.append(f"best bound {res.best_bound} exceeds the makespan {res.value}")
        if res.nodes > self.node_cap:
            problems.append(f"{res.nodes} nodes exceed the cap {self.node_cap}")
        return problems

    def self_check(self, items):
        inst = items[0].inst
        res = bnb.solve_exact(inst, self.gamma, node_cap=self.node_cap)
        corrupted = dataclasses.replace(res, value=res.value + 1)
        return self.check(inst, corrupted, network.minimal_forbidden_sets(inst))


class SearchJ20(ExactSearch):
    """Node-capped search: B&B and the adversary DP do most of the work."""

    name = "search-j20"
    n_act = 20
    node_cap = 20
    instances_per_s = 10.0


class CatalogJ25(ExactSearch):
    """Time until search starts: catalog, warm start and root bound."""

    name = "catalog-j25"
    n_act = 25
    node_cap = 0
    instances_per_s = 16.0


@dataclass
class Built:
    variant: str
    model: object
    lp_bytes: int
    warm: object = None
    assignment: dict | None = None


def expected_size(n_nodes, gamma, resources, transitivity):
    """Closed-form (rows, cols) of ``build_compact``."""
    nn = n_nodes * n_nodes
    cols = n_nodes * (gamma + 1) + nn + nn * resources
    rows = nn * (2 * gamma + 1) + nn * resources + 2 * n_nodes * resources
    if transitivity:
        rows += nn - 1 + nn * n_nodes
    return rows, cols


class ModelJ30(Workload):
    """One op builds the four bench variants of the compact model for one
    instance the way the bench and the CLI ``build`` do and writes their LP
    text, plus the MST warm start for the warm variants."""

    name = "model-j30"
    n_act = 30
    gamma = 7
    instances_per_s = 0.44

    def hooks(self, tracer):
        tracer.hook(heuristics, "warm_start", _observe_warm)
        tracer.hook(heuristics, "time_windows")
        tracer.hook(milp, "build_compact", _observe_model)
        tracer.hook(milp, "export_lp", _observe_text)
        tracer.hook(milp, "warm_start_assignment")
        tracer.hook(milp, "export_warm_start", _observe_text)
        tracer.hook(milp, "check_assignment")
        tracer.hook(adversary, "worst_case_makespan_dp", _observe_dp)

    def build(self, inst, variant):
        warm = tighten = None
        if variant.startswith("warm"):
            warm = heuristics.warm_start(inst, self.gamma)
            tighten = heuristics.time_windows(inst, warm.selection, self.gamma,
                                              warm.upper_bound)
        model = milp.build_compact(inst, self.gamma, transitivity="trans" in variant,
                                   tighten=tighten, integral_starts=True)
        out = Built(variant, model, len(milp.export_lp(model)), warm)
        if warm is not None:
            out.assignment = milp.warm_start_assignment(inst, self.gamma, warm)
            milp.export_warm_start(out.assignment, model)
        return out

    def run(self, items, session):
        ops = []
        for item in items:
            # Each variant is timed on its own so that the calibration
            # yardstick runs between builds; the op is their sum.
            op = Op(item.name, 0.0, [],
                    counts={"milp.rows": 0, "milp.nnz": 0, "milp.lp_bytes": 0})
            for variant in bench.MILP_VARIANTS:
                built, seconds, error = session.op(lambda: self.build(item.inst, variant))
                op.seconds += seconds
                if error:
                    op.problems.append(f"{variant}: {error}")
                    continue
                problems, error = session.check(lambda: self.check(item.inst, built))
                op.problems += [error] if error else problems
                rows = built.model.constraints
                op.counts["milp.rows"] += len(rows)
                op.counts["milp.nnz"] += sum(len(c.coeffs) for c in rows)
                op.counts["milp.lp_bytes"] += built.lp_bytes
                if built.warm is not None:
                    op.makespan = built.warm.upper_bound
                del built, rows
            ops.append(op)
        return ops, sum(op.seconds for op in ops)

    def check(self, inst, built):
        problems = []
        size = expected_size(inst.n_nodes, self.gamma, len(inst.capacity),
                             "trans" in built.variant)
        got = (len(built.model.constraints), len(built.model.variables))
        if got != size:
            problems.append(f"{built.variant}: {got} rows/cols, closed form gives {size}")
        if built.assignment is None:
            return problems
        # Every warm value is an integer, so a float tolerance far below 1 is
        # exact and 15x faster than the rational default.
        violations = milp.check_assignment(built.model, built.assignment, tol=1e-9)
        if violations:
            problems.append(f"{built.variant}: warm start violates {violations[:3]}")
        value = adversary.worst_case_makespan_dp(inst, built.warm.selection, self.gamma).value
        if value != built.warm.upper_bound:
            problems.append(f"{built.variant}: warm bound {built.warm.upper_bound}, "
                            f"DP gives {value}")
        return problems

    def self_check(self, items):
        inst = items[0].inst
        built = self.build(inst, "warm")
        target = milp.start_name(inst.sink, self.gamma)
        built.assignment = {**built.assignment, target: built.assignment[target] - 1}
        return self.check(inst, built)


class _ChildProcess:
    """Stands in for the ``subprocess`` module inside ``milp`` so that the
    solver child process gets a span of its own; it makes the same call."""

    TimeoutExpired = subprocess.TimeoutExpired
    run = staticmethod(subprocess.run)


# Optimal worst-case makespans of the first bridge instances at seed 7,
# proven by the branch-and-bound; HiGHS agrees on both variants.
SEED7_BRIDGE_OPTIMA = {
    "s7-000": 36, "s7-001": 35, "s7-002": 36, "s7-003": 41, "s7-004": 44, "s7-005": 37,
    "s7-006": 28, "s7-007": 36, "s7-008": 51, "s7-009": 31, "s7-010": 35, "s7-011": 30,
    "s7-012": 26, "s7-013": 21, "s7-014": 29, "s7-015": 26, "s7-016": 22, "s7-017": 22,
    "s7-018": 42, "s7-019": 44, "s7-020": 26, "s7-021": 20, "s7-022": 50, "s7-023": 37,
}


class BridgeJ8(Workload):
    """A pass is a series of bench runs, each ``bench.run_experiment`` over
    a directory of three ``.sm`` files with variants ``basic`` and
    ``warm+trans`` through the HiGHS bridge, then ``bench.write_outputs``;
    an op is one (instance, variant) task.  The pool's work cannot be
    interrupted, so the calibration yardstick runs between bench runs."""

    name = "bridge-j8"
    n_act = 8
    variants = ("basic", "warm+trans")
    time_limit_s = 60
    workers = 2
    chunk = 3
    instances_per_s = 0.48
    # The work runs in two solver children at a time, which the in-process
    # yardstick does not follow: over five seeds the measured pass time
    # spread 8% and the calibrated one 25%.  Set-up is still calibrated.
    calibrated = False

    def __init__(self):
        self.outcomes = []
        self.lp_texts = []
        self._task = threading.local()
        self.child_cpu_s = 0.0
        self.leaked_tmpdirs = 0

    def spec(self):
        return {**super().spec(), "variants": list(self.variants),
                "time_limit_s": self.time_limit_s, "workers": self.workers}

    def hooks(self, tracer):
        tracer.hook(bench, "run_experiment")
        tracer.hook(bench, "_solve_one")
        tracer.hook(bench, "write_outputs")
        tracer.hook(bench, "parse_psplib")
        tracer.hook(bench, "robustify", self._observe_instance)
        tracer.hook(bench, "warm_start", _observe_warm)
        tracer.hook(bench, "time_windows")
        tracer.hook(milp, "build_compact", _observe_model)
        tracer.hook(milp, "warm_start_assignment")
        tracer.hook(milp, "solve_external", self._observe_outcome)
        tracer.hook(milp, "export_lp", self._observe_lp)
        tracer.hook(milp, "export_warm_start", _observe_text)
        tracer.hook(milp, "check_assignment")
        tracer.hook(_ChildProcess, "run")
        tracer.hook(bnb, "solve_exact", _observe_result)
        tracer.hook(network, "minimal_forbidden_sets", _observe_catalog)
        tracer.hook(network, "verify_selection")
        tracer.hook(adversary, "worst_case_makespan_dp", _observe_dp)

    def _observe_instance(self, span, inst, args):
        self._task.inst = inst

    def _observe_outcome(self, span, outcome, args):
        span.attrs["status"] = outcome.status
        self.outcomes.append((self._task.inst, outcome))

    def _observe_lp(self, span, text, args):
        span.attrs["bytes"] = len(text)
        self.lp_texts.append(text)

    def run(self, items, session):
        workdir = items[0].path.parent.parent
        # solve_external makes its scratch directory under TMPDIR, here one
        # that the benchmark owns, counts and removes.
        tmp = workdir / "tmp"
        tmp.mkdir()
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = None
        self.child_cpu_s = 0.0
        ops, wall_s = [], 0.0
        milp.subprocess = _ChildProcess
        try:
            for start in range(0, len(items), self.chunk):
                group_ops, seconds = self._bench_run(items[start:start + self.chunk],
                                                     workdir / f"run-{start}", session)
                ops += group_ops
                wall_s += seconds
        finally:
            milp.subprocess = subprocess
        self.leaked_tmpdirs = sum(1 for p in tmp.iterdir() if p.name.startswith("robust_rcpsp_"))
        return ops, wall_s

    def _bench_run(self, group, rundir, session):
        corpus = rundir / "corpus"
        corpus.mkdir(parents=True)
        for item in group:
            shutil.copy(item.path, corpus)
        command = (f"{shlex.quote(sys.executable)} -m robust_rcpsp.highs_bridge "
                   "'{lp}' '{sol}' {time_s}")
        config = bench.BenchConfig(
            instances_dir=str(corpus), gammas=(self.gamma,), variants=self.variants,
            time_limit_s=self.time_limit_s, bridge_cmd=command, workers=self.workers)

        def one_run():
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            records = bench.run_experiment(config)
            bench.write_outputs(records, rundir / "out", config.variants)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            return records, (after.ru_utime + after.ru_stime
                             - before.ru_utime - before.ru_stime)

        result, seconds, error = session.op(one_run)
        if error:
            return [Op(item.name, seconds, [error]) for item in group], seconds
        records, child_cpu_s = result
        self.child_cpu_s += child_cpu_s
        ops, error = session.check(lambda: self.check(group, records))
        if error:
            ops = [Op(item.name, seconds, [error]) for item in group]
        for op in ops:
            op.seconds *= session.last_scale
        return ops, seconds

    def check(self, items, records):
        found = {(r.instance, r.variant): r for r in records}
        value_problems = {}
        for inst, outcome in self.outcomes:
            if outcome.status == "optimal":
                problem = self._check_values(inst, outcome)
                if problem:
                    value_problems.setdefault(inst.meta.name, []).append(problem)
        self.outcomes.clear()
        ops = []
        for item in items:
            recs = [found.get((item.name, v)) or bench.ResultRecord(
                item.name, self.gamma, v, "missing", None, None, None, 0.0)
                for v in self.variants]
            shared = self._check_optima(item, recs) + value_problems.pop(item.name, [])
            for rec in recs:
                problems = list(shared)
                if rec.status not in ("optimal", "feasible", "timeout"):
                    problems.append(f"status {rec.status}")
                ops.append(Op(f"{item.name}/{rec.variant}", rec.time_s, problems,
                              solved=rec.status == "optimal", gap_pct=rec.gap_percent,
                              makespan=rec.objective))
                shared = []  # count an instance-level problem once
        return ops

    def _check_optima(self, item, recs):
        objectives = {r.objective for r in recs if r.status == "optimal"}
        if not objectives:
            return []
        if len(objectives) > 1:
            return [f"optimal objectives disagree across variants: {sorted(objectives)}"]
        objective = objectives.pop()
        recorded = SEED7_BRIDGE_OPTIMA.get(item.name)
        if recorded is not None and objective != recorded:
            return [f"objective {objective}, recorded optimum {recorded}"]
        ref = bnb.solve_exact(item.inst, self.gamma, node_cap=100_000)
        if ref.status == "optimal" and objective != ref.value:
            return [f"objective {objective}, branch-and-bound proves {ref.value}"]
        if not ref.best_bound <= objective <= ref.value:
            return [f"objective {objective} outside [{ref.best_bound}, {ref.value}]"]
        return []

    def _check_values(self, inst, outcome):
        """The selection read from the arc binaries must be sufficient and
        score the reported objective under the DP."""
        base = set(inst.precedence)
        arcs = {(i, j) for i in range(inst.n_nodes) for j in range(inst.n_nodes)
                if i != j and (i, j) not in base
                and outcome.values.get(milp.arc_name(i, j), 0) > 0.5}
        sel = network.Selection(frozenset(arcs))
        verdict = network.verify_selection(inst, sel, network.minimal_forbidden_sets(inst))
        if not verdict.sufficient:
            return f"selection from the arc binaries is not sufficient: {verdict}"
        value = adversary.worst_case_makespan_dp(inst, sel, self.gamma).value
        if value != outcome.objective:
            return f"arc binaries score {value} under the DP, objective {outcome.objective}"
        return None

    def layer_metrics(self):
        t0 = time.perf_counter()
        for text in self.lp_texts:  # what the bridge child does first
            milp.read_lp(text)
        read_lp_s = time.perf_counter() - t0
        return {"bridge.child_cpu_s": self.child_cpu_s,
                "bridge.spawn_s": spawn_seconds(),
                "bridge.read_lp_s": read_lp_s,
                "bridge.leaked_tmpdirs": self.leaked_tmpdirs}

    def self_check(self, items):
        item = items[0]
        ref = bnb.solve_exact(item.inst, self.gamma)
        records = [bench.ResultRecord(item.name, self.gamma, v, "optimal",
                                      float(ref.value + (v == "basic")), None, 0.0, 0.0)
                   for v in self.variants]
        return [p for op in self.check([item], records) for p in op.problems]


def spawn_seconds(runs=3):
    """Median wall time of a fresh interpreter importing the bridge module."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import robust_rcpsp.highs_bridge"], check=True)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


WORKLOADS = {cls.name: cls for cls in (SearchJ20, CatalogJ25, ModelJ30, BridgeJ8)}
