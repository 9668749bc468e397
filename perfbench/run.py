"""Seeded benchmark for the robust RCPSP library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-j20 --seed 7 --seconds 25 --trace 0

Workloads: search-j20, catalog-j25, model-j30, bridge-j8, or ``all`` to run
each in turn.  The run draws its corpus from ``--seed`` with the test
generator, writes it as ``.sm`` files, reads it back through
``parse_psplib`` + ``robustify``, times one pass of the workload's ops,
checks every output and prints each metric by name with its unit.  With
``--trace 0`` the last line of stdout is a JSON object with the gated
end-to-end metrics (times at the reference speed of calibration.py); with
``--trace 1`` each op runs twice, once without spans for the overhead
figure and once traced, and the JSON carries the per-layer metrics.

Results, the environment, the corpus spec and (for traced runs) the spans
go to ``.perfbench/`` at the checkout root; scratch files go to a work
directory there that is removed at exit.  The exit code is 1 when a check
failed and 2 when the library sources are not found.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5

E2E_UNITS = {"wall_s": "s", "op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DETERMINISTIC_LAYER_COUNTS = ("bnb.nodes", "network.catalog_sets", "milp.rows", "milp.nnz",
                              "milp.lp_bytes")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only build the corpus in DIR (used to time set-up)")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "robust_rcpsp" / "__init__.py", ROOT / "tests" / "gen.py")
               if not p.is_file()]
    if missing:
        print(f"error: library sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import robust_rcpsp
    if Path(robust_rcpsp.__file__).resolve().parent != ROOT / "src" / "robust_rcpsp":
        print(f"error: imported robust_rcpsp from {robust_rcpsp.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    count = workload.pass_size(args.seconds)
    if args.trace:
        count = math.ceil(count / 2)  # each traced op also runs once untraced

    if args.setup_only:
        build_items(workload, args.seed, count, Path(args.setup_only))
        return 0
    if workload.name == "bridge-j8" and importlib.util.find_spec("scipy") is None:
        print(f"{workload.name}: skipped: scipy is not importable, the HiGHS bridge cannot run")
        return 0

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run(args, workload, count, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build_items(workload, seed, count, workdir, tracer=None):
    """Generate, write and read back the corpus: the set-up users pay once."""
    from robust_rcpsp import instance
    from workloads import Item
    spec = importlib.util.spec_from_file_location("robust_rcpsp_testgen", ROOT / "tests" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    corpus = workdir / "corpus"
    corpus.mkdir(parents=True)
    rng = random.Random(seed)
    items = []
    for idx in range(count):
        name = f"s{seed}-{idx:03d}"
        path = corpus / f"{name}.sm"
        generated = gen.random_psplib_instance(rng, workload.n_act, workload.resources)
        path.write_text(gen.psplib_text(generated, name=name))
        with tracer.root("setup") if tracer else nullcontext():
            inst = instance.robustify(instance.parse_psplib(path.read_text(), source_path=str(path)))
        items.append(Item(name, path, inst))
    return items


def time_setup(args, workdir, calibration):
    """Median wall time of fresh processes that import, generate and parse
    the corpus, i.e. process start until the first op could run."""
    times = []
    for idx in range(SETUP_RUNS):
        target = workdir / f"setup-{idx}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(calibration.scale(time.perf_counter() - t0))
        shutil.rmtree(target)
    return statistics.median(times)


class Session:
    """Times ops with tracing off and returns their time at the reference
    speed; in a traced run each op is repeated with the spans on, and checks
    run under their own root span."""

    def __init__(self, calibration, tracer=None):
        self.calibration = calibration
        self.tracer = tracer
        self.raw_s = 0.0
        self.traced_s = 0.0
        self.last_scale = 1.0

    def op(self, fn):
        result, raw, error = _call(fn)
        self.raw_s += raw
        seconds = self.calibration.scale(raw) if self.calibration else raw
        self.last_scale = seconds / raw if raw else 1.0
        if self.tracer is not None and error is None:
            result = None  # a live first result would slow the twin's allocations
            with self.tracer.installed(), self.tracer.root("op"):
                result, traced, error = _call(fn)
            self.traced_s += traced
        return result, seconds, error

    def check(self, fn):
        if self.tracer is None:
            result, _, error = _call(fn)
        else:
            with self.tracer.installed(), self.tracer.root("check"):
                result, _, error = _call(fn)
        return result, (f"check raised {error}" if error else None)


def _call(fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # one failing op is recorded and the pass goes on
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


def run(args, workload, count, workdir):
    from calibration import Calibration
    from robust_rcpsp import instance
    from spans import Tracer
    # One CPU for the yardstick, the set-up children and the ops of
    # calibrated workloads: the two CPUs of a shared machine can run at
    # different speeds.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    calibration = Calibration()
    tracer = None
    if args.trace:
        tracer = Tracer()
        workload.hooks(tracer)
        tracer.hook(instance, "parse_psplib")
        tracer.hook(instance, "robustify")
    with tracer.installed() if tracer else nullcontext():
        items = build_items(workload, args.seed, count, workdir, tracer)
    setup_s = time_setup(args, workdir, calibration)
    if not workload.calibrated:
        os.sched_setaffinity(0, cpus)
        calibration = None

    corrupted_problems = workload.self_check(items)
    session = Session(calibration, tracer)
    ops, wall_s = workload.run(items, session)
    failed = [op for op in ops if op.problems]

    env = environment(workload)
    spec = {"seed": args.seed, "generator": "tests/gen.py:random_psplib_instance",
            "instances": len(items), "seconds": args.seconds, **workload.spec()}
    det = deterministic_counts(ops)
    report = {"workload": workload.name, "trace": args.trace, "env": env, "spec": spec,
              "deterministic": det,
              "failures": [{"op": op.name, "problems": op.problems} for op in failed]}

    print(f"# {workload.name}: {' '.join(workload.__doc__.split())}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# spec " + " ".join(f"{k}={v}" for k, v in spec.items()))
    if args.trace:
        metrics, shares = layer_metrics(tracer, workload, session)
        det.update({k: metrics[k][0] for k in DETERMINISTIC_LAYER_COUNTS})
        report["layer_shares"] = shares
        print("# layer shares of traced busy time (self times): "
              + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.to_json() for s in tracer.spans]))
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(ops, wall_s, setup_s, calibration, session.raw_s)
        print_extra(workload, ops, failed)
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}")
    report["metrics"] = {k: {"value": v if u in ("count", "bytes") else float(v), "unit": u}
                         for k, (v, u) in metrics.items()}

    self_check_ok = bool(corrupted_problems)
    print(f"# self-check: a corrupted result was "
          f"{'rejected' if self_check_ok else 'ACCEPTED, the checks are broken'}")
    for op in failed:
        print(f"# FAILED {op.name}: {'; '.join(op.problems)}")
    record_results(args, report)

    correct = self_check_ok and not failed
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def end_to_end(ops, wall_s, setup_s, calibration, raw_wall_s):
    """The gated metrics; on calibrated workloads times are at the reference
    speed (calibration.py)."""
    if calibration:
        print(f"{'calibration.speed':<30} {calibration.factor():>16.6f} ratio")
        print(f"{'wall_s.measured':<30} {raw_wall_s:>16.6f} s")
    values = {
        "wall_s": wall_s,
        "op_s.p50": statistics.median(op.seconds for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def print_extra(workload, ops, failed):
    """The end-to-end figures that are not gated: they are zero or missing
    on some workloads, or fixed by the seed (see deterministic_counts)."""
    gaps = [op.gap_pct for op in ops if op.gap_pct is not None]
    makespans = [op.makespan for op in ops if op.makespan is not None]
    times = sorted(op.seconds for op in ops)
    print(f"{'ops':<30} {len(ops):>16d} count")
    if len(times) >= 20:  # the highest percentile with ten samples above it
        pct = math.floor(100 * (1 - 10 / len(times)))
        print(f"{f'op_s.p{pct}':<30} {times[math.ceil(pct / 100 * len(times)) - 1]:>16.6f} s")
    print(f"{'solved':<30} {sum(op.solved for op in ops):>16d} count")
    print(f"{'gap_pct.mean':<30} " + (f"{statistics.fmean(gaps):>16.6f}" if gaps else f"{'n/a':>16}")
          + " %")
    print(f"{'makespan.mean':<30} {statistics.fmean(makespans):>16.6f} periods")
    print(f"{'failed_frac':<30} {len(failed) / len(ops):>16.6f} ratio")
    if hasattr(workload, "leaked_tmpdirs"):
        print(f"{'bridge.leaked_tmpdirs':<30} {workload.leaked_tmpdirs:>16d} count")


def deterministic_counts(ops):
    """Counts that must repeat exactly for the same code, seed and size."""
    out = defaultdict(int)
    for op in ops:
        for key, value in op.counts.items():
            out[key] += value
    gaps = [op.gap_pct for op in ops if op.gap_pct is not None]
    makespans = [op.makespan for op in ops if op.makespan is not None]
    out["solved"] = sum(op.solved for op in ops)
    out["gap_pct.mean"] = round(statistics.fmean(gaps), 9) if gaps else None
    out["makespan.mean"] = round(statistics.fmean(makespans), 9) if makespans else None
    return dict(out)


LAYER_OF_MODULE = {"subprocess": "highs_bridge"}


def layer_of(span_name):
    module = span_name.split(".", 1)[0]
    return LAYER_OF_MODULE.get(module, module)


def layer_metrics(tracer, workload, session):
    """Per-layer self times and counts over the spans under ``op`` roots."""
    from spans import self_times, under_roots
    spans = tracer.spans
    selfs = self_times(spans)
    ops = [s for s in spans if s.name == "op" and s.parent is None]
    inside = under_roots(spans, {"op"})
    named = defaultdict(list)
    for s in inside:
        named[s.name].append(s)
    children = defaultdict(list)
    for s in inside:
        children[s.parent].append(s)

    def dur(name):
        return sum(s.duration for s in named[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key) or 0 for s in named[name])

    def attr_mean(name, key):
        vals = [s.attrs[key] for s in named[name] if s.attrs.get(key) is not None]
        return statistics.fmean(vals) if vals else 0.0

    solves = named["bnb.solve_exact"]
    search_s = sum(s.duration - sum(c.duration for c in children[s.sid]
                                    if c.name in ("network.minimal_forbidden_sets",
                                                  "heuristics.warm_start"))
                   for s in solves)
    root_bounds = []
    for s in solves:
        dps = [c for c in children[s.sid] if c.name == "adversary.worst_case_makespan_dp"]
        if dps:
            root_bounds.append(min(dps, key=lambda c: c.start).attrs["value"])
    nodes = attr_sum("bnb.solve_exact", "nodes")
    dp_calls = len(named["adversary.worst_case_makespan_dp"])
    statuses = defaultdict(int)
    for s in named["milp.solve_external"]:
        statuses[s.attrs["status"]] += 1
    run_s = dur("bench.run_experiment")
    task_s = dur("bench._solve_one")
    workers = getattr(workload, "workers", 1)  # the bench pool's, on bridge-j8
    parse_s = sum(s.duration for s in spans
                  if s.name in ("instance.parse_psplib", "instance.robustify"))

    m = {
        "bnb.self_s": (sum(selfs[s.sid] for s in solves), "s"),
        "bnb.nodes": (nodes, "count"),
        "bnb.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "bnb.best_bound.mean": (attr_mean("bnb.solve_exact", "best_bound"), "periods"),
        "bnb.root_bound.mean": (statistics.fmean(root_bounds) if root_bounds else 0.0, "periods"),
        "adversary.dp_s": (dur("adversary.worst_case_makespan_dp"), "s"),
        "adversary.dp_calls": (dp_calls, "count"),
        "adversary.dp_us_per_call": (1e6 * dur("adversary.worst_case_makespan_dp") / dp_calls
                                     if dp_calls else 0.0, "us"),
        "network.catalog_s": (dur("network.minimal_forbidden_sets"), "s"),
        "network.catalog_sets": (attr_sum("network.minimal_forbidden_sets", "sets"), "count"),
        "heuristics.warm_start_s": (dur("heuristics.warm_start"), "s"),
        "heuristics.warm_ub.mean": (attr_mean("heuristics.warm_start", "upper_bound"), "periods"),
        "heuristics.time_windows_s": (dur("heuristics.time_windows"), "s"),
        "instance.parse_s": (parse_s, "s"),
        "milp.build_s": (dur("milp.build_compact"), "s"),
        "milp.export_lp_s": (dur("milp.export_lp"), "s"),
        "milp.lp_bytes": (attr_sum("milp.export_lp", "bytes"), "bytes"),
        "milp.warm_assign_s": (dur("milp.warm_start_assignment"), "s"),
        "milp.export_mst_s": (dur("milp.export_warm_start"), "s"),
        "milp.rows": (attr_sum("milp.build_compact", "rows"), "count"),
        "milp.cols": (attr_sum("milp.build_compact", "cols"), "count"),
        "milp.nnz": (attr_sum("milp.build_compact", "nnz"), "count"),
        "bridge.solve_s": (dur("milp.solve_external"), "s"),
        "bridge.child_cpu_s": (0.0, "s"),
        "bridge.spawn_s": (0.0, "s"),
        "bridge.read_lp_s": (0.0, "s"),
        **{f"bridge.status.{word}": (statuses[word], "count")
           for word in ("optimal", "feasible", "timeout", "infeasible", "error")},
        "bridge.leaked_tmpdirs": (0, "count"),
        "bench.run_s": (run_s, "s"),
        "bench.task_time_sum_s": (task_s, "s"),
        "bench.pool_efficiency": (task_s / (workers * run_s) if run_s else 0.0, "ratio"),
        "bench.outputs_s": (dur("bench.write_outputs"), "s"),
        "trace.overhead_s": (session.traced_s - session.raw_s, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for name, value in workload.layer_metrics().items():
        m[name] = (value, m[name][1])
    # Shares of busy time: the self times of all spans under op roots, so
    # work that overlaps in the bench pool's threads is counted per thread.
    layer_self = defaultdict(float)
    for s in inside:
        layer_self[layer_of(s.name)] += selfs[s.sid]
    layer_self["(benchmark)"] = sum(selfs[s.sid] for s in ops)
    busy = sum(layer_self.values())
    shares = {k: v / busy for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])}
    return m, shares


def environment(workload):
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "commit": git_commit()}
    try:
        env["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        env["scipy"] = None
    if workload.name == "bridge-j8":
        from scipy.optimize._highspy import _core
        env["highs"] = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                        f"{_core.HIGHS_VERSION_PATCH}")
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def record_results(args, report):
    """Write this run's results and flag deterministic counts that differ
    from the previous run of the same workload, seed, size and mode."""
    out = ROOT / ".perfbench"
    path = out / f"results-{args.workload}-seed{args.seed}-s{args.seconds:g}-trace{args.trace}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        changed = {k: (previous["deterministic"].get(k), v)
                   for k, v in report["deterministic"].items()
                   if previous["deterministic"].get(k) != v}
        if changed:
            same = previous["env"]["commit"] == report["env"]["commit"]
            print(f"# DETERMINISM: counts differ from the previous run "
                  f"({'same' if same else 'other'} commit): {changed}")
        else:
            print("# determinism: counts repeat the previous run exactly")
    path.write_text(json.dumps(report, indent=1, default=str))


if __name__ == "__main__":
    sys.exit(main())
