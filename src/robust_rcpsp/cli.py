"""Command-line entry point exposing every pipeline stage.

Machine-readable output (JSON or CSV) goes to stdout, human-readable notes
to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, bench, bnb, milp, network
from .errors import RobustRcpspError
from .heuristics import warm_start
from .instance import from_json, parse_psplib, robustify, to_json

BRIDGE_ENV = "ROBUST_RCPSP_BRIDGE"


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (RobustRcpspError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="robust-rcpsp",
        description="Two-stage robust project scheduling under budgeted "
                    "duration uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an instance and print its JSON form")
    p.add_argument("file")
    p.add_argument("--robustify", action="store_true",
                   help="attach deviations (half the nominal duration, rounded up)")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("forbidden", help="print the minimal forbidden sets")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_forbidden)

    p = sub.add_parser("evaluate", help="worst-case makespan of a selection")
    p.add_argument("file")
    p.add_argument("--selection", default="[]",
                   help="JSON list of [i, j] arcs, or a path to such a file")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--table", action="store_true",
                   help="include the per-level state values in the output")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("warmstart", help="LFT warm start: selection, starts, bound")
    p.add_argument("file")
    p.add_argument("--gamma", type=int, required=True)
    p.set_defaults(handler=_cmd_warmstart)

    p = sub.add_parser("build", help="build a compact-model variant and write an LP file")
    p.add_argument("file")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--variant", choices=bench.MILP_VARIANTS, required=True)
    p.add_argument("-o", "--output", required=True, help="LP file path")
    p.add_argument("--mst", help="warm variants: also write the warm-start file here")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("file")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--variant", choices=bench.ALL_VARIANTS, default="bnb",
                   help="bnb, or a compact-model variant solved through the bridge")
    p.add_argument("--time-limit", type=_time_limit, default=None,
                   help="seconds, a finite number >= 0")
    p.add_argument("--bridge-cmd", default=None,
                   help=f"solver command template (default: ${BRIDGE_ENV})")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bench", help="run a batch experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (default: alongside the config)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("profile", help="performance profile from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--svg", default=None, help="also write an SVG chart here")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("verify", help="reproduce the built-in golden checks")
    p.add_argument("check", choices=("counterexample", "tu"))
    p.add_argument("--matrix-csv", default=None,
                   help="tu check: also dump the constraint matrix as CSV here")
    p.set_defaults(handler=_cmd_verify)
    return parser


def _time_limit(text):
    """An argparse type: seconds under the bench's ``is_seconds`` rule, as
    the bench config's ``time_limit_s``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not bench.is_seconds(value):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


def _load_instance(path, robust=None):
    """A JSON instance if the text parses as JSON, else PSPLIB; robustified if
    ``robust``, which defaults to robustifying PSPLIB and not JSON."""
    text = Path(path).read_text()
    try:
        json.loads(text)
    except json.JSONDecodeError:
        inst = parse_psplib(text, source_path=str(path))
        robust = robust is None or robust
    else:
        inst = from_json(text)
    return robustify(inst) if robust else inst


def _emit(payload):
    print(json.dumps(payload))


def _cmd_parse(args):
    inst = _load_instance(args.file, robust=args.robustify)
    print(to_json(inst))
    return 0


def _cmd_forbidden(args):
    inst = _load_instance(args.file, robust=False)
    _emit({"sets": [list(s) for s in network.minimal_forbidden_sets(inst)]})
    return 0


def _parse_selection(arg):
    text = arg if arg.lstrip().startswith("[") else Path(arg).read_text()
    pairs = json.loads(text)
    if not isinstance(pairs, list):
        raise ValueError(f"selection must be a JSON list of [i, j] pairs, not {pairs!r}")
    return network.Selection.from_pairs(pairs)


def _cmd_evaluate(args):
    inst = _load_instance(args.file)
    sel = _parse_selection(args.selection)
    res = adversary.worst_case_makespan_dp(inst, sel, args.gamma)
    payload = {"value": res.value, "delayed": sorted(res.delayed)}
    if args.table:
        payload["table"] = [list(row) for row in res.leveled_starts]
    _emit(payload)
    return 0


def _cmd_warmstart(args):
    inst = _load_instance(args.file)
    warm = warm_start(inst, args.gamma)
    _emit({
        "selection": [list(arc) for arc in warm.selection.sorted_arcs()],
        "upper_bound": warm.upper_bound,
        "starts": [list(row) for row in warm.leveled_starts],
    })
    return 0


def _cmd_build(args):
    inst = _load_instance(args.file)
    model, assignment = bench.build_variant(inst, args.gamma, args.variant)
    if args.mst and assignment is None:
        print(f"error: --mst needs a warm variant; {args.variant} has no warm start",
              file=sys.stderr)
        return 2
    Path(args.output).write_text(milp.export_lp(model))
    if args.mst:
        Path(args.mst).write_text(milp.export_warm_start(assignment, model))
    print(f"wrote {args.output}", file=sys.stderr)
    _emit({"lp": args.output, "mst": args.mst or None,
           "variables": len(model.variables), "constraints": len(model.constraints)})
    return 0


def _cmd_solve(args):
    inst = _load_instance(args.file)
    if args.variant == "bnb":
        res = bnb.solve_exact(inst, args.gamma, time_limit_s=args.time_limit)
        _emit({
            "method": "bnb",
            "status": res.status,
            "objective": res.value,
            "bound": res.best_bound,
            "gap_percent": bnb.optimality_gap(res),
            "nodes": res.nodes,
            "selection": [list(arc) for arc in res.selection.sorted_arcs()],
            "time_s": round(res.time_s, 6),
        })
        return 0
    command = args.bridge_cmd or os.environ.get(BRIDGE_ENV)
    if not command:
        print(f"error: no bridge command; pass --bridge-cmd or set ${BRIDGE_ENV}",
              file=sys.stderr)
        return 1
    outcome = bench.solve_variant(inst, args.gamma, args.variant, command=command,
                                  time_limit_s=args.time_limit)
    _emit({
        "method": "bridge",
        "status": outcome.status,
        "objective": outcome.objective,
        "bound": outcome.bound,
        "message": outcome.message,
        "time_s": round(outcome.time_s, 6),
    })
    return 0 if outcome.status in ("optimal", "feasible", "infeasible") else 1


def _cmd_bench(args):
    config_path = Path(args.config)
    config = bench.BenchConfig.from_json(config_path.read_text())
    records = bench.run_experiment(config)
    out_dir = Path(args.out) if args.out else config_path.parent
    paths = bench.write_outputs(records, out_dir, config.variants)
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}", file=sys.stderr)
    print(bench.results_to_csv(records), end="")
    return 0


def _cmd_profile(args):
    records = bench.records_from_csv(Path(args.results).read_text())
    profile = bench.performance_profile(records, {r.variant for r in records})
    if args.svg:
        Path(args.svg).write_text(bench.profile_svg(profile))
        print(f"svg: {args.svg}", file=sys.stderr)
    print(bench.profile_to_csv(profile), end="")
    return 0


def _cmd_verify(args):
    if args.check == "counterexample":
        inst = adversary.counterexample_instance()
        dp = adversary.worst_case_makespan_dp(inst, network.Selection(), gamma=1)
        cert = adversary.counterexample_certificate()
        check = adversary.check_fractional_certificate(inst, network.Selection(), 1, cert)
        print(f"integral={dp.value} fractional={check.objective}")
        ok = dp.value == 3 and check.feasible and check.objective == Fraction(7, 2)
        if not ok:
            print("error: counterexample values do not match", file=sys.stderr)
        return 0 if ok else 1
    inst = adversary.counterexample_instance()
    matrix = adversary.build_adversary_constraint_matrix(inst, network.Selection(), 1)
    rows = adversary.refutation_row_subset(matrix)
    verdict = adversary.ghouila_houri_refute(matrix.entries, rows)
    if args.matrix_csv:
        Path(args.matrix_csv).write_text(adversary.matrix_to_csv(matrix))
        print(f"matrix: {args.matrix_csv}", file=sys.stderr)
    print(f"not_totally_unimodular={str(verdict.refuted).lower()} rows={list(rows)}")
    if not verdict.refuted:
        print("error: a valid sign assignment exists", file=sys.stderr)
    return 0 if verdict.refuted else 1


if __name__ == "__main__":
    sys.exit(main())
