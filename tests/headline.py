"""The headline check: ``solve_exact`` on fixed generated sets.

Usage::

    PYTHONPATH=src python tests/headline.py [--node-cap N | --time-limit]
        [--gamma G] [--set NAME ...]

The sets are drawn from ``gen.random_psplib_instance`` with K = 4
resources, each instance robustified, and solved at gamma ``G`` (default
3):

- ``j30``: six instances of 30 activities, drawn in sequence from
  ``random.Random(7)``;
- ``n14``, ``n18``, ``n22``: five instances of n activities each, drawn in
  sequence from ``random.Random(100 + n)``.

By default each instance is solved with ``node_cap=N`` (default 200000)
and no time limit, so the output depends on the code alone and not on
the machine's speed.  ``--time-limit`` solves each with no node cap
under its set's time limit instead, 10 s for ``j30`` and 5 s for the
others; that output moves with the machine, and giving ``--node-cap``
with it is a usage error (exit 2).  Each instance is solved in a child
process of its own, at most two at a time, forked from a server process
that has imported the solver and the generator once (the ``forkserver``
start method, on Linux and macOS).  ``--set`` picks sets (all four by
default, in the order above).

stdout gets one JSON line per instance, in set and index order::

    {"set", "index", "gamma", "value", "bound", "status", "nodes",
     "time_s", "call_s", "peak_rss_mb"}

where ``index`` counts from 1, ``bound`` is the solve's best bound,
``time_s`` its own ``time_s``, ``call_s`` the wall time the child
measures around its ``solve_exact`` call, at least ``time_s``, and
``peak_rss_mb`` the child's ``ru_maxrss``, and after a set's instances
one summary line::

    {"set", "instances", "solved", "mean_gap"}

with ``solved`` the instances ending ``optimal`` and ``mean_gap`` the mean
of ``(value - bound) / value``.  At a node cap every field but
``time_s``, ``call_s`` and ``peak_rss_mb`` repeats exactly from run to
run.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import resource
import time
from itertools import groupby
from operator import itemgetter

from gen import random_psplib_instance
from robust_rcpsp.bnb import solve_exact
from robust_rcpsp.instance import robustify

N_RESOURCES = 4
# name: (activities, generator seed, instances, time limit in seconds)
SETS = {
    "j30": (30, 7, 6, 10),
    "n14": (14, 114, 5, 5),
    "n18": (18, 118, 5, 5),
    "n22": (22, 122, 5, 5),
}


def solve_one(task):
    """Draw instance ``index`` of its set and solve it at ``gamma``, under
    ``node_cap``, or under the set's time limit if ``node_cap`` is None;
    one record."""
    name, index, gamma, node_cap = task
    n_act, seed, _, time_limit_s = SETS[name]
    rng = random.Random(seed)
    for _ in range(index):
        inst = random_psplib_instance(rng, n_act, N_RESOURCES)
    inst = robustify(inst)
    t0 = time.perf_counter()
    res = solve_exact(inst, gamma, node_cap=node_cap,
                      time_limit_s=time_limit_s if node_cap is None else None)
    call_s = time.perf_counter() - t0
    return {"set": name, "index": index, "gamma": gamma, "value": res.value,
            "bound": res.best_bound, "status": res.status, "nodes": res.nodes,
            "time_s": round(res.time_s, 3), "call_s": round(call_s, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def run(names, gamma, node_cap):
    """Solve every instance of the sets ``names`` and print the lines."""
    tasks = [(name, index, gamma, node_cap) for name in names
             for index in range(1, SETS[name][2] + 1)]
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["gen", "robust_rcpsp.bnb", "robust_rcpsp.instance"])
    with context.Pool(2, maxtasksperchild=1) as pool:
        for name, group in groupby(pool.imap(solve_one, tasks), key=itemgetter("set")):
            done = []
            for record in group:
                done.append(record)
                print(json.dumps(record), flush=True)
            gaps = [(r["value"] - r["bound"]) / r["value"] for r in done]
            print(json.dumps({"set": name, "instances": len(done),
                              "solved": sum(r["status"] == "optimal" for r in done),
                              "mean_gap": round(sum(gaps) / len(gaps), 4)}), flush=True)
        pool.close()
        pool.join()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--node-cap", type=int, help="nodes per solve (default 200000)")
    mode.add_argument("--time-limit", action="store_true",
                      help="no node cap; each set's time limit per solve")
    parser.add_argument("--gamma", type=int, default=3,
                        help="the uncertainty budget (default 3)")
    parser.add_argument("--set", dest="sets", action="append", choices=list(SETS),
                        help="a set to solve; repeat for more (default: all)")
    args = parser.parse_args(argv)
    node_cap = None if args.time_limit else 200000 if args.node_cap is None else args.node_cap
    if node_cap is not None and node_cap < 0:
        parser.error("--node-cap must be at least 0")
    if args.gamma < 0:
        parser.error("--gamma must be at least 0")
    run(list(dict.fromkeys(args.sets or SETS)), args.gamma, node_cap)


if __name__ == "__main__":
    main()
