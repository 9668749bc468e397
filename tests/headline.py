"""The headline check: ``solve_exact`` on fixed generated sets at a node cap.

Usage::

    PYTHONPATH=src python tests/headline.py [--node-cap N] [--set NAME ...]

The sets are drawn from ``gen.random_psplib_instance`` with K = 4
resources, each instance robustified, and solved at gamma 3:

- ``j30``: six instances of 30 activities, drawn in sequence from
  ``random.Random(7)``;
- ``n14``, ``n18``, ``n22``: five instances of n activities each, drawn in
  sequence from ``random.Random(100 + n)``.

Each instance is solved with ``node_cap=N`` (default 200000) and no time
limit, in a child process of its own, at most two at a time, so the
output depends on the code alone and not on the machine's speed.
``--set`` picks sets (all four by default, in the order above).

stdout gets one JSON line per instance, in set and index order::

    {"set", "index", "gamma", "value", "bound", "status", "nodes",
     "time_s", "peak_rss_mb"}

where ``index`` counts from 1, ``bound`` is the solve's best bound,
``time_s`` its own ``time_s`` and ``peak_rss_mb`` the child's
``ru_maxrss``, and after a set's instances one summary line::

    {"set", "instances", "solved", "mean_gap"}

with ``solved`` the instances ending ``optimal`` and ``mean_gap`` the mean
of ``(value - bound) / value``.  Every field but ``time_s`` and
``peak_rss_mb`` repeats exactly from run to run.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import resource
from itertools import groupby
from operator import itemgetter

from gen import random_psplib_instance
from robust_rcpsp.bnb import solve_exact
from robust_rcpsp.instance import robustify

GAMMA = 3
N_RESOURCES = 4
# name: (activities, generator seed, instances)
SETS = {
    "j30": (30, 7, 6),
    "n14": (14, 114, 5),
    "n18": (18, 118, 5),
    "n22": (22, 122, 5),
}


def solve_one(task):
    """Draw instance ``index`` of its set and solve it; one record."""
    name, index, node_cap = task
    n_act, seed, _ = SETS[name]
    rng = random.Random(seed)
    for _ in range(index):
        inst = random_psplib_instance(rng, n_act, N_RESOURCES)
    res = solve_exact(robustify(inst), GAMMA, node_cap=node_cap)
    return {"set": name, "index": index, "gamma": GAMMA, "value": res.value,
            "bound": res.best_bound, "status": res.status, "nodes": res.nodes,
            "time_s": round(res.time_s, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def run(names, node_cap):
    """Solve every instance of the sets ``names`` and print the lines."""
    tasks = [(name, index, node_cap) for name in names
             for index in range(1, SETS[name][2] + 1)]
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
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
    parser.add_argument("--node-cap", type=int, default=200000,
                        help="nodes per solve (default 200000)")
    parser.add_argument("--set", dest="sets", action="append", choices=list(SETS),
                        help="a set to solve; repeat for more (default: all)")
    args = parser.parse_args(argv)
    if args.node_cap < 0:
        parser.error("--node-cap must be at least 0")
    run(list(dict.fromkeys(args.sets or SETS)), args.node_cap)


if __name__ == "__main__":
    main()
