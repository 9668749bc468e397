import json
import os
import pathlib
import subprocess
import sys
import time

HEADLINE = pathlib.Path(__file__).with_name("headline.py")
SRC = HEADLINE.parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
N14_OPTIMA = (42, 33, 45, 28, 44)


def headline(*args):
    """Run ``tests/headline.py --set n14 *args`` as a process; its instance
    records, its summary line and its wall time."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(HEADLINE), "--set", "n14", *args], env=ENV,
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed = time.perf_counter() - t0
    *records, summary = map(json.loads, done.stdout.splitlines())
    return records, summary, elapsed


def closed(records):
    return [(r["set"], r["index"], r["gamma"], r["value"], r["bound"], r["status"])
            for r in records]


def test_the_n14_slice_of_the_headline_closes_at_the_known_optima():
    """``tests/headline.py --set n14``, run as a process at its default node
    cap, proves the five known n = 14 optima within 2 s and ends with
    their set's summary line."""
    records, summary, elapsed = headline()
    assert closed(records) == [("n14", index, 3, value, value, "optimal")
                               for index, value in enumerate(N14_OPTIMA, start=1)]
    assert all(0 < r["nodes"] < 200000 for r in records)
    assert summary == {"set": "n14", "instances": 5, "solved": 5, "mean_gap": 0.0}
    assert elapsed < 2, elapsed


def test_the_time_limited_n14_slice_closes_and_times_each_call():
    """Under ``--time-limit`` the slice closes at the same optima, and each
    ``call_s``, measured around the call, is at least the solve's own
    ``time_s``."""
    records, summary, _ = headline("--time-limit")
    assert closed(records) == [("n14", index, 3, value, value, "optimal")
                               for index, value in enumerate(N14_OPTIMA, start=1)]
    assert all(r["call_s"] >= r["time_s"] for r in records), records
    assert summary == {"set": "n14", "instances": 5, "solved": 5, "mean_gap": 0.0}


def test_the_n14_slice_at_gamma_0_closes_at_the_nominal_optima():
    """``--gamma 0`` solves the nominal instances: 29, 22, 34, 19 and 32,
    the optima the HiGHS bridge also proves on the compact model with
    transitivity rows at gamma 0."""
    records, summary, _ = headline("--gamma", "0")
    assert closed(records) == [("n14", index, 0, value, value, "optimal")
                               for index, value in enumerate((29, 22, 34, 19, 32), start=1)]
    assert all(0 < r["nodes"] < 200000 for r in records)
    assert summary == {"set": "n14", "instances": 5, "solved": 5, "mean_gap": 0.0}


def test_a_node_cap_with_a_time_limit_is_a_usage_error():
    done = subprocess.run([sys.executable, str(HEADLINE), "--time-limit", "--node-cap", "5"],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--time-limit" in done.stderr
