import json
import os
import pathlib
import subprocess
import sys
import time

HEADLINE = pathlib.Path(__file__).with_name("headline.py")
SRC = HEADLINE.parent.parent / "src"


def test_the_n14_slice_of_the_headline_closes_at_the_known_optima():
    """``tests/headline.py --set n14``, run as a process at its default node
    cap, proves the five known n = 14 optima within 2 s and ends with
    their set's summary line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(HEADLINE), "--set", "n14"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed = time.perf_counter() - t0
    *records, summary = map(json.loads, done.stdout.splitlines())
    assert [(r["set"], r["index"], r["gamma"], r["value"], r["bound"], r["status"])
            for r in records] == [("n14", index, 3, value, value, "optimal") for index, value
                                  in enumerate((42, 33, 45, 28, 44), start=1)]
    assert all(0 < r["nodes"] < 200000 for r in records)
    assert summary == {"set": "n14", "instances": 5, "solved": 5, "mean_gap": 0.0}
    assert elapsed < 2, elapsed
