import json
import random
import sys
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import pytest

from gen import psplib_text, random_dag_instance, recording_solver, slow_build
from robust_rcpsp import bench, bnb, cli, milp
from robust_rcpsp.bench import (
    BenchConfig,
    ResultRecord,
    SummaryRow,
    instance_set_label,
    performance_profile,
    profile_svg,
    profile_to_csv,
    records_from_csv,
    results_to_csv,
    run_experiment,
    summarize,
    summary_to_csv,
    write_outputs,
)
from robust_rcpsp.errors import CapExceeded

DATA = Path(__file__).parent / "data"
BRIDGE = f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{time_s}}"


def rec(instance, variant, status="optimal", time_s=1.0, objective=10.0,
        bound=None, gap=None, gamma=1):
    if status == "optimal":
        gap = 0.0
        bound = objective
    return ResultRecord(instance=instance, gamma=gamma, variant=variant, status=status,
                        objective=objective, bound=bound, gap_percent=gap, time_s=time_s)


# ---------------------------------------------------------------------------
# performance profiles


def test_profile_hand_example():
    times = {("i1", "A"): 1.0, ("i1", "B"): 2.0,
             ("i2", "A"): 2.0, ("i2", "B"): 2.0,
             ("i3", "A"): 4.0, ("i3", "B"): 1.0}
    records = [rec(i, v, time_s=t) for (i, v), t in times.items()]
    profile = performance_profile(records, ["A", "B"])
    assert profile.taus == (1.0, 2.0, 4.0)
    ratios = dict(zip(profile.taus, profile.rho["A"]))
    assert ratios[1.0] == pytest.approx(2 / 3)
    assert ratios[2.0] == pytest.approx(2 / 3)
    assert ratios[4.0] == pytest.approx(1.0)
    ratios_b = dict(zip(profile.taus, profile.rho["B"]))
    assert ratios_b[1.0] == pytest.approx(2 / 3)
    assert ratios_b[2.0] == pytest.approx(1.0)
    assert profile.failure_ratio == pytest.approx(8.0)


def test_profile_single_variant():
    records = [rec("i1", "A", time_s=3.0), rec("i2", "A", time_s=9.0),
               rec("i3", "A", status="timeout", objective=None, time_s=60.0)]
    profile = performance_profile(records, ["A"])
    assert profile.rho["A"][0] == pytest.approx(2 / 3)  # every solved ratio is 1


def test_profile_all_timeouts_variant_flatlines():
    records = [rec("i1", "A", time_s=1.0), rec("i2", "A", time_s=2.0),
               rec("i1", "B", status="timeout", objective=None, time_s=60.0),
               rec("i2", "B", status="timeout", objective=None, time_s=60.0)]
    profile = performance_profile(records, ["A", "B"])
    assert all(v == 0.0 for v in profile.rho["B"])
    assert profile.rho["A"][-1] == pytest.approx(1.0)


def test_profile_monotone_nondecreasing():
    rng = random.Random(10)
    records = []
    for i in range(12):
        for v in ("A", "B", "C"):
            status = "optimal" if rng.random() < 0.8 else "timeout"
            records.append(rec(f"i{i}", v, status=status,
                               objective=10.0 if status == "optimal" else None,
                               time_s=rng.uniform(0.5, 30.0)))
    profile = performance_profile(records, ["A", "B", "C"])
    for series in profile.rho.values():
        assert all(a <= b for a, b in zip(series, series[1:]))
        assert all(0.0 <= x <= 1.0 for x in series)


def test_profile_of_no_records():
    profile = performance_profile([], ["A", "B"])
    assert (profile.taus, profile.rho, profile.failure_ratio) == ((), {"A": (), "B": ()}, 2.0)


def test_profile_with_every_pair_unsolved():
    records = [rec(i, v, status="timeout", objective=None, time_s=60.0)
               for i in ("i1", "i2") for v in ("A", "B")]
    profile = performance_profile(records, ["A", "B"])
    assert (profile.taus, profile.rho, profile.failure_ratio) == ((), {"A": (), "B": ()}, 2.0)


def test_profile_of_zero_times():
    records = [rec("i1", "A", time_s=0.0), rec("i1", "B", time_s=0.0),
               rec("i2", "A", time_s=0.0), rec("i2", "B", time_s=1.0)]
    profile = performance_profile(records, ["A", "B"])
    # a time of 0 counts as 1e-9 s, and no ratio is below 1
    assert profile.taus == pytest.approx((1.0, 1e9))
    assert profile.rho == {"A": (1.0, 1.0), "B": (0.5, 1.0)}
    assert profile.failure_ratio == pytest.approx(2e9)


def test_profile_rejects_duplicates():
    records = [rec("i1", "A"), rec("i1", "A")]
    with pytest.raises(ValueError, match="duplicate"):
        performance_profile(records, ["A"])


# ---------------------------------------------------------------------------
# summaries, CSV, SVG


def test_set_labels():
    assert instance_set_label("j301_1") == "J301"
    assert instance_set_label("j3048_10") == "J3048"
    assert instance_set_label("custom") == "custom"


def test_summarize_columns():
    records = [
        rec("j301_1", "bnb", time_s=2.0),
        rec("j301_2", "bnb", time_s=4.0),
        rec("j301_3", "bnb", status="feasible", objective=12.0, bound=9.0,
            gap=25.0, time_s=60.0),
    ]
    rows = summarize(records)
    assert rows == [SummaryRow(set="J301", variant="bnb", time=3.0, gap=25.0,
                               solved=2)]


def test_summarize_all_solved_has_empty_gap():
    rows = summarize([rec("j301_1", "bnb"), rec("j301_2", "bnb")])
    assert rows[0].gap is None
    assert rows[0].solved == 2


def test_summary_csv_text():
    records = [
        rec("j3012_1", "bnb", time_s=2.0),
        rec("j3012_2", "bnb", status="timeout", objective=None, time_s=60.0),
        rec("j302_1", "bnb", status="feasible", objective=12.0, bound=9.0, gap=25.0,
            time_s=60.0),
        rec("j302_2", "bnb", status="feasible", objective=16.0, bound=14.0, gap=12.5,
            time_s=60.0),
        rec("j302_1", "basic", time_s=1.5),
        rec("toy5", "bnb", time_s=1 / 3),
    ]
    assert summary_to_csv(summarize(records)) == (
        "set,variant,time,gap,solved\r\n"
        "J302,basic,1.5,,1\r\n"
        "J302,bnb,,18.75,0\r\n"
        "J3012,bnb,2,,1\r\n"
        "toy5,bnb,0.3333,,1\r\n")


def test_results_csv_round_trip():
    records = [rec("j301_1", "bnb", time_s=1.25),
               rec("j301_1", "basic", status="timeout", objective=None, time_s=9.0)]
    again = records_from_csv(results_to_csv(records))
    assert [(r.instance, r.variant, r.status, r.objective) for r in again] == \
        [(r.instance, r.variant, r.status, r.objective) for r in records]


def test_results_csv_round_trip_keeps_every_field():
    records = [ResultRecord("j301_1", 3, "bnb", "optimal", 12.0, 12.0, 0.0, 1.25),
               ResultRecord("j301_1", 3, "warm", "feasible", 14.0, 11.5, 17.8571, 60.0),
               ResultRecord("j301_2", 0, "basic", "timeout", None, 9.0, None, 0.0),
               ResultRecord("j301_2", 0, "trans", "skipped", None, None, None, 0.000125)]
    assert records_from_csv(results_to_csv(records)) == records


HEADER = "instance,gamma,variant,status,objective,bound,gap_percent,time_s\n"


@pytest.mark.parametrize("text, message", [
    ("instance,gamma,status,objective,bound,gap_percent,time_s\nj1,1,optimal,3,3,0,0.5\n",
     "line 1: no column 'variant'"),
    ("", "line 1: no column 'instance'"),
    (HEADER + "j1,1,bnb\n", "line 2: no value in column 'status'"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,0.5\nj2,x,bnb,optimal,3,3,0,0.5\n", "line 3: invalid literal for int"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,\n", "line 2: could not convert"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,1\nj2,1,bnb,optimal,3,3,0,nan\n",
     "line 3: time_s must be a finite number >= 0, not 'nan'"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,inf\n", "line 2: time_s must be a finite number >= 0, not 'inf'"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,-4\n", "line 2: time_s must be a finite number >= 0, not '-4'"),
    (HEADER.replace("\n", ",solver\n") + "j1,1,bnb,optimal,3,3,0,1,x\n",
     "line 1: unknown column 'solver'"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,1.5,EXTRA,MORE\n", "line 2: more values than the 8 columns"),
    (HEADER.replace("\n", ",instance\n") + "j1,1,bnb,optimal,3,3,0,1.5,j2\n",
     "line 1: repeated column 'instance'"),
    (HEADER + "a,1,bnb,optimal,nan,,,1.0\n",
     "line 2: expected a finite number or nothing, not 'nan'"),
    (HEADER + "j1,1,bnb,optimal,3,3,0,1\nj2,1,bnb,feasible,3,-inf,,1\n",
     "line 3: expected a finite number or nothing, not '-inf'"),
    (HEADER + "j1,1,bnb,feasible,3,2,inf,1\n",
     "line 2: expected a finite number or nothing, not 'inf'"),
], ids=["missing_column", "empty", "short_row", "bad_int", "empty_time", "nan_time", "inf_time",
        "negative_time", "unknown_column", "long_row", "repeated_column", "nan_objective",
        "inf_bound", "inf_gap"])
def test_records_from_csv_names_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        records_from_csv(text)


def test_profile_csv_and_svg_shapes():
    """The profile leaves ``skipped`` records out and orders its own
    columns; its CSV and SVG follow that order."""
    records = [rec("i1", "A", time_s=1.0), rec("i1", "B", time_s=3.0),
               rec("i1", "B", status="skipped", objective=None, time_s=0.0)]
    profile = performance_profile(records, ["B", "A"])
    assert list(profile.rho) == ["A", "B"]
    assert profile_to_csv(profile).splitlines() == [
        "tau,rho_A,rho_B", "1.000000,1.000000,0.000000", "3.000000,1.000000,1.000000"]
    svg = profile_svg(profile)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("polyline") == 2
    assert svg.index(">A</text>") < svg.index(">B</text>")



def test_profile_svg_escapes_variant_names():
    """A variant name is text, not markup: the SVG of a profile over
    ``a&b<c`` and ``bnb`` parses, and its labels read back the names."""
    records = [rec("i1", "a&b<c", time_s=1.0), rec("i1", "bnb", time_s=2.0)]
    profile = performance_profile(records, ["a&b<c", "bnb"])
    root = ElementTree.fromstring(profile_svg(profile))
    labels = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(profile.rho) == ["a&b<c", "bnb"]
    assert labels[-2:] == list(profile.rho)


# ---------------------------------------------------------------------------
# experiment runner


@pytest.fixture()
def instance_dir(tmp_path):
    rng = random.Random(6)
    for idx in range(2):
        inst = random_dag_instance(rng, 4, n_res=1, robustified=False)
        (tmp_path / f"j301_{idx + 1}.sm").write_text(psplib_text(inst))
    return tmp_path


def test_run_experiment_bnb_only(instance_dir):
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(0, 1),
                         variants=("bnb",), time_limit_s=30)
    records = run_experiment(config)
    assert len(records) == 2 * 2  # instances x gammas, one variant
    assert all(r.status == "optimal" for r in records)
    assert all(r.gap_percent == 0.0 for r in records)
    # deterministic objective on rerun
    again = run_experiment(config)
    assert [(r.instance, r.gamma, r.objective) for r in again] == \
        [(r.instance, r.gamma, r.objective) for r in records]


def test_run_experiment_skips_milp_without_bridge(instance_dir):
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,),
                         variants=("basic", "bnb"))
    records = run_experiment(config)
    statuses = {r.variant: r.status for r in records}
    assert statuses["basic"] == "skipped"
    assert statuses["bnb"] == "optimal"


def test_run_experiment_with_bridge(instance_dir):
    pytest.importorskip("scipy")
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,),
                         variants=("warm+trans", "bnb"), time_limit_s=60,
                         bridge_cmd=BRIDGE, workers=2)
    records = run_experiment(config)
    by_variant = {}
    for r in records:
        by_variant.setdefault(r.variant, []).append(r)
    for variant_records in by_variant.values():
        assert all(r.status == "optimal" for r in variant_records)
    pairs = {}
    for r in records:
        pairs.setdefault((r.instance, r.gamma), {})[r.variant] = r.objective
    for values in pairs.values():
        assert values["bnb"] == pytest.approx(values["warm+trans"], abs=1e-6)


@pytest.mark.parametrize("objective, bound, gap", [
    (10.0, 8.0, 20.0),
    (0.0, 0.0, None),  # no relative gap to a zero objective
    (10.0, None, None),  # no bound reported
])
def test_run_experiment_gap_of_a_feasible_milp(instance_dir, monkeypatch, objective, bound,
                                               gap):
    def stopped(model, warm=None, **kwargs):
        return milp.SolveOutcome(status="feasible", objective=objective, bound=bound)

    monkeypatch.setattr(milp, "solve_external", stopped)
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,), variants=("basic",),
                         bridge_cmd="never-run {lp}")
    records = run_experiment(config)
    assert [(r.status, r.objective, r.bound, r.gap_percent) for r in records] == \
        [("feasible", objective, bound, gap)] * 2


@pytest.mark.parametrize("limit, status", [(5, "infeasible"), (0.2, "timeout")])
def test_a_model_task_spends_its_time_limit_on_the_build_first(limit, status, instance_dir,
                                                               tmp_path, monkeypatch):
    """The solver used to get the whole limit after the build, even when
    the build had spent it, and the record's time left the build out."""
    slow_build(monkeypatch, 0.3)
    command, given = recording_solver(tmp_path)
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,), variants=("basic",),
                         bridge_cmd=command, time_limit_s=limit)
    records = run_experiment(config)
    assert [r.status for r in records] == [status] * 2
    assert all(r.time_s >= 0.3 for r in records)
    if status == "timeout":
        assert not given.exists()
    else:
        assert 0 < float(given.read_text()) <= 5 - 0.3


def test_run_experiment_records_error_for_unreadable(tmp_path):
    (tmp_path / "broken.sm").write_text("not a psplib file")
    config = BenchConfig(instances_dir=str(tmp_path), gammas=(1,), variants=("bnb",))
    records = run_experiment(config)
    assert [r.status for r in records] == ["error"]


def test_files_that_cannot_be_read_are_error_records_beside_a_good_one(tmp_path, capsys):
    """A directory named like an instance and a file that is not UTF-8
    are ``error`` records in every variant, with nothing on stderr; the
    good instance beside them gets the records it gets alone."""
    toy = (DATA / "toy5.sm").read_text()
    alone, corpus = tmp_path / "alone", tmp_path / "corpus"
    for folder in (alone, corpus):
        folder.mkdir()
        (folder / "toy5.sm").write_text(toy)
    (corpus / "bad.sm").mkdir()
    (corpus / "binary.sm").write_bytes(b"\xff\xfe\x00 not text\n")

    def run(folder):
        config = BenchConfig(instances_dir=str(folder), gammas=(0, 1),
                             variants=bench.ALL_VARIANTS, workers=2)
        return [(r.instance, r.gamma, r.variant, r.status, r.objective, r.bound, r.gap_percent)
                for r in run_experiment(config)]

    expected = run(alone)
    capsys.readouterr()
    records = run(corpus)
    assert capsys.readouterr().err == ""
    assert [r for r in records if r[0] == "toy5"] == expected
    bad = [r for r in records if r[0] != "toy5"]
    assert bad == [(name, gamma, variant, "error", None, None, None)
                   for name in ("bad", "binary") for gamma in (0, 1)
                   for variant in sorted(bench.ALL_VARIANTS)]


def test_run_experiment_records_error_for_failed_search(instance_dir, monkeypatch):
    real = bnb.solve_exact

    def capped(inst, gamma, **kwargs):
        if gamma == 1:
            raise CapExceeded("more than 10 minimal forbidden sets; raise max_sets")
        return real(inst, gamma, **kwargs)

    monkeypatch.setattr(bnb, "solve_exact", capped)
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(0, 1),
                         variants=("bnb",), workers=2)
    records = run_experiment(config)
    assert len(records) == 2 * 2
    assert {(r.gamma, r.status) for r in records} == {(0, "optimal"), (1, "error")}


def test_run_experiment_records_error_for_a_bug_in_one_task(instance_dir, monkeypatch,
                                                            capsys):
    def broken(inst, gamma, variant):
        raise AssertionError("flow routing starved activity 2")

    monkeypatch.setattr(bench, "build_variant", broken)
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,),
                         variants=("basic", "bnb"), bridge_cmd="never-run {lp}", workers=2)
    records = run_experiment(config)
    assert len(records) == 2 * 2
    assert {(r.variant, r.status) for r in records} == {("basic", "error"), ("bnb", "optimal")}
    err = capsys.readouterr().err
    assert err.count("Traceback") == 2
    assert "AssertionError: flow routing starved activity 2" in err


def test_write_outputs(instance_dir, tmp_path):
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(0,), variants=("bnb",))
    records = run_experiment(config)
    out = tmp_path / "out"
    paths = write_outputs(records, out, config.variants)
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    header = paths["results"].read_text().splitlines()[0]
    assert header == "instance,gamma,variant,status,objective,bound,gap_percent,time_s"


def test_write_outputs_of_an_all_skipped_run(instance_dir, tmp_path):
    config = BenchConfig(instances_dir=str(instance_dir), gammas=(1,), variants=("basic",))
    records = run_experiment(config)
    assert {r.status for r in records} == {"skipped"}
    paths = write_outputs(records, tmp_path / "out", config.variants)
    assert all(path.exists() for path in paths.values())
    assert paths["profile"].read_text().splitlines() == ["tau,rho_basic"]


def test_run_experiment_rejects_a_directory_without_instances(tmp_path):
    config = BenchConfig(instances_dir=str(tmp_path), variants=("bnb",))
    with pytest.raises(ValueError, match="no .sm instances in"):
        run_experiment(config)


def test_config_from_json():
    config = BenchConfig.from_json(json.dumps({
        "instances_dir": "inst", "gammas": [3, 5, 7], "variants": ["bnb"],
        "time_limit_s": 12.5, "workers": 3,
    }))
    assert config.gammas == (3, 5, 7)
    assert config.workers == 3
    assert config.bridge_cmd is None


@pytest.mark.parametrize("field, value", [
    ("time_limit_s", "10"), ("time_limit_s", -1), ("time_limit_s", True),
    ("time_limit_s", float("inf")), ("time_limit_s", float("nan")),
    ("gammas", [-1]), ("gammas", [1.5]), ("gammas", ["3"]), ("gammas", [True]), ("gammas", 3),
    ("workers", 0), ("workers", "2"), ("workers", 2.0), ("workers", True),
    ("instances_dir", 5), ("instances_dir", None), ("variants", "bnb"), ("variants", ["nope"]),
    ("variants", [["bnb"]]), ("bridge_cmd", 5), ("bridge_cmd", ["python3"]),
    ("gammas", [1, 1]), ("gammas", [3, 5, 3]), ("variants", ["bnb", "bnb"]),
    ("variants", ["warm", "basic", "warm"]), ("gammas", []), ("variants", []),
    ("gamma", [1]), ("time_limit", 1), ("bridge_cmd", "solver {lp} {limit}"),
    ("bridge_cmd", "solver {lp"), ("bridge_cmd", "solver {}"),
])
def test_config_from_json_rejects_a_bad_value(field, value):
    """A config built in code, with tuples for the lists, is rejected with
    the same message: it used to reach the tasks unchecked, where a string
    time limit or a negative gamma ended each task in a traceback and
    repeated gammas ran each task twice."""
    with pytest.raises(ValueError, match=field) as from_json:
        BenchConfig.from_json(json.dumps({"instances_dir": "inst", field: value}))
    if field in {f.name for f in fields(BenchConfig)}:
        with pytest.raises(ValueError) as in_code:
            BenchConfig(**{"instances_dir": "inst",
                           field: tuple(value) if isinstance(value, list) else value})
        assert str(in_code.value) == str(from_json.value)


def test_config_from_json_rejects_a_repeated_key():
    """``json`` keeps the last value of a repeated key, so this config
    used to run gamma 2 alone."""
    with pytest.raises(ValueError, match="^bench config: repeated key 'gammas'$"):
        BenchConfig.from_json('{"instances_dir": "a", "gammas": [1], "gammas": [2]}')


def test_config_from_json_needs_an_instance_directory():
    for raw in ({"gammas": [3]}, ["inst"]):
        with pytest.raises(ValueError, match="instances_dir"):
            BenchConfig.from_json(json.dumps(raw))


def test_bench_with_a_bad_config_exits_1_before_any_task(instance_dir, tmp_path, capsys):
    """A string time limit used to reach every bnb task as a TypeError,
    recorded as one error per task, and the run exited 0."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"instances_dir": str(instance_dir), "time_limit_s": "10"}))
    assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "time_limit_s" in err
    assert not (tmp_path / "out").exists()


def test_record_count_arithmetic():
    # the protocol shape: |instances| x |gammas| records per variant
    config = BenchConfig(instances_dir=".", gammas=(3, 5, 7), variants=("bnb",))
    assert len(config.gammas) * 480 == 1440
