import json
import random
import sys
from pathlib import Path

import pytest

from gen import psplib_text, random_dag_instance, recording_solver, slow_build
from robust_rcpsp.bench import MILP_VARIANTS, build_variant
from robust_rcpsp.cli import main
from robust_rcpsp.instance import parse_psplib, robustify
from robust_rcpsp.milp import export_lp, export_warm_start

DATA = Path(__file__).parent / "data"
BRIDGE = f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{time_s}}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_outputs_instance_json(capsys):
    code, out, _ = run_cli(capsys, "parse", str(DATA / "toy5.sm"))
    assert code == 0
    payload = json.loads(out)
    assert payload["nominal"] == [0, 4, 3, 5, 0]
    assert payload["deviation"] == [0, 0, 0, 0, 0]


def test_parse_with_robustify(capsys):
    code, out, _ = run_cli(capsys, "parse", str(DATA / "toy5.sm"), "--robustify")
    assert code == 0
    assert json.loads(out)["deviation"] == [0, 2, 2, 3, 0]


def test_parse_robustify_of_a_json_instance(capsys, tmp_path):
    """``--robustify`` was ignored for a JSON instance."""
    plain, robust = tmp_path / "plain.json", tmp_path / "robust.json"
    plain.write_text(run_cli(capsys, "parse", str(DATA / "toy5.sm"))[1])
    robust.write_text(run_cli(capsys, "parse", str(DATA / "toy5.sm"), "--robustify")[1])
    assert run_cli(capsys, "parse", str(plain), "--robustify") == (0, robust.read_text(), "")
    code, out, err = run_cli(capsys, "parse", str(robust), "--robustify")
    assert (code, out, err) == (1, "", "error: instance already robustified\n")
    assert run_cli(capsys, "parse", str(robust)) == (0, robust.read_text(), "")


@pytest.mark.parametrize("text", ["[1]", "5", "null"])
def test_parse_of_json_that_is_no_object_names_the_payload(text, capsys, tmp_path):
    """A JSON file that did not start with ``{`` went to the PSPLIB parser,
    which reported a missing ``jobs`` header."""
    path = tmp_path / "value.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "parse", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid instance payload: expected an object")


def test_parse_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "parse", str(DATA / "toy5.sm"))
    _, second, _ = run_cli(capsys, "parse", str(DATA / "toy5.sm"))
    assert first == second


def test_parse_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "parse", "no_such_file.sm")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])  # missing required arguments
    assert exc.value.code == 2


def test_forbidden_catalog(capsys):
    code, out, _ = run_cli(capsys, "forbidden", str(DATA / "toy5.sm"))
    assert code == 0
    assert json.loads(out) == {"sets": [[1, 2]]}


def test_evaluate_nominal_critical_path(capsys):
    code, out, _ = run_cli(capsys, "evaluate", str(DATA / "toy5.sm"),
                           "--gamma", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 9  # 4 + 5 on the nominal critical path
    assert payload["delayed"] == []


def test_evaluate_with_selection_and_budget(capsys):
    code, out, _ = run_cli(capsys, "evaluate", str(DATA / "toy5.sm"),
                           "--selection", "[[1, 2]]", "--gamma", "1")
    assert code == 0
    payload = json.loads(out)
    # serialize 1 before 2, delay activity 3: 4 + 3 + (5 + 3)
    assert payload["value"] == 15


@pytest.mark.parametrize("selection", ["[1]", "[null]", "[[1.5, 2]]", "[[true, 2]]",
                                       "[[1, 2, 3]]", "[\"12\"]", "5"])
def test_evaluate_rejects_a_selection_entry_that_is_not_a_pair_of_ints(selection, capsys,
                                                                      tmp_path):
    path = tmp_path / "selection.json"
    path.write_text(selection)
    for arg in (selection, str(path)) if selection.startswith("[") else (str(path),):
        code, out, err = run_cli(capsys, "evaluate", str(DATA / "toy5.sm"), "--gamma", "1",
                                 "--selection", arg)
        assert (code, out) == (1, "")
        assert err.startswith("error: selection") and "pair" in err


def test_evaluate_rejects_a_selection_arc_naming_an_unknown_activity(capsys):
    code, out, err = run_cli(capsys, "evaluate", str(DATA / "toy5.sm"), "--gamma", "1",
                             "--selection", "[[1, 99]]")
    assert (code, out) == (1, "")
    assert err == "error: selection arc (1, 99) references an unknown activity\n"


def test_warmstart_output(capsys):
    code, out, _ = run_cli(capsys, "warmstart", str(DATA / "toy5.sm"),
                           "--gamma", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_bound"] >= 9
    assert all(len(pair) == 2 for pair in payload["selection"])


def test_build_writes_lp_and_mst(capsys, tmp_path):
    lp = tmp_path / "model.lp"
    mst = tmp_path / "warm.mst"
    code, out, _ = run_cli(capsys, "build", str(DATA / "toy5.sm"), "--gamma", "1",
                           "--variant", "warm+trans", "-o", str(lp), "--mst", str(mst))
    assert code == 0
    info = json.loads(out)
    assert info["lp"] == str(lp)
    text = lp.read_text()
    assert text.startswith("Minimize")
    assert "Generals" in text
    assert mst.read_text().splitlines()[0].startswith("S_0_0 ")


@pytest.mark.parametrize("variant", MILP_VARIANTS)
def test_build_writes_the_bench_variant(capsys, tmp_path, variant):
    inst = robustify(parse_psplib((DATA / "toy5.sm").read_text()))
    model, assignment = build_variant(inst, 2, variant)
    lp, mst = tmp_path / "model.lp", tmp_path / "warm.mst"
    argv = ["build", str(DATA / "toy5.sm"), "--gamma", "2", "--variant", variant, "-o", str(lp)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"lp": str(lp), "mst": None, "variables": len(model.variables),
                               "constraints": len(model.constraints)}
    assert lp.read_text() == export_lp(model)
    code, out, err = run_cli(capsys, *argv, "--mst", str(mst))
    if assignment is None:  # basic and trans have no warm start: a usage error
        assert (code, out) == (2, "")
        assert "--mst needs a warm variant" in err
        assert not mst.exists()
    else:
        assert code == 0
        assert json.loads(out)["mst"] == str(mst)
        assert mst.read_text() == export_warm_start(assignment, model)


@pytest.mark.parametrize("flag", [["--trans"], ["--tighten"], ["--int-starts"],
                                  ["--method", "bnb"]])
@pytest.mark.parametrize("command", ["build", "solve"])
def test_build_and_solve_take_a_variant_not_flags(command, flag, capsys, tmp_path):
    lp = tmp_path / "model.lp"
    extra = ["--variant", "basic", "-o", str(lp)] if command == "build" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(DATA / "toy5.sm"), "--gamma", "1", *extra, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not lp.exists()


def test_build_with_a_negative_gamma_exits_1(capsys, tmp_path):
    """It used to exit 0 and write an LP with no start column whose
    objective was ``S_4_-1``."""
    lp = tmp_path / "model.lp"
    code, out, err = run_cli(capsys, "build", str(DATA / "toy5.sm"), "--gamma", "-1",
                             "--variant", "basic", "-o", str(lp))
    assert (code, out) == (1, "")
    assert "error: gamma must be nonnegative" in err
    assert not lp.exists()


@pytest.mark.parametrize("limit", ["-1", "nan", "inf", "abc"])
@pytest.mark.parametrize("variant", ["bnb", "basic"])
def test_solve_takes_only_a_finite_time_limit_of_at_least_zero(limit, variant, capsys):
    """``-5`` used to stop the search at 0 nodes and ``nan`` meant no limit."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(DATA / "toy5.sm"), "--gamma", "1", "--variant", variant,
              "--time-limit", limit, "--bridge-cmd", BRIDGE])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--time-limit: must be a finite number >= 0" in err


def test_solve_a_model_variant_with_a_zero_time_limit_times_out(capsys, tmp_path):
    """A zero limit stops a model variant as it stops bnb: the solver is
    not started."""
    marker = tmp_path / "started"
    solver = tmp_path / "solver.py"
    solver.write_text(f"import pathlib\npathlib.Path({str(marker)!r}).touch()\n")
    code, out, _ = run_cli(capsys, "solve", str(DATA / "toy5.sm"), "--gamma", "1",
                           "--variant", "basic", "--time-limit", "0",
                           "--bridge-cmd", f"{sys.executable} {solver} {{lp}} {{sol}}")
    assert code == 1
    assert json.loads(out)["status"] == "timeout"
    assert not marker.exists()


@pytest.mark.parametrize("limit, code, status", [("5", 0, "infeasible"), ("0.2", 1, "timeout")])
def test_solve_a_model_variant_within_one_time_limit_with_its_build(limit, code, status, capsys,
                                                                    tmp_path, monkeypatch):
    """The build's time counts against ``--time-limit`` and in ``time_s``:
    the solver gets what is left, and none starts when nothing is."""
    slow_build(monkeypatch, 0.3)
    command, given = recording_solver(tmp_path)
    result = run_cli(capsys, "solve", str(DATA / "toy5.sm"), "--gamma", "1",
                     "--variant", "basic", "--time-limit", limit, "--bridge-cmd", command)
    payload = json.loads(result[1])
    assert (result[0], payload["status"]) == (code, status)
    assert payload["time_s"] >= 0.3
    if status == "timeout":
        assert payload["message"] == "time limit spent before the solver started"
        assert not given.exists()
    else:
        assert 0 < float(given.read_text()) <= 5 - 0.3


def test_solve_bnb_pair_conflict(capsys, tmp_path):
    rng = random.Random(1)
    inst_path = tmp_path / "toy.sm"
    inst_path.write_text((DATA / "toy5.sm").read_text())
    code, out, _ = run_cli(capsys, "solve", str(inst_path), "--gamma", "0",
                           "--variant", "bnb")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["objective"] == 12  # serialize 4+3 then 5 on one unit slack
    assert payload["gap_percent"] == 0.0


def test_solve_of_a_zero_duration_instance_has_gap_0(capsys, tmp_path):
    """A proven optimum of 0 used to print a gap of null."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"nominal": [0, 0, 0], "deviation": [0, 0, 0],
                                "requirements": [[0], [1], [0]], "capacities": [1],
                                "arcs": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "solve", str(path), "--gamma", "1")
    assert code == 0
    assert '"status": "optimal"' in out and '"gap_percent": 0.0' in out


def test_solve_bridge(capsys):
    pytest.importorskip("scipy")
    for variant in MILP_VARIANTS:
        code, out, _ = run_cli(capsys, "solve", str(DATA / "toy5.sm"), "--gamma", "0",
                               "--variant", variant, "--bridge-cmd", BRIDGE)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["method", "status", "objective", "bound", "message", "time_s"]
        assert (payload["method"], payload["status"]) == ("bridge", "optimal")
        assert payload["objective"] == pytest.approx(12.0, abs=1e-6)


def test_solve_bridge_without_command_fails(capsys, monkeypatch):
    monkeypatch.delenv("ROBUST_RCPSP_BRIDGE", raising=False)
    code, _, err = run_cli(capsys, "solve", str(DATA / "toy5.sm"), "--gamma", "0",
                           "--variant", "warm")
    assert code == 1
    assert "bridge" in err


def test_solve_with_an_unknown_bridge_placeholder_exits_1(capsys):
    code, out, err = run_cli(capsys, "solve", str(DATA / "toy5.sm"), "--gamma", "1",
                             "--variant", "basic", "--bridge-cmd",
                             f"{sys.executable} -m robust_rcpsp.highs_bridge {{lp}} {{sol}} {{limit}}")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert (payload["method"], payload["status"], payload["objective"]) == ("bridge", "error", None)
    assert "unknown placeholder {limit}" in payload["message"]


def test_bench_and_profile_commands(capsys, tmp_path):
    rng = random.Random(9)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for idx in range(2):
        inst = random_dag_instance(rng, 3, n_res=1, robustified=False)
        (inst_dir / f"j301_{idx + 1}.sm").write_text(psplib_text(inst))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instances_dir": str(inst_dir), "gammas": [0, 1], "variants": ["bnb"],
        "time_limit_s": 30,
    }))
    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "bench", "--config", str(config),
                             "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "profile.svg").exists()
    assert out.splitlines()[0] == "instance,gamma,variant,status,objective,bound,gap_percent,time_s"

    svg_path = tmp_path / "profile.svg"
    code, out, _ = run_cli(capsys, "profile", "--results",
                           str(out_dir / "results.csv"), "--svg", str(svg_path))
    assert code == 0
    assert out.splitlines()[0].startswith("tau,")
    assert svg_path.exists()


def test_profile_keeps_a_variant_whose_records_are_all_skipped(capsys, tmp_path):
    """Without a bridge command every basic record is skipped; bench's
    profile has a basic column, and profile of its results used to drop it.
    Both write one profile, in the order of ``ALL_VARIANTS``, where profile
    used to sort by name and bench to follow the config."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instances_dir": str(DATA), "gammas": [1],
                                  "variants": ["bnb", "basic"]}))
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "bench", "--config", str(config), "--out", str(out_dir))[0] == 0
    assert (out_dir / "profile.csv").read_text().splitlines()[0] == "tau,rho_basic,rho_bnb"
    svg = tmp_path / "profile.svg"
    code, out, _ = run_cli(capsys, "profile", "--results", str(out_dir / "results.csv"),
                           "--svg", str(svg))
    assert code == 0
    assert out == (out_dir / "profile.csv").read_bytes().decode()
    assert svg.read_bytes() == (out_dir / "profile.svg").read_bytes()


def test_profile_of_a_malformed_csv_exits_1(capsys, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("instance,gamma,status,time_s\nj1,1,optimal,0.5\n")
    code, out, err = run_cli(capsys, "profile", "--results", str(results))
    assert code == 1
    assert out == ""
    assert err.startswith("error: results CSV line 1: no column 'variant'")


def test_bench_without_instances_exits_1(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instances_dir": str(tmp_path / "empty")}))
    code, out, err = run_cli(capsys, "bench", "--config", str(config))
    assert code == 1
    assert out == ""
    assert "no .sm instances in" in err


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample")
    assert code == 0
    assert "integral=3 fractional=7/2" in out


def test_verify_tu(capsys):
    code, out, _ = run_cli(capsys, "verify", "tu")
    assert code == 0
    assert "not_totally_unimodular=true" in out


def test_evaluate_json_instance_input(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "parse", str(DATA / "toy5.sm"), "--robustify")
    inst_json = tmp_path / "inst.json"
    inst_json.write_text(out)
    code, out2, _ = run_cli(capsys, "evaluate", str(inst_json), "--gamma", "0")
    assert code == 0
    assert json.loads(out2)["value"] == 9


def test_evaluate_with_table(capsys):
    code, out, _ = run_cli(capsys, "evaluate", str(DATA / "minimal3.sm"),
                           "--gamma", "1", "--table")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 8  # 5 nominal + ceil(5/2) delayed
    table = payload["table"]
    assert table[0][0] == 0
    assert table[-1][-1] == 8
    assert table[0][1] == 0  # leveled starts: the source starts at 0 on every level


def test_evaluate_table_is_warmstart_starts(capsys):
    _, out, _ = run_cli(capsys, "warmstart", str(DATA / "toy5.sm"), "--gamma", "2")
    warm = json.loads(out)
    code, out, _ = run_cli(capsys, "evaluate", str(DATA / "toy5.sm"), "--gamma", "2",
                           "--selection", json.dumps(warm["selection"]), "--table")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == warm["starts"]
    assert payload["value"] == warm["upper_bound"]


def test_verify_tu_matrix_csv(capsys, tmp_path):
    out_csv = tmp_path / "matrix.csv"
    code, out, _ = run_cli(capsys, "verify", "tu", "--matrix-csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("row,group,a_0_1,")
    assert any(ln.startswith("budget,group4") for ln in lines)
