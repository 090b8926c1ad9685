"""Command-line interface: flags, overrides, outputs, error reporting."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tieralloc import CSV_COLUMNS
from tieralloc.cli import build_parser, main, scenario_from_args

FAST = {"scenario_id": "cli", "grid_width": 6, "grid_height": 6,
        "local_clouds": 3, "public_instances": 1, "users": 3,
        "workflows_per_user": 1, "duration_s": 120.0,
        "template_mix": {"file_sync": 1.0}, "repetitions": 1, "seed": 2,
        "algorithm": "greedy"}


def _scenario_file(tmp_path, **overrides):
    data = dict(FAST)
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_defaults_and_overrides_compose():
    args = build_parser().parse_args([])
    sc = scenario_from_args(args)
    assert (sc.users, sc.seed, sc.algorithm) == (20, 0, "music")
    args = build_parser().parse_args(
        ["--users", "7", "--seed", "9", "--algorithm", "rsa",
         "--uncertainty", "25", "--repetitions", "2", "--groups", "2",
         "--public-only"])
    sc = scenario_from_args(args)
    assert (sc.users, sc.seed, sc.algorithm) == (7, 9, "rsa")
    assert (sc.uncertainty_pct, sc.repetitions, sc.groups) == (25.0, 2, 2)
    assert sc.local_capacity == 0  # --public-only closes every local cloud


def test_file_values_yield_to_explicit_flags(tmp_path):
    path = _scenario_file(tmp_path, users=5)
    args = build_parser().parse_args(["--scenario", path])
    assert scenario_from_args(args).users == 5
    args = build_parser().parse_args(["--scenario", path, "--users", "8"])
    sc = scenario_from_args(args)
    assert sc.users == 8
    assert sc.scenario_id == "cli"  # untouched fields come from the file


def test_run_prints_csv_to_stdout(tmp_path, capsys):
    assert main(["--scenario", _scenario_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(CSV_COLUMNS, rows[1]))
    assert record["algorithm"] == "greedy"
    assert record["scenario_id"] == "cli"


def test_output_file_replaces_stdout(tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    code = main(["--scenario", _scenario_file(tmp_path),
                 "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out_path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_table_format_renders_aligned_text(tmp_path, capsys):
    assert main(["--scenario", _scenario_file(tmp_path),
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scenario_id")
    assert "," not in out.splitlines()[0]


def test_dump_profiles_emits_the_cost_tables(tmp_path, capsys):
    assert main(["--scenario", _scenario_file(tmp_path),
                 "--dump-profiles"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"links", "intercloud", "compute", "price"}
    assert data["price"]["cellular_usd_per_gb"] == 20.0
    assert data["links"]["wifi_local"]["delay_ms_per_100kb"] == 10.7421875
    # per-service tables exist for each deployed service
    assert any(key.startswith("svc") for key in data["compute"])


def test_errors_report_to_stderr_with_exit_code_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"users": 0}')
    assert main(["--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tieralloc: error:")
    assert "users" in err
    assert main(["--scenario", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"annealing": {"max_iter": -1}},
    {"annealing": {"radius_start_cells": -1}},
    {"repetitions": 1.5},
    {"seed": -1},
    {"cell_size_m": "100"},
    {"public_instances": 0, "local_capacity": 0},
    {"profiles": {"links": {"wifi_local": {"delay": 1}}}},
])
def test_a_bad_scenario_file_exits_two_without_a_traceback(tmp_path, bad):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tieralloc", "--scenario",
         _scenario_file(tmp_path, **bad)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("tieralloc: error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_fleet_of_more_than_64_users_runs_without_a_traceback(tmp_path):
    """70 users whose one plan each needs the one local cloud, with room for
    65: the optimum scores a product over 70 users (more axes than
    np.unravel_index takes) and finds no feasible joint assignment."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    path = tmp_path / "many.json"
    path.write_text(json.dumps({
        "users": 70, "local_clouds": 1, "public_instances": 0,
        "local_capacity": 65, "device_service_rate": 0.0,
        "workflows_per_user": 1, "template_mix": {"file_sync": 1.0},
        "duration_s": 120.0, "algorithm": "greedy", "repetitions": 1}))
    proc = subprocess.run(
        [sys.executable, "-m", "tieralloc", "--scenario", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [r["algorithm"] for r in rows] == ["greedy"]


def test_public_only_is_a_file_with_local_capacity_zero(tmp_path, capsys):
    path = _scenario_file(tmp_path, algorithm="all")
    assert main(["--scenario", path, "--public-only"]) == 0
    flagged = capsys.readouterr().out
    assert main(["--scenario", _scenario_file(tmp_path, algorithm="all",
                                              local_capacity=0)]) == 0
    assert flagged == capsys.readouterr().out
    rows = {r["algorithm"]: r for r in csv.DictReader(io.StringIO(flagged))}
    assert float(rows["bruteforce"]["throughput_pct"]) == 100.0
    # with no public instance either, a device without the function is
    # left with no host: refused before any run
    path = _scenario_file(tmp_path, public_instances=0)
    assert main(["--scenario", path, "--public-only"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tieralloc: error: public_instances/local_capacity")


def test_a_function_left_without_any_host_names_the_fields(tmp_path, capsys):
    # desk's local_function_rate 0.4 leaves 'edit' on no local cloud; with
    # no public instance either, a user without it on the device has no host
    desk = Path(__file__).resolve().parents[1] / "demos/scenarios/desk.json"
    data = json.loads(desk.read_text())
    data.update(public_instances=0, local_capacity=2, seed=0)
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(data))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tieralloc: error:")
    assert "public_instances" in captured.err
    assert "local_function_rate" in captured.err
    assert "'edit'" in captured.err


def test_module_entry_point_exists():
    import tieralloc.__main__  # noqa: F401  (import must not execute main)
