"""End-to-end CLI tests on a small grid plus bundled data."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlrplan
from dlrplan import data as bundled
from dlrplan.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main

TOY_GRID = {
    "name": "toy",
    "slack_bus": 2,
    "buses": [1, 2],
    "lines": [{"id": "1-2", "from_bus": 1, "to_bus": 2, "reactance_pu": 0.1,
               "limit_mw": 250.0, "is_dlr": True}],
    "generators": [
        {"name": "cheap", "bus": 1, "p_min_mw": 0, "p_max_mw": 400,
         "cost_quad": 0, "cost_linear": 10,
         "reserve_up_max_mw": 400, "reserve_down_max_mw": 400,
         "price_reserve_up": 10, "price_reserve_down": 10,
         "price_activation_up": 50, "price_activation_down": 20},
        {"name": "dear", "bus": 2, "p_min_mw": 0, "p_max_mw": 400,
         "cost_quad": 0, "cost_linear": 50,
         "reserve_up_max_mw": 400, "reserve_down_max_mw": 400,
         "price_reserve_up": 10, "price_reserve_down": 10,
         "price_activation_up": 50, "price_activation_down": 20},
    ],
    "loads": [{"bus": 2, "mw": 300.0}],
}

TOY_FORECAST = {
    "lead_time_hours": 24,
    "lines": ["1-2"],
    "mu_pu": [1.5],
    "sigma_pu2": [[0.04]],
}


@pytest.fixture
def toy(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(TOY_GRID))
    forecast = tmp_path / "forecast.json"
    forecast.write_text(json.dumps(TOY_FORECAST))
    return tmp_path, grid, forecast


def test_rate_bundled_inputs(tmp_path):
    out = tmp_path / "ratings.csv"
    code = main(["rate", "--weather", str(bundled.weather_samples_path()),
                 "--spec", str(bundled.dlr_rating_spec_path()),
                 "--output", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["wind_speed", "wind_angle",
                                       "ambient_temperature", "solar_irradiance"]
    first = lines[1].split(",")
    # first bundled row is the NLR weather itself
    assert float(first[5]) == pytest.approx(1.0, abs=1e-9)
    assert float(first[6]) == pytest.approx(250.0, abs=1e-6)


def test_rate_empty_weather_file(tmp_path):
    weather = tmp_path / "weather.csv"
    weather.write_text("wind_speed,wind_angle,ambient_temperature,solar_irradiance\n")
    out = tmp_path / "ratings.csv"
    code = main(["rate", "--weather", str(weather),
                 "--spec", str(bundled.dlr_rating_spec_path()),
                 "--output", str(out)])
    assert code == EXIT_OK
    assert out.read_text().splitlines() == [
        "wind_speed,wind_angle,ambient_temperature,solar_irradiance,"
        "ampacity_a,rating_pu,rating_mw"]


def test_rate_bad_row_reports_input_error(tmp_path):
    weather = tmp_path / "weather.csv"
    weather.write_text("wind_speed,wind_angle,ambient_temperature,solar_irradiance\n"
                       "nope,0,0,0\n")
    code = main(["rate", "--weather", str(weather),
                 "--spec", str(bundled.dlr_rating_spec_path()),
                 "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_INPUT


def test_procure_and_operate_approach_one(toy):
    tmp, grid, forecast = toy
    out = tmp / "out"
    code = main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "I", "--gamma", "0.95", "--output-dir", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "procurement_I.json").read_text())
    assert report["approach"] == "I"
    assert report["dlr_lines"] == ["1-2"]
    assert sum(report["delta_up_mw"]) > 0

    action_csv = tmp / "action.csv"
    code = main(["operate", "--grid", str(grid),
                 "--procurement", str(out / "procurement_I.json"),
                 "--realization", "1-2=1.2", "--output", str(action_csv)])
    assert code == EXIT_OK
    rows = action_csv.read_text().splitlines()
    assert rows[0] == "generator,delta_plus_mw,delta_minus_mw"
    # realization 1.2 pu = 300 MW covers the whole schedule: zero action
    assert [r.split(",")[1:] for r in rows[1:]] == [["0", "0"], ["0", "0"]]


def test_operate_low_realization_acts(toy):
    tmp, grid, forecast = toy
    out = tmp / "out"
    main(["procure", "--grid", str(grid), "--forecast", str(forecast),
          "--approach", "I", "--output-dir", str(out)])
    action_csv = tmp / "action.csv"
    code = main(["operate", "--grid", str(grid),
                 "--procurement", str(out / "procurement_I.json"),
                 "--realization", "1-2=1.15", "--output", str(action_csv)])
    assert code == EXIT_OK
    rows = {r.split(",")[0]: r.split(",")[1:] for r in
            action_csv.read_text().splitlines()[1:]}
    # schedule ~300 MW against 287.5 MW: 12.5 MW shifts from cheap to dear
    assert float(rows["cheap"][1]) == pytest.approx(-12.5, abs=0.01)
    assert float(rows["dear"][0]) == pytest.approx(12.5, abs=0.01)


def test_operate_uncovered_realization_exits_2(toy):
    tmp, grid, forecast = toy
    out = tmp / "out"
    main(["procure", "--grid", str(grid), "--forecast", str(forecast),
          "--approach", "I", "--output-dir", str(out)])
    code = main(["operate", "--grid", str(grid),
                 "--procurement", str(out / "procurement_I.json"),
                 "--realization", "1-2=0.2", "--output", str(tmp / "a.csv")])
    assert code == EXIT_INFEASIBLE


def test_procure_approach_two_passthrough(toy):
    tmp, grid, forecast = toy
    out = tmp / "out"
    code = main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "II", "--y", "300", "--output-dir", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "procurement_II.json").read_text())
    assert report["approach"] == "II"
    policy = json.loads((out / "policy_II.json").read_text())
    assert policy["y_mw"] == [300.0]
    slopes = [g["slope_mw_per_mw"][0] for g in policy["generators"]]
    assert slopes == pytest.approx([-1.0, 1.0], abs=1e-5)

    from dlrplan.affine_policy import procure_affine
    from dlrplan.network import compute_ptdf, load_grid
    from dlrplan.uncertainty import build_ellipsoid, load_forecast

    g = load_grid(grid)
    ptdf = compute_ptdf(g)
    pp = procure_affine(g, ptdf, build_ellipsoid(load_forecast(forecast), 0.95), [300.0])
    assert report["cost_dispatch"] == pytest.approx(pp.cost_dispatch, abs=1e-6)


def test_procure_approach_two_caps_match_y(toy):
    """Without --y or --y-grid, --caps is the guarantee y."""
    tmp, grid, forecast = toy
    for flag, out in (("--y", "by_y"), ("--caps", "by_caps")):
        assert main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                     "--approach", "II", flag, "300", "--output-dir", str(tmp / out)]) == EXIT_OK
    for name in ("procurement_II.json", "policy_II.json"):
        assert (tmp / "by_caps" / name).read_bytes() == (tmp / "by_y" / name).read_bytes()


def test_procure_approach_two_y_grid_matches_select_y(toy):
    from dlrplan.affine_policy import policy_procurement_to_doc, select_y
    from dlrplan.network import compute_ptdf, load_grid
    from dlrplan.uncertainty import build_ellipsoid, load_forecast

    tmp, grid, forecast = toy
    assert main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "II", "--y-grid", "280;300",
                 "--output-dir", str(tmp / "out")]) == EXIT_OK
    g = load_grid(grid)
    ptdf = compute_ptdf(g)
    _, pp = select_y(g, ptdf, build_ellipsoid(load_forecast(forecast), 0.95), [[280.0], [300.0]])
    want = json.loads(json.dumps(dict(policy_procurement_to_doc(pp, g, ptdf), gamma=0.95)))
    assert json.loads((tmp / "out" / "procurement_II.json").read_text()) == want


def test_procure_approach_two_without_guarantee_exits_3(toy, capsys):
    tmp, grid, forecast = toy
    code = main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "II", "--output-dir", str(tmp / "out")])
    assert code == EXIT_INPUT
    assert "approach II needs --y, --y-grid or --caps" in capsys.readouterr().err


def test_operate_approach_two_applies_the_policy(toy, capsys):
    """The action CSV is policy_action split into its plus and minus parts."""
    from dlrplan.affine_policy import policy_action, policy_procurement_from_doc
    from dlrplan.network import compute_ptdf, load_grid

    tmp, grid, forecast = toy
    assert main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "II", "--y", "300", "--output-dir", str(tmp / "out")]) == EXIT_OK
    capsys.readouterr()
    report = tmp / "out" / "procurement_II.json"
    action_csv = tmp / "action.csv"
    assert main(["operate", "--grid", str(grid), "--procurement", str(report),
                 "--realization", "1-2=1.0", "--output", str(action_csv)]) == EXIT_OK
    assert capsys.readouterr().out == f"re-dispatch cost 3500.0000 $ -> {action_csv}\n"

    g = load_grid(grid)
    ptdf = compute_ptdf(g)
    pp = policy_procurement_from_doc(json.loads(report.read_text()), g, ptdf)
    action = policy_action(pp.policy, [1.0])
    assert _read_csv(action_csv) == [["generator", "delta_plus_mw", "delta_minus_mw"]] + [
        [gen.name, "%.10g" % max(a, 0.0), "%.10g" % min(a, 0.0)]
        for gen, a in zip(g.generators, action)]
    assert action[0] < 0 < action[1]


def test_operate_repeated_realization_line_exits_3(toy, capsys):
    """0.2 p.u. alone is uncovered; a later 1.5 for the same line must not
    silently replace it."""
    tmp, grid, forecast = toy
    main(["procure", "--grid", str(grid), "--forecast", str(forecast),
          "--approach", "I", "--output-dir", str(tmp / "out")])
    capsys.readouterr()
    code = main(["operate", "--grid", str(grid),
                 "--procurement", str(tmp / "out" / "procurement_I.json"),
                 "--realization", "1-2=0.2,1-2=1.5", "--output", str(tmp / "a.csv")])
    assert code == EXIT_INPUT
    assert "1-2" in capsys.readouterr().err
    assert not (tmp / "a.csv").exists()


def test_procure_mismatched_dlr_lines_exits_3(toy):
    tmp, grid, _ = toy
    bad = tmp / "bad_forecast.json"
    bad.write_text(json.dumps({"lead_time_hours": 24, "lines": ["9-9"],
                               "mu_pu": [1.5], "sigma_pu2": [[0.04]]}))
    code = main(["procure", "--grid", str(grid), "--forecast", str(bad),
                 "--approach", "I", "--output-dir", str(tmp / "out")])
    assert code == EXIT_INPUT


def test_procure_infeasible_exits_2(tmp_path):
    doc = json.loads(json.dumps(TOY_GRID))
    doc["loads"] = [{"bus": 2, "mw": 400.0}]
    doc["generators"][1]["p_max_mw"] = 50.0
    for g in doc["generators"]:
        g["reserve_up_max_mw"] = 1.0
        g["reserve_down_max_mw"] = 1.0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    forecast = tmp_path / "forecast.json"
    forecast.write_text(json.dumps(TOY_FORECAST))
    code = main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "I", "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE


def _write_eval_manifest(tmp, grid, forecast, out_name):
    manifest = {
        "grid": str(grid),
        "procurements": [
            {"label": "I-24h", "path": str(tmp / "out" / "procurement_I.json"),
             "forecast": str(forecast)},
            {"label": "II-24h", "path": str(tmp / "out2" / "procurement_II.json"),
             "forecast": str(forecast)},
        ],
        "sample_count": 200,
        "seed": 11,
        "output_dir": str(tmp / out_name),
    }
    path = tmp / f"manifest_{out_name}.json"
    path.write_text(json.dumps(manifest))
    return path


def test_evaluate_manifest_summary_and_determinism(toy):
    tmp, grid, forecast = toy
    assert main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "I", "--output-dir", str(tmp / "out")]) == EXIT_OK
    assert main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "II", "--y", "300", "--output-dir", str(tmp / "out2")]) == EXIT_OK

    m1 = _write_eval_manifest(tmp, grid, forecast, "eval1")
    m2 = _write_eval_manifest(tmp, grid, forecast, "eval2")
    assert main(["evaluate", "--manifest", str(m1)]) == EXIT_OK
    assert main(["evaluate", "--manifest", str(m2)]) == EXIT_OK

    s1 = (tmp / "eval1" / "summary.csv").read_bytes()
    s2 = (tmp / "eval2" / "summary.csv").read_bytes()
    assert s1 == s2

    lines = s1.decode().splitlines()
    assert lines[0] == "metric,status quo,I-24h,II-24h"
    metrics = [l.split(",")[0] for l in lines[1:]]
    assert metrics == ["Dispatch Cost", "Procured Amount", "Procurement Costs",
                       "Mean operational costs", "Total Cost", "Cost Saving (in %)"]
    sample_bytes_1 = (tmp / "eval1" / "samples_I-24h.csv").read_bytes()
    sample_bytes_2 = (tmp / "eval2" / "samples_I-24h.csv").read_bytes()
    assert sample_bytes_1 == sample_bytes_2


def test_evaluate_missing_artifact_exits_3(toy):
    tmp, grid, forecast = toy
    manifest = tmp / "manifest.json"
    manifest.write_text(json.dumps({
        "grid": str(grid),
        "procurements": [{"label": "x", "path": str(tmp / "nope.json"),
                          "forecast": str(forecast)}],
        "output_dir": str(tmp / "eval"),
    }))
    assert main(["evaluate", "--manifest", str(manifest)]) == EXIT_INPUT


def test_sweep_flow_limits_single_point_and_plot_data(toy):
    tmp, grid, forecast = toy
    manifest = tmp / "sweep.json"
    manifest.write_text(json.dumps({
        "grid": str(grid), "forecast": str(forecast),
        "sample_count": 50, "seed": 5,
        "limits_grid_mw": [[300.0]],
        "output_dir": str(tmp / "sweep_out"),
    }))
    code = main(["sweep", "--manifest", str(manifest), "--kind", "flow-limits",
                 "--emit-plot-data"])
    assert code == EXIT_OK
    table = (tmp / "sweep_out" / "sweep_flow_limits.csv").read_text().splitlines()
    assert len(table) == 3  # header + one row per approach
    assert (tmp / "sweep_out" / "plotdata_savings_I.csv").exists()
    assert (tmp / "sweep_out" / "plotdata_savings_II.csv").exists()


def test_sweep_flow_limits_empty_grid_exits_3(toy, capsys):
    tmp, grid, forecast = toy
    manifest = tmp / "sweep.json"
    manifest.write_text(json.dumps({
        "grid": str(grid), "forecast": str(forecast), "limits_grid_mw": [],
        "output_dir": str(tmp / "sweep_out"),
    }))
    code = main(["sweep", "--manifest", str(manifest), "--kind", "flow-limits"])
    assert code == EXIT_INPUT
    assert "limits_grid" in capsys.readouterr().err
    assert not (tmp / "sweep_out" / "sweep_flow_limits.csv").exists()


def test_sweep_reruns_byte_identical(toy):
    tmp, grid, forecast = toy
    for name in ("s1", "s2"):
        manifest = tmp / f"{name}.json"
        manifest.write_text(json.dumps({
            "grid": str(grid), "forecast": str(forecast),
            "sample_count": 60, "seed": 9,
            "mu_grid_pu": [1.4, 1.5], "sigma_grid_pu": [0.1],
            "output_dir": str(tmp / name),
        }))
        assert main(["sweep", "--manifest", str(manifest), "--kind", "mu-sigma"]) == EXIT_OK
    a = (tmp / "s1" / "sweep_mu_sigma.csv").read_bytes()
    b = (tmp / "s2" / "sweep_mu_sigma.csv").read_bytes()
    assert a == b


def test_sweep_mu_sigma_infeasible_point_keeps_columns(toy):
    tmp, grid, forecast = toy
    for name, mus in (("high_first", [1.5, 0.1]), ("low_first", [0.1, 1.5])):
        manifest = tmp / f"{name}.json"
        manifest.write_text(json.dumps({
            "grid": str(grid), "forecast": str(forecast),
            "sample_count": 40, "seed": 3,
            "mu_grid_pu": mus, "sigma_grid_pu": [0.1],
            "output_dir": str(tmp / name),
        }))
        assert main(["sweep", "--manifest", str(manifest), "--kind", "mu-sigma"]) == EXIT_OK
        rows = _read_csv(tmp / name / "sweep_mu_sigma.csv")
        assert rows[0] == ["mu_pu", "sigma_pu", "approach", "status", "procured_mw",
                           "mean_operational_cost", "total_cost", "savings_pct"]
        assert len(rows) == 5
        assert any(r[3].startswith("infeasible: ") and "nan" in r[4:] for r in rows[1:])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_infeasible_point_rows_parse_and_keep_their_own_status(toy):
    """At mu = 0.1 approach I fails with a status that holds a comma; the
    approach-II row still reports approach II's own outcome."""
    tmp, grid, forecast = toy
    manifest = tmp / "low.json"
    manifest.write_text(json.dumps({
        "grid": str(grid), "forecast": str(forecast), "sample_count": 40, "seed": 3,
        "mu_grid_pu": [0.1], "sigma_grid_pu": [0.1], "output_dir": str(tmp / "low"),
    }))
    assert main(["sweep", "--manifest", str(manifest), "--kind", "mu-sigma"]) == EXIT_OK
    header, *rows = _read_csv(tmp / "low" / "sweep_mu_sigma.csv")
    assert all(len(r) == len(header) for r in rows)
    status = {r[2]: r[3] for r in rows}
    assert status["I"].startswith("infeasible: procurement infeasible")
    assert "violating vertices (p.u.): [(-0.095996,)]" in status["I"]
    assert status["II"] != status["I"]
    assert "no affine policy can guarantee" in status["II"]


def test_rate_worked_example_through_cli(tmp_path):
    import math

    from conftest import DRAKE
    from dlrplan.thermal import WeatherSample, ampacity
    from test_thermal import ORACLE_AMPACITY, ORACLE_WEATHER

    base = ampacity(WeatherSample(0.5, 22.5, 30.0, 900.0), DRAKE)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "conductor": {
            "diameter": 0.02814, "resistance_at_t_low": 7.283e-5, "t_low": 25,
            "resistance_at_t_high": 8.688e-5, "t_high": 75, "emissivity": 0.8,
            "absorptivity": 0.8, "max_temperature": 100,
        },
        "voltage_kv": 230.0,
        "nominal_rating_mw": math.sqrt(3.0) * 230.0 * base / 1000.0,
    }))
    weather = tmp_path / "weather.csv"
    weather.write_text(
        "wind_speed,wind_angle,ambient_temperature,solar_irradiance\n"
        f"{ORACLE_WEATHER.wind_speed},{ORACLE_WEATHER.wind_angle},"
        f"{ORACLE_WEATHER.ambient_temperature},{ORACLE_WEATHER.solar_irradiance}\n")
    out = tmp_path / "ratings.csv"
    assert main(["rate", "--weather", str(weather), "--spec", str(spec),
                 "--output", str(out)]) == EXIT_OK
    amps = float(out.read_text().splitlines()[1].split(",")[4])
    assert amps == pytest.approx(ORACLE_AMPACITY, rel=0.01)


def test_numerically_degenerate_grid_exits_4(tmp_path):
    from dlrplan.cli import EXIT_NUMERICAL

    doc = json.loads(json.dumps(TOY_GRID))
    doc["buses"] = [1, 2, 3]
    doc["lines"].append({"id": "2-3", "from_bus": 2, "to_bus": 3,
                         "reactance_pu": 1e300, "limit_mw": 100.0})
    doc["loads"].append({"bus": 3, "mw": 0.0})
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    forecast = tmp_path / "forecast.json"
    forecast.write_text(json.dumps(TOY_FORECAST))
    code = main(["procure", "--grid", str(grid), "--forecast", str(forecast),
                 "--approach", "I", "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL


def test_usage_error_exits_3():
    assert main(["procure", "--grid", "x"]) == EXIT_INPUT


def test_console_script_help_runs():
    res = subprocess.run([sys.executable, "-m", "dlrplan.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for cmd in ("rate", "procure", "operate", "evaluate", "sweep"):
        assert cmd in res.stdout


_THREAD_PROBE = """
import ctypes, json, sys
from dlrplan import cli, data
code = cli.main(["rate", "--weather", str(data.weather_samples_path()),
                 "--spec", str(data.dlr_rating_spec_path()), "--output", sys.argv[1]])
import numpy, scipy.linalg  # every OpenBLAS the package can load
with open("/proc/self/maps") as fh:
    paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            counts.append(fn())
            break
print(json.dumps({"code": code, "counts": counts}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads loaded libraries from /proc")
def test_dlrplan_threads_caps_openblas(tmp_path):
    """DLRPLAN_THREADS=1 reaches OpenBLAS when only the CLI sets it."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["DLRPLAN_THREADS"] = "1"
    src = str(Path(dlrplan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(tmp_path / "ratings.csv")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["code"] == EXIT_OK
    if not out["counts"]:
        pytest.skip("numpy and scipy load no OpenBLAS here")
    assert out["counts"] == [1] * len(out["counts"])
