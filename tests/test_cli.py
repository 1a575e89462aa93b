import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from leafout import io as lio
from leafout.cli import (MAX_CELLS, MAX_GRASP_WORK, MAX_POINTS, SCHEMA,
                         apply_overrides, main)

BASE = {
    "geometry": {"n_cell": 5, "L1": 70.0, "L2": 30.0},
    "springs": {"kappa": 1.0, "rest_deg": {"rho_m": 120.0, "rho_b": -30.0}},
    "output": {"dir": "."},
}


def write_cfg(tmp_path, task, name="cfg.json", **extra):
    cfg = json.loads(json.dumps(BASE))
    cfg["task"] = task
    cfg.update(extra)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "uniform-path"})
    assert main(["validate", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_validate_rejects_degenerate_pattern(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "uniform-path"})
    data = json.loads(cfg.read_text())
    data["geometry"]["n_cell"] = 2
    cfg.write_text(json.dumps(data))
    rc = main(["validate", "--config", str(cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config"
    # a failing run must not leave output files behind
    out = tmp_path / "never"
    rc = main(["uniform-path", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not (out / "manifest.json").exists()


def test_version_and_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == lio.__version__
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: leafout")
    cfg = write_cfg(tmp_path, {"name": "uniform-path"})
    never = tmp_path / "never"
    out = ["--out", str(never)]
    for argv in (["bogus", "--config", str(cfg)], ["validate"], [],
                 ["--config", str(cfg), *out],                     # no command
                 ["uniform-path", *out],                           # no --config
                 ["uniform-path", "uniform-path", "--config", str(cfg), *out],
                 ["uniform-path", "validate", "--config", str(cfg), *out],
                 ["uniform-path", "--config", str(cfg), "--bogus", *out],
                 ["uniform-path", "--conf", str(cfg), *out],       # no abbreviations
                 ["uniform-path", "--config", str(cfg), "-x", *out],
                 ["uniform-path", *out, "--config"],               # no value
                 ["uniform-path", "--config", "--set", "task.n_samples=5", *out],
                 ["uniform-path", "--config", str(cfg), *out, "--set"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: leafout"), argv
        assert err[1].startswith("leafout: error: "), argv
        assert "Traceback" not in "".join(err)
        assert not never.exists(), argv


def test_options_before_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "uniform-path", "n_samples": 11,
                               "psi_range_deg": [-20.0, 20.0]})
    assert main(["--config", str(cfg), "validate"]) == 0
    out = tmp_path / "o"
    assert main(["--out", str(out), "--set", "task.n_samples=5",
                 "--config", str(cfg), "uniform-path"]) == 0
    assert len((out / "uniform_path.csv").read_text().splitlines()) == 1 + 5
    # the --opt=value forms; the last --config and --out win, --sets apply
    # in order, so the last of two on one key holds
    other = write_cfg(tmp_path, {"name": "energy-landscape"}, name="other.json")
    first, last = tmp_path / "first", tmp_path / "last"
    assert main([f"--config={other}", f"--out={first}", "uniform-path",
                 "--set=task.n_samples=7", f"--config={cfg}", "--out", str(last),
                 "--set", "task.n_samples=6"]) == 0
    assert not first.exists()
    assert len((last / "uniform_path.csv").read_text().splitlines()) == 1 + 6


def test_task_subcommand_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "uniform-path"})
    assert main(["energy-landscape", "--config", str(cfg)]) == 2


def test_uniform_path_run_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "uniform-path",
                               "psi_range_deg": [-40.0, 40.0],
                               "n_samples": 81})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["uniform-path", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["uniform-path", "--config", str(cfg), "--out", str(out2)]) == 0
    csv1 = (out1 / "uniform_path.csv").read_bytes()
    csv2 = (out2 / "uniform_path.csv").read_bytes()
    assert csv1 == csv2
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2
    assert m1["task"] == "uniform-path"
    assert "uniform_path.csv" in m1["outputs"]


def test_uniform_path_csv_extrema_match_energy_report(tmp_path):
    # the exported energy column reproduces the landscape structure
    cfg = write_cfg(tmp_path, {"name": "uniform-path",
                               "psi_range_deg": [-89.0, 53.0],
                               "n_samples": 285})
    out = tmp_path / "o"
    assert main(["uniform-path", "--config", str(cfg), "--out", str(out)]) == 0
    import leafout as lf
    from oracles import read_path_csv, sampled_extrema
    _, params, _, _, energy = read_path_csv(out / "uniform_path.csv")
    assert energy is not None
    mins, maxs = sampled_extrema(energy)
    assert len(mins) == 2 and len(maxs) == 1
    geom = lf.LeafOutGeometry(5, 70.0, 30.0)
    springs = lf.SpringModel.uniform(geom, 1.0, np.radians(120.0),
                                     np.radians(-30.0))
    report = lf.characterize_bistability(
        lf.landscape_over_psi(geom, springs, (np.radians(-89), np.radians(53))))
    grid_h = np.radians(0.5)
    assert abs(params[mins[0]] - report.psi_open) < grid_h
    assert abs(params[mins[1]] - report.psi_closed) < grid_h
    assert abs(params[maxs[0]] - report.psi_barrier) < grid_h


def test_energy_landscape_reports_bistability(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "energy-landscape",
                               "psi_range_deg": [-88.0, 52.0]})
    out = tmp_path / "o"
    assert main(["energy-landscape", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "bistability.json").read_text())
    assert rep["stability_class"] == "bistable"
    assert abs(np.degrees(rep["psi_barrier"])) < 0.25
    rows = (out / "landscape.csv").read_text().splitlines()
    assert rows[0] == "psi,energy,rho_M,rho_S,rho_B"


def test_energy_landscape_open_minimum_in_first_cell(tmp_path):
    # the open minimum sits within 0.25 deg of the -90 deg end, inside the
    # first grid cell: the slope's sign change there still finds it
    from oracles import dense_landscape_xi, dense_uniform_path
    cfg = write_cfg(tmp_path, {"name": "energy-landscape",
                               "psi_range_deg": [-90.0, 54.0]},
                    springs={"kappa": 1.0,
                             "rest_deg": {"rho_m": 112.0, "rho_b": -170.0}})
    out = tmp_path / "o"
    assert main(["energy-landscape", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "bistability.json").read_text())
    assert rep["stability_class"] == "bistable"
    assert np.radians(-90.0) < rep["psi_open"] < np.radians(-89.75)
    # the run clips both ends 1e-6 rad inside the motion range
    path = dense_uniform_path(5, -np.pi / 2 + 1e-6, np.radians(54.0) - 1e-6)
    bistable, xi = dense_landscape_xi(path, 5, np.radians(112.0),
                                      np.radians(-170.0))
    assert bistable and abs(rep["ratio_xi"] - xi) <= 1e-6


def test_energy_landscape_accepts_default_spacing(tmp_path):
    # 281 samples over [-88, 52] deg are the 0.5 deg default grid itself
    reports = []
    for name, task in (("a", LANDSCAPE), ("b", {**LANDSCAPE, "n_samples": 281})):
        cfg = write_cfg(tmp_path, task, name=f"{name}.json")
        out = tmp_path / name
        assert main(["energy-landscape", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append((out / "bistability.json").read_bytes())
    assert reports[0] == reports[1]


def test_ratio_surface_task(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "ratio-surface",
                               "grid_step_deg": 10.0,
                               "rest_main_range_deg": [30.0, 90.0],
                               "rest_boundary_range_deg": [-120.0, -40.0]})
    out = tmp_path / "o"
    assert main(["ratio-surface", "--config", str(cfg), "--out", str(out)]) == 0
    contour = json.loads((out / "xi_zero_contour.json").read_text())
    assert contour["level"] == 0.0
    rows = (out / "ratio_surface.csv").read_text().splitlines()
    assert rows[0] == "rest_main,rest_boundary,xi"
    assert len(rows) == 1 + 7 * 9


def test_ratio_surface_grid_stays_in_rest_domain(tmp_path):
    # a 6 deg step overshoots 180 and 0 by rounding; those points are the
    # ends themselves, which the library accepts
    cfg = write_cfg(tmp_path, {"name": "ratio-surface", "grid_step_deg": 6.0,
                               "rest_main_range_deg": [0.0, 180.0],
                               "rest_boundary_range_deg": [-180.0, 0.0]})
    out = tmp_path / "o"
    assert main(["ratio-surface", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.array(lio.read_csv(out / "ratio_surface.csv")[1:], dtype=float)
    assert len(rows) == 31 * 31
    assert rows[:, 0].min() == 0.0 and rows[:, 0].max() == np.pi
    assert rows[:, 1].min() == -np.pi and rows[:, 1].max() == 0.0


def test_drop_test_task_with_observations(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("h_mm,outcome\n100,cross\n360,circle\n")
    cfg = write_cfg(tmp_path, {
        "name": "drop-test",
        "drop": {"m_ball_g": 22.3, "R_ball_mm": 35.0, "h_mm": 360.0,
                 "rest_angle_deg": 71.8},
        "h_range_mm": [100.0, 600.0],
        "rest_range_deg": [60.0, 80.0],
        "n_h": 6, "n_rest": 3,
        "observations_csv": str(obs)})
    out = tmp_path / "o"
    assert main(["drop-test", "--config", str(cfg), "--out", str(out)]) == 0
    contour = json.loads((out / "egap_zero_contour.json").read_text())
    assert len(contour["threshold_height_m"]) == 3
    assert contour["observations"][1]["outcome"] == "circle"
    rows = (out / "trigger_map.csv").read_text().splitlines()
    assert len(rows) == 1 + 6 * 3
    assert rows[0] == "rest_angle,h,E_ball,delta_E_g,E_gap,outcome"


def test_multi_grasp_task(tmp_path):
    cfg = write_cfg(tmp_path, {
        "name": "multi-grasp",
        "programs": [[1, 2], [1, 3]],
        "delta_rho_c_deg": 1.0,
        "max_steps": 60},
        springs={"kappa": 1.0, "rest_deg": {"rho_m": 60.0, "rho_b": -120.0}})
    out = tmp_path / "o"
    assert main(["multi-grasp", "--config", str(cfg), "--out", str(out)]) == 0
    bundle = json.loads((out / "multigrasp_bundle.json").read_text())
    assert [p["label"] for p in bundle["programs"]] == ["units-1-2", "units-1-3"]
    assert (out / "trace_units-1-2.csv").exists()
    assert (out / "trace_units-1-3.csv").exists()
    xs = bundle["programs"][0]["config_space"]["x"]
    assert len(xs) == len(bundle["programs"][0]["params"])


def test_multi_grasp_rejects_bad_programs(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "multi-grasp", "programs": [[9]]},
                    springs=BASE["springs"])
    assert main(["multi-grasp", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("task", [
    {"delta_rho_c_deg": 0.0},
    {"delta_rho_c_deg": -0.5},
    {"delta_rho_c_deg": float("nan")},
    {"max_steps": 0},
    {"max_steps": -5},
    {"max_steps": 2.5},
    {"programs": [[1, 2], [2, 1]]},
])
def test_multi_grasp_rejects_bad_step_settings(tmp_path, capsys, task):
    cfg = write_cfg(tmp_path, {"name": "multi-grasp", "programs": [[1, 2]],
                               "max_steps": 5, **task},
                    springs=BASE["springs"])
    out = tmp_path / "o"
    assert main(["multi-grasp", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not out.exists()


NAN_SPRINGS = {"kappa": float("nan"), "rest_deg": {"rho_m": 120.0, "rho_b": -30.0}}
DROP = {"name": "drop-test", "h_range_mm": [100.0, 600.0],
        "rest_range_deg": [60.0, 80.0], "n_h": 4, "n_rest": 3}
LANDSCAPE = {"name": "energy-landscape", "psi_range_deg": [-88.0, 52.0]}


@pytest.mark.parametrize("task,extra", [
    ({"name": "uniform-path", "n_samples": 0}, {}),
    ({"name": "uniform-path", "n_samples": 1}, {}),
    ({"name": "uniform-path", "n_samples": -5}, {}),
    ({"name": "uniform-path", "n_samples": float("nan")}, {}),
    ({"name": "uniform-path", "n_samples": 7.9}, {}),
    ({"name": "uniform-path", "psi_range_deg": [float("nan"), 20.0]}, {}),
    ({"name": "uniform-path", "psi_range_deg": [100.0, 120.0]}, {}),
    ({"name": "uniform-path", "n_samples": 11}, {"springs": NAN_SPRINGS}),
    ({"name": "energy-landscape", "n_samples": 0}, {}),
    ({"name": "energy-landscape", "n_samples": 1}, {}),
    ({"name": "energy-landscape", "n_samples": 91}, {"springs": NAN_SPRINGS}),
    ({"name": "multi-grasp", "programs": [[1, 2]], "max_steps": 5},
     {"springs": NAN_SPRINGS}),
    ({**DROP, "n_h": 0}, {}),
    ({**DROP, "n_rest": 0}, {}),
    ({**DROP, "drop": {"kappa_pet": float("nan")}}, {}),
    ({**LANDSCAPE, "n_samples": 2}, {}),
    ({**LANDSCAPE, "n_samples": 5}, {}),
    ({**LANDSCAPE, "n_samples": 280}, {}),
    ({**LANDSCAPE, "psi_range_deg": [float("nan"), 52.0]}, {}),
    ({**LANDSCAPE, "psi_range_deg": [10.0, 20.0]}, {}),
    ({**DROP, "h_range_mm": [-10.0, 100.0]}, {}),
    ({**DROP, "h_range_mm": [100.0]}, {}),
    ({**DROP, "rest_range_deg": [float("nan"), 80.0]}, {}),
    ({**DROP, "rest_range_deg": [0.0, 80.0]}, {}),
    ({**DROP, "rest_range_deg": [40.0, 120.0]}, {}),
], ids=["n_samples-0", "n_samples-1", "n_samples-neg", "n_samples-nan",
        "n_samples-float", "psi_range-nan", "psi_range-outside",
        "path-kappa-nan", "landscape-n_samples-0", "landscape-n_samples-1",
        "landscape-kappa-nan", "grasp-kappa-nan", "n_h-0", "n_rest-0",
        "kappa_pet-nan", "landscape-n_samples-2", "landscape-n_samples-5",
        "landscape-n_samples-280", "landscape-psi_range-nan",
        "landscape-one-phase", "h_range-negative", "h_range-one-number",
        "rest_range-nan", "rest_range-zero", "rest_range-not-bistable"])
def test_bad_sampling_and_stiffness_rejected(tmp_path, capsys, task, extra):
    cfg = write_cfg(tmp_path, task, **extra)
    out = tmp_path / "o"
    assert main([task["name"], "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not out.exists()


SURFACE = {"name": "ratio-surface", "grid_step_deg": 10.0,
           "rest_main_range_deg": [30.0, 90.0],
           "rest_boundary_range_deg": [-120.0, -40.0]}
OBSERVED = {**DROP, "observations_csv": "obs.csv"}


@pytest.mark.parametrize("task,obs", [
    ({**SURFACE, "grid_step_deg": 0}, None),
    ({**SURFACE, "grid_step_deg": -2.0}, None),
    ({**SURFACE, "grid_step_deg": float("nan")}, None),
    ({**SURFACE, "grid_step_deg": True}, None),
    ({**SURFACE, "rest_main_range_deg": [float("nan"), 90.0]}, None),
    ({**SURFACE, "rest_main_range_deg": [100.0, 90.0]}, None),
    ({**SURFACE, "rest_boundary_range_deg": [-90.0, float("inf")]}, None),
    ({**SURFACE, "rest_boundary_range_deg": [-90.0]}, None),
    ({**SURFACE, "grid_step_deg": 0.18, "rest_main_range_deg": [0.0, 180.0],
      "rest_boundary_range_deg": [-180.0, 0.0]}, None),
    ({**SURFACE, "grid_step_deg": 2.0, "rest_main_range_deg": [2.0, 2000.0],
      "rest_boundary_range_deg": [-2000.0, -2.0]}, None),
    ({**SURFACE, "rest_main_range_deg": [2.0, 180.5]}, None),
    ({**SURFACE, "rest_main_range_deg": [-1.0, 90.0]}, None),
    ({**SURFACE, "rest_boundary_range_deg": [-180.5, -2.0]}, None),
    ({**SURFACE, "rest_boundary_range_deg": [-90.0, 1.0]}, None),
    (OBSERVED, None),
    (OBSERVED, "height,outcome\n100,cross\n"),
    (OBSERVED, "h_mm,outcome\n100,banana\n"),
    (OBSERVED, "h_mm,outcome\nabc,cross\n"),
    (OBSERVED, "h_mm,outcome\nnan,cross\n"),
    ({**DROP, "observations_csv": ["obs.csv"]}, None),
], ids=["step-0", "step-negative", "step-nan", "step-bool", "main-nan",
        "main-reversed", "boundary-inf", "boundary-one-number",
        "grid-over-cap", "rests-beyond-half-turn", "main-above-180",
        "main-negative", "boundary-below-180", "boundary-positive", "obs-missing", "obs-header", "obs-outcome",
        "obs-height-text", "obs-height-nan", "obs-not-a-name"])
def test_bad_surface_grid_and_observations_rejected(tmp_path, monkeypatch,
                                                    capsys, task, obs):
    monkeypatch.chdir(tmp_path)
    if obs is not None:
        (tmp_path / "obs.csv").write_text(obs)
    cfg = write_cfg(tmp_path, task)
    out = tmp_path / "o"
    assert main([task["name"], "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not out.exists()


def test_surface_grid_cap_is_inclusive(tmp_path):
    # 1000 x 1000 points, the largest grid accepted
    cfg = write_cfg(tmp_path, {**SURFACE, "grid_step_deg": 0.18,
                               "rest_main_range_deg": [0.0, 179.82],
                               "rest_boundary_range_deg": [-179.82, 0.0]})
    assert main(["validate", "--config", str(cfg)]) == 0


def test_drop_rest_angle_outside_half_turn_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**DROP, "drop": {"rest_angle_deg": 200.0}})
    assert main(["validate", "--config", str(cfg)]) == 2
    msg = json.loads(capsys.readouterr().err)["error"]["message"]
    assert msg.startswith("rest_angle must be") and "rest_angle" in msg
    assert "boundary rest angle" not in msg


def test_drop_without_pet_width_is_named(tmp_path, capsys):
    # L2 = 10 mm holds no complete 12.5 mm comb tooth: no width, no barrier
    cfg = write_cfg(tmp_path, DROP, geometry={"n_cell": 5, "L1": 70.0, "L2": 10.0})
    assert main(["validate", "--config", str(cfg)]) == 2
    msg = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "effective width 0 mm" in msg and "effective_width_mm" in msg
    assert main(["validate", "--config", str(cfg), "--set", "task.drop.effective_width_mm=5"]) == 0


def test_flat_landscape_is_named(tmp_path, capsys):
    # springs with every kappa 0 leave no landscape to classify; a path's
    # energies of 0 are still a correct answer
    cfg = write_cfg(tmp_path, LANDSCAPE, springs={"rest_deg": {"rho_m": 60.0, "rho_b": -60.0}})
    assert main(["validate", "--config", str(cfg)]) == 2
    msg = json.loads(capsys.readouterr().err)["error"]["message"]
    assert msg == "max(springs.kappa) must be a number in (0, inf), got 0.0"
    cfg = write_cfg(tmp_path, PATH, springs={"kappa": 0, "rest_deg": {"rho_m": 60.0,
                                                                   "rho_b": -60.0}})
    assert main(["uniform-path", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    header, *rows = lio.read_csv(tmp_path / "o" / "uniform_path.csv")
    assert header[-1] == "energy" and {float(r[-1]) for r in rows} == {0.0}


def test_drop_test_accepts_whole_bistable_band(tmp_path):
    # bistable up to 180 (1 - 2 / n_cell) = 108 deg, exclusive
    cfg = write_cfg(tmp_path, {**DROP, "rest_range_deg": [40.0, 107.8]})
    out = tmp_path / "o"
    assert main(["drop-test", "--config", str(cfg), "--out", str(out)]) == 0
    rows = lio.read_csv(out / "trigger_map.csv")
    assert float(rows[-1][0]) == np.radians(107.8)


def test_export_mesh_task(tmp_path):
    cfg = write_cfg(tmp_path, {"name": "export-mesh",
                               "state": {"type": "uniform", "psi_deg": -30.0}})
    out = tmp_path / "o"
    assert main(["export-mesh", "--config", str(cfg), "--out", str(out)]) == 0
    obj = (out / "mesh.obj").read_text().splitlines()
    v = [l for l in obj if l.startswith("v ")]
    f = [l for l in obj if l.startswith("f ")]
    assert len(v) == 36 and len(f) == 40
    geo = json.loads((out / "geometry.json").read_text())
    assert geo["n_cell"] == 5


def test_export_mesh_out_of_range_psi(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "export-mesh",
                               "state": {"type": "uniform", "psi_deg": 80.0}})
    rc = main(["export-mesh", "--config", str(cfg), "--out",
               str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("task", [
    {"name": "uniform-path", "psi_range_deg": [-180.0, 180.0]},
    {"name": "uniform-path", "psi_range_deg": [90.0, -90.0]},
    {"name": "energy-landscape", "psi_range_deg": [-180.0, 180.0]},
    {"name": "energy-landscape", "psi_range_deg": [90.0, -90.0]},
    {"name": "ratio-surface", "rest_main_range_deg": [0.0, 180.0],
     "rest_boundary_range_deg": [-180.0, 0.0]},
    {"name": "export-mesh", "state": {"type": "uniform", "psi_deg": -90.0}},
    {"name": "export-mesh", "state": {"type": "uniform", "psi_deg": 90.0 - 180.0 / 5}},
], ids=["path-wide", "path-reversed", "landscape-wide", "landscape-reversed",
        "surface-whole", "mesh-open-end", "mesh-closed-end"])
def test_windows_past_the_motion_range_end_cleanly(tmp_path, task):
    # every task clips or checks psi before its run step, so a window at or
    # past either end of the motion range (-90 and 54 deg at n_cell 5) is
    # computed or refused as a config error, never a partial run
    cfg = write_cfg(tmp_path, task)
    out = tmp_path / "o"
    rc = main([task["name"], "--config", str(cfg), "--out", str(out)])
    assert rc in (0, 2)
    manifest = out / "manifest.json"
    assert manifest.exists() == (rc == 0)
    if rc == 0:
        assert json.loads(manifest.read_text())["status"] == "ok"


def _export_mesh_rejected(tmp_path, capsys, state):
    cfg = write_cfg(tmp_path, {"name": "export-mesh", "state": state})
    out = tmp_path / "o"
    rc = main(["export-mesh", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert not (out / "mesh.obj").exists()
    assert not (out / "manifest.json").exists()


def test_export_mesh_nan_psi(tmp_path, capsys):
    _export_mesh_rejected(tmp_path, capsys,
                          {"type": "uniform", "psi_deg": float("nan")})


def test_export_mesh_nan_angles(tmp_path, capsys):
    _export_mesh_rejected(tmp_path, capsys,
                          {"type": "angles", "rho_o_deg": [float("nan")] + [0.0] * 9})


def test_export_mesh_non_closing_angles(tmp_path, capsys):
    _export_mesh_rejected(tmp_path, capsys,
                          {"type": "angles", "rho_o_deg": [30.0] + [0.0] * 9})


MESH = {"name": "export-mesh", "state": {"type": "uniform", "psi_deg": -30.0}}


PATH = {"name": "uniform-path"}
GRASP = {"name": "multi-grasp", "programs": [[1, 2]], "max_steps": 5}


def _springs_config(task, kappas):
    springs = {**kappas, "rest_deg": {"rho_m": 120.0, "rho_b": -30.0}}
    return lambda tmp_path: write_cfg(tmp_path, task, springs=springs)


def _list_config(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([{**BASE, "task": MESH}]))
    return p


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _stored(name, *overrides):
    """A stored config with ``--set``-style overrides applied."""
    def make(tmp_path):
        cfg = apply_overrides(json.loads((CONFIGS / f"{name}.json").read_text()),
                              list(overrides))
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        return p
    return make


def _huge_mesh(length):
    return lambda tmp_path: write_cfg(tmp_path, MESH, geometry={
        "n_cell": 5, "L1": length, "L2": length})


@pytest.mark.parametrize("command,make_cfg", [
    ("export-mesh", _list_config),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, {**MESH, "state": [1]})),
    ("energy-landscape", lambda tmp_path: write_cfg(tmp_path, LANDSCAPE, springs={
        "kappa": 1.0, "rest_deg": {"rho_m": "abc", "rho_b": -30.0}})),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, MESH, geometry={
        "n_cell": 5, "L1": float("inf"), "L2": 30.0})),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, {**MESH, "state": {
        "type": "uniform", "psi_deg": -30.0, "tilt_deg": float("nan")}})),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, MESH, geometry={
        "n_cell": 5.5, "L1": 70.0, "L2": 30.0})),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, MESH, output=[1])),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, MESH, output={"dir": 5})),
    ("drop-test", lambda tmp_path: write_cfg(tmp_path, {**DROP, "drop": [1]})),
    ("multi-grasp", lambda tmp_path: write_cfg(tmp_path, {**GRASP, "max_steps": None})),
    ("drop-test", lambda tmp_path: write_cfg(tmp_path, {**DROP, "n_h": None})),
    ("drop-test", lambda tmp_path: write_cfg(tmp_path, {**DROP, "n_rest": None})),
    ("uniform-path", _springs_config(PATH, {"kappa": None})),
    ("energy-landscape", _springs_config(LANDSCAPE, {"kappa": [1]})),
    ("multi-grasp", _springs_config(GRASP, {"kappa": {}})),
    ("energy-landscape", _springs_config(LANDSCAPE, {"kappa_m": None})),
    ("uniform-path", _springs_config(PATH, {"kappa_s": [1]})),
    ("multi-grasp", _springs_config(GRASP, {"kappa_b": {}})),
    ("multi-grasp", lambda tmp_path: write_cfg(tmp_path, {**GRASP, "delta_rho_c_deg": 1e-13})),
    ("multi-grasp", lambda tmp_path: write_cfg(tmp_path, {**GRASP, "delta_rho_c_deg": 181})),
    ("multi-grasp", lambda tmp_path: write_cfg(tmp_path, GRASP, geometry={
        "n_cell": 4, "L1": 70.0, "L2": 30.0})),
    ("energy-landscape", _stored("landscape", "springs.kapa=1.0",
                                 "springs.kappa_m=2.0")),
    ("energy-landscape", _stored("landscape", "springs.kappa_m=50")),
    ("energy-landscape", lambda tmp_path: write_cfg(tmp_path, LANDSCAPE, springs={
        "kapa": 1.0, "rest_deg": {"rho_m": 120.0, "rho_b": -30.0}})),
    ("uniform-path", _stored("uniform_path", 'task.psi_range_deg="12"')),
    ("uniform-path", _stored("uniform_path", "geometry.L1=true")),
    ("energy-landscape", _stored("landscape", "springs.kappa=true")),
    ("energy-landscape", _stored("landscape", 'springs.rest_deg.rho_m="60"')),
    ("drop-test", _stored("drop_map", "task.drop.g=true")),
    ("multi-grasp", _stored("multigrasp", "task.programs=[[true, 2]]")),
    ("uniform-path", _stored("uniform_path", "geometry.n_cells=5")),
    ("energy-landscape", _stored("landscape", "springs.rest_deg.rho_z=60")),
    ("uniform-path", _stored("uniform_path", "output.directory=o")),
    ("uniform-path", _stored("uniform_path", "outputs.dir=o")),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, {**MESH, "state": {
        "type": "uniform", "psi_deg": -30.0, "tilt": 10.0}})),
    ("uniform-path", _stored("uniform_path", "task.n_samples=100000000000")),
    ("drop-test", _stored("drop_map", "task.n_h=100000000000")),
    ("multi-grasp", _stored("multigrasp", "geometry.n_cell=4000")),
    ("export-mesh", _huge_mesh(1e200)),
    ("export-mesh", _huge_mesh(1e308)),
    ("export-mesh", lambda tmp_path: write_cfg(tmp_path, MESH, geometry={
        "n_cell": 5, "L1": 70.0, "L2": 1e308})),
    ("drop-test", lambda tmp_path: write_cfg(tmp_path, DROP, geometry={
        "n_cell": 5, "L1": 70.0, "L2": 10.0})),
    ("energy-landscape", _stored("landscape", "springs.kappa=0")),
    ("energy-landscape", _springs_config(LANDSCAPE, {})),
], ids=["top-level-list", "state-list", "rest-text", "L1-inf", "tilt-nan",
        "n_cell-fraction", "output-list", "output-dir-number", "drop-list",
        "max_steps-null", "n_h-null", "n_rest-null", "path-kappa-null",
        "landscape-kappa-list", "grasp-kappa-object", "kappa_m-null",
        "kappa_s-list", "kappa_b-object", "delta-under-min-step",
        "delta-above-half-turn", "grasp-n_cell-4", "springs-typo-and-kind",
        "kappa_m-beside-kappa", "springs-typo-alone", "psi_range-text",
        "L1-bool", "kappa-bool", "rho_m-text", "drop-g-bool",
        "program-bool", "geometry-unknown", "rest_deg-unknown",
        "output-unknown", "top-level-unknown", "state-unknown",
        "n_samples-1e11", "n_h-1e11", "n_cell-4000", "mesh-L-1e200",
        "mesh-L-1e308", "mesh-L2-1e308", "drop-L2-under-one-tooth",
        "landscape-kappa-0", "landscape-rest-only"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, make_cfg):
    # each was an exit-1 traceback (a null count, a spring constant that is
    # not a number, a grasp step under the at-face tolerance, an array too
    # large to allocate, a mesh whose lengths overflow), an exit-0 run
    # writing NaN, a truncated cell count, the prototype drop defaults or a
    # value of the wrong type read as another, a grasp step above a half
    # turn, always cut at the face, a key that was silently ignored, or a
    # grasp that did not end; a grasp on fewer than five cells passed
    # validate and then raised; a drop map whose boundary creases hold no
    # complete comb tooth read "grasp" everywhere on a flat landscape, and
    # a landscape with every kappa 0 was reported monostable with no extremum
    cfg = make_cfg(tmp_path)
    out = tmp_path / "o"
    for cmd in ("validate", command):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"]["kind"] == "config"
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config,over,at_cap", [
    ("multigrasp", "geometry.n_cell", MAX_CELLS),
    ("uniform_path", "task.n_samples", MAX_POINTS // 10),
    ("landscape", "task.n_samples", MAX_POINTS // 10),
    ("drop_map", "task.n_h", MAX_POINTS),
    ("multigrasp", "task.max_steps", MAX_GRASP_WORK // 10),
], ids=["n_cell", "path-n_samples", "landscape-n_samples", "n_h", "grasp-work"])
def test_size_caps_are_inclusive(tmp_path, capsys, config, over, at_cap):
    # at n_cell 5: n_samples x 10 points, one rest angle beside n_h, one
    # grasp program beside max_steps
    fixed = {"drop_map": ["task.n_rest=1"], "multigrasp": ["task.programs=[[1]]"]
             }.get(config, []) if over != "geometry.n_cell" else []
    command = json.loads((CONFIGS / f"{config}.json").read_text())["task"]["name"]
    ok = _stored(config, *fixed, f"{over}={at_cap}")(tmp_path)
    assert main(["validate", "--config", str(ok)]) == 0
    capsys.readouterr()
    bad = _stored(config, *fixed, f"{over}={at_cap + 1}")(tmp_path)
    out = tmp_path / "o"
    for cmd in ("validate", command):
        assert main([cmd, "--config", str(bad), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]["kind"] == "config"
    assert not out.exists()


def test_numerical_failure_flags_partial_manifest(tmp_path, monkeypatch):
    from leafout import cli as cli_mod
    from leafout.explore import StepFailure

    def boom(*a, **kw):
        raise StepFailure("synthetic non-convergence")

    monkeypatch.setattr(cli_mod, "run_programs", boom)
    cfg = write_cfg(tmp_path, {"name": "multi-grasp", "programs": [[1, 2]]},
                    springs=BASE["springs"])
    out = tmp_path / "o"
    rc = main(["multi-grasp", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert "synthetic non-convergence" in manifest["error"]


def test_failing_program_keeps_earlier_outputs(tmp_path, monkeypatch):
    # 2 rad steps on 8 cells: units 1-3 cannot close its first step inside
    # the boxes, and with no halved retries it gives up at once
    from leafout import explore
    monkeypatch.setattr(explore, "MAX_HALVINGS", 0)
    cfg = write_cfg(tmp_path, {"name": "multi-grasp",
                               "programs": [[1, 2], [1, 3], [1, 2, 3]],
                               "delta_rho_c_deg": float(np.degrees(2.0)),
                               "max_steps": 5},
                    springs=BASE["springs"],
                    geometry={"n_cell": 8, "L1": 70.0, "L2": 30.0})
    out = tmp_path / "o"
    rc = main(["multi-grasp", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert "units-1-3" in manifest["error"]
    assert manifest["outputs"] == ["trace_units-1-2.csv"]
    assert list(manifest["terminations"]) == ["units-1-2"]
    assert (out / "trace_units-1-2.csv").exists()
    assert not (out / "trace_units-1-3.csv").exists()
    assert not (out / "trace_units-1-2-3.csv").exists()
    assert not (out / "multigrasp_bundle.json").exists()


def test_set_override_and_env_outdir(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, {"name": "uniform-path",
                               "psi_range_deg": [-20.0, 20.0],
                               "n_samples": 21})
    data = json.loads(cfg.read_text())
    del data["output"]
    cfg.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LEAFOUT_OUTDIR", "envdir")
    assert main(["uniform-path", "--config", str(cfg),
                 "--set", "task.n_samples=11"]) == 0
    rows = (tmp_path / "envdir" / "uniform_path.csv").read_text().splitlines()
    assert len(rows) == 1 + 11


@pytest.mark.parametrize("case", ["existing-file", "under-a-file", "unwritable"])
def test_output_path_that_cannot_be_written_is_config_error(tmp_path, capsys,
                                                            monkeypatch, case):
    # an existing file was a FileExistsError traceback (exit 1)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = {"existing-file": blocker, "under-a-file": blocker / "o",
           "unwritable": tmp_path / "o"}[case]
    if case == "unwritable":
        # permission bits do not bind every user, so the check is faked
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    cfg = write_cfg(tmp_path, {"name": "uniform-path", "n_samples": 11})
    assert main(["uniform-path", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and str(out) in err["message"]
    assert blocker.read_text() == "keep"
    assert not (out / "uniform_path.csv").exists()


@pytest.mark.parametrize("taken", ["uniform_path.csv", "manifest.json"])
def test_output_that_cannot_be_written_exits_3(tmp_path, capsys, taken):
    # a directory in an output's place was an IsADirectoryError traceback
    # (exit 1) with no manifest
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    assert main(["uniform-path", "--config", str(CONFIGS / "uniform_path.json"),
                 "--out", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)["error"]
    assert err["kind"] == "output" and str(out / taken) in err["message"]
    if taken == "manifest.json":
        assert (out / "uniform_path.json").is_file()
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "partial" and manifest["error"] == err["message"]
        assert manifest["outputs"] == []


def test_unknown_task_key_is_config_error(tmp_path, capsys):
    # a misspelt key used to be ignored: n_sample=3 wrote the default 721 rows
    cfg = CONFIGS / "uniform_path.json"
    out = tmp_path / "o"
    for cmd in ("validate", "uniform-path"):
        assert main([cmd, "--config", str(cfg), "--out", str(out),
                     "--set", "task.n_sample=3"]) == 2
        msg = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "n_sample" in msg
    assert not out.exists()


def test_unknown_drop_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**DROP, "drop": {"h_mm": 360.0, "mass_g": 22.3}})
    out = tmp_path / "o"
    for cmd in ("validate", "drop-test"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        msg = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "mass_g" in msg
    assert not out.exists()


@pytest.mark.parametrize("config,override", [
    ("landscape", "springs.kappa=1e308"),
    ("ratio_surface", "task.grid_step_deg=1e-300"),
])
def test_overflow_is_one_config_error_line(tmp_path, config, override):
    # the stiffness overflowed the energies to inf and exited 0 with
    # "multistable" after numpy warnings; the tiny grid step warned first
    cfg = CONFIGS / f"{config}.json"
    command = json.loads(cfg.read_text())["task"]["name"]
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    for cmd in ("validate", command):
        proc = subprocess.run(
            [sys.executable, "-m", "leafout.cli", cmd, "--config", str(cfg),
             "--out", str(out), "--set", override],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["kind"] == "config"
        assert proc.stdout == ""
    assert not out.exists()


def _schema_keys(tables):
    """Every key of every table in SCHEMA, unions of tables included."""
    for key, value in tables.items():
        if isinstance(value, dict):
            yield from _schema_keys(value)
        else:
            yield key


def test_readme_names_every_config_key():
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    keys = set(_schema_keys(SCHEMA))
    assert len(keys) > 40
    assert sorted(k for k in keys if f"`{k}`" not in section) == []
