"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -v or
-s to see them); assertions carry the tolerances.
"""
import json
import time

import numpy as np
import pytest

import leafout as lf
from leafout.cli import main as cli_main
from leafout.explore import StepFailure, trace_paths
from leafout.kinematics import _closure
from oracles import (chain_closure_norm, fd_constraint_matrix, sampled_extrema,
                     sub_angle_oracle)

GEOM = lf.LeafOutGeometry(5, 70.0, 30.0)
CTRL_ALL = np.tile([True, False], 5)      # every main crease


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def grasp_paths():
    programs = [lf.GraspProgram(units) for units in
                ((1, 2), (1, 3), (1, 2, 3), (1, 2, 3, 4, 5))]
    return {prog.controlled_units: path
            for prog, path in zip(programs, lf.run_programs(GEOM, programs))}


@pytest.fixture(scope="module")
def traced_uniform():
    """Projection-traced uniform halves over psi in [-50, 50] deg at 0.5
    deg sampling, driven by the closed-form main angles toward flat."""
    halves = {}
    for sgn in (-1, +1):
        psis = sgn * np.radians(np.arange(50.0, -0.001, -0.5))
        psis[-1] = 0.0
        states = [lf.uniform_state(GEOM, psis[0])]
        for k in range(1, len(psis)):
            target = lf.uniform_motion(GEOM.alpha, psis[k])[0][0]
            d0 = np.where(CTRL_ALL, target - states[-1][0], 0.0)
            path = trace_paths(GEOM, [states[-1]], [d0], [CTRL_ALL],
                               np.radians(0.25), 1)[0]
            states.append(path.rho_o[-1])
        halves[sgn] = (psis, states)
    return halves


def test_criterion_01_closure_validity(grasp_paths):
    t0 = time.time()
    states = []
    path = lf.uniform_path(GEOM, (np.radians(-88), np.radians(52)), 500)
    states += list(path.rho_o)
    for grasp in grasp_paths.values():
        states += list(grasp.rho_o)
    assert len(states) >= 1000
    worst = max(chain_closure_norm(GEOM.alpha, rho) for rho in states[:2000])
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"{len(states)} states closed to {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_cross_form_consistency(traced_uniform):
    worst = 0.0
    for sgn, (psis, states) in traced_uniform.items():
        for psi, st_ in zip(psis, states):
            ref = (lf.uniform_state(GEOM, psi) if abs(psi) > 1e-12
                   else np.zeros(10))
            worst = max(worst, float(np.max(np.abs(st_ - ref))))
    assert worst < 1e-6
    _report(2, f"closed form vs traced path agree to {worst:.2e} rad")


def test_criterion_03_bistable_landscape_structure():
    springs = lf.SpringModel.uniform(GEOM, 1.0, np.radians(120.0),
                                     np.radians(-30.0))
    curve = lf.landscape_over_psi(GEOM, springs,
                                  (np.radians(-89.9), np.radians(53.9)))
    mins, maxs = sampled_extrema(curve.energy)
    report = lf.characterize_bistability(curve)
    assert len(mins) == 2 and len(maxs) == 1
    assert report.stability_class == "bistable"
    assert abs(np.degrees(report.psi_barrier)) < 0.25
    _report(3, f"two minima at {np.degrees(report.psi_open):.1f} and "
               f"{np.degrees(report.psi_closed):.1f} deg, peak at "
               f"{np.degrees(report.psi_barrier):.3f} deg")


def test_criterion_04_monostable_flat_rest():
    springs = lf.SpringModel.uniform(GEOM, 1.0, 0.0, 0.0)
    curve = lf.landscape_over_psi(GEOM, springs,
                                  (np.radians(-89.9), np.radians(53.9)))
    mins, _ = sampled_extrema(curve.energy)
    report = lf.characterize_bistability(curve)
    assert report.stability_class == "monostable"
    assert len(mins) == 1
    psi_min, _ = report.minima[0]
    assert abs(np.degrees(psi_min)) < 0.25
    _report(4, f"single minimum at {np.degrees(psi_min):.3f} deg")


def test_criterion_05_ratio_surface_contour():
    t0 = time.time()
    step = np.radians(2.0)
    gm = np.arange(np.radians(2.0), np.radians(178.0) + 1e-9, step)
    gb = np.arange(np.radians(-178.0), np.radians(-2.0) + 1e-9, step)
    surf = lf.ratio_surface(GEOM, gm, gb)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    xi = surf.xi
    assert np.isfinite(xi).any()
    # exactly one connected zero contour
    assert len(surf.contours) == 1
    line = surf.contours[0]
    assert len(line) > 10
    # every sign-change edge between defined cells is crossed by it
    pts = {(round(float(x), 9), round(float(y), 9)) for x, y in line}

    def crossing(xa, ya, va, xb, yb, vb):
        t = va / (va - vb)
        return (round(float(xa + t * (xb - xa)), 9),
                round(float(ya + t * (yb - ya)), 9))

    missing = 0
    n_edges = 0
    for i in range(len(gm)):
        for j in range(len(gb) - 1):
            a, b = xi[i, j], xi[i, j + 1]
            if np.isfinite(a) and np.isfinite(b) and a * b < 0:
                n_edges += 1
                if crossing(gm[i], gb[j], a, gm[i], gb[j + 1], b) not in pts:
                    missing += 1
    for i in range(len(gm) - 1):
        for j in range(len(gb)):
            a, b = xi[i, j], xi[i + 1, j]
            if np.isfinite(a) and np.isfinite(b) and a * b < 0:
                n_edges += 1
                if crossing(gm[i], gb[j], a, gm[i + 1], gb[j], b) not in pts:
                    missing += 1
    assert n_edges > 0
    assert missing == 0
    _report(5, f"single contour with {len(line)} points separating "
               f"{n_edges} sign-change edges in {elapsed:.1f}s")


def test_criterion_06_jacobian_against_finite_differences():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    count = 0
    while count < 100:
        psi = rng.uniform(np.radians(-70), np.radians(45))
        if abs(psi) < np.radians(2):
            continue
        state = lf.uniform_state(GEOM, psi)
        d0 = rng.uniform(-0.02, 0.02, size=10)
        # two creases driven, the rest following: a non-uniform state
        ctrl = np.zeros(10, dtype=bool)
        ctrl[rng.choice(10, 2, replace=False)] = True
        try:
            path = trace_paths(GEOM, [state], [d0], [ctrl], np.radians(0.5), 1)[0]
        except StepFailure:
            continue
        if path.termination != "max-steps":     # locked
            continue
        rho = path.rho_o[-1]
        C = _closure(GEOM, rho[None])[1][0]
        Cfd = fd_constraint_matrix(GEOM.alpha, rho, h=1e-7)
        worst = max(worst, float(np.max(np.abs(C - Cfd))))
        count += 1
    assert worst < 1e-5
    _report(6, f"analytic vs FD constraint matrix: {worst:.2e} over 100 states")


def test_criterion_07_unit_cell_oracle():
    grid = np.linspace(0.0, np.pi, 1000)
    vals = lf.sub_angle_from_main(GEOM.alpha, grid)
    worst = 0.0
    for rm, rs in zip(grid, vals):
        worst = max(worst, abs(rs - sub_angle_oracle(GEOM.alpha, rm)))
    assert worst < 1e-9
    _report(7, f"sub-angle solver vs brute-force oracle: {worst:.2e} rad")


def test_criterion_08_drop_test_map():
    scen = lf.DropScenario(m_ball=22.3e-3, R_ball=35e-3, h=0.360,
                           rest_angle=np.radians(71.8))
    tmap = lf.trigger_map(GEOM, scen, (0.05, 0.80),
                          (np.radians(55.0), np.radians(95.0)),
                          n_h=31, n_rest=9)
    assert np.all(np.diff(tmap.E_gap, axis=1) > 0)
    # threshold exists inside the swept height range at the prototype rest
    i = int(np.argmin(np.abs(tmap.rest_angles - np.radians(71.8))))
    assert tmap.heights[0] < tmap.threshold_heights[i] < tmap.heights[-1]
    one = lf.trigger_map(GEOM, scen, (0.36, 0.36),
                         (np.radians(71.8), np.radians(71.8)), n_h=1, n_rest=1)
    h_star = one.threshold_heights[0]
    assert 0.360 > h_star
    assert one.outcomes[0, 0] == "grasp"
    _report(8, f"E_gap monotone, threshold at {1000 * h_star:.0f} mm, "
               "360 mm on the trigger side")


def test_criterion_09_multigrasp_distinctness(grasp_paths):
    x12, y12, _ = lf.config_space(grasp_paths[(1, 2)])
    x13, y13, _ = lf.config_space(grasp_paths[(1, 3)])
    d = max(abs(x12[-1] - x13[-1]), abs(y12[-1] - y13[-1]))
    assert d > np.radians(5.0)
    x, y, _ = lf.config_space(grasp_paths[(1, 2, 3, 4, 5)])
    pinned = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    assert pinned < 1e-8
    _report(9, f"pair programs differ by {np.degrees(d):.1f} deg; uniform "
               f"drive pinned to {pinned:.1e} rad")


def test_criterion_10_energy_minima_along_programs(grasp_paths):
    springs = lf.SpringModel.uniform(GEOM, 1.0, np.radians(60.0),
                                     np.radians(-120.0))
    argmins = {}
    for units in ((1, 2, 3, 4, 5), (1, 2), (1, 3), (1, 2, 3)):
        E = lf.path_energies(GEOM, springs, grasp_paths[units].rho_o)
        z = lf.config_space(grasp_paths[units])[2]
        k = int(np.argmin(E))
        assert 0 < k < len(E) - 1
        argmins[units] = np.degrees(z[k])
    _report(10, "interior energy minima at controlled angles "
                + ", ".join(f"{k}: {v:.1f} deg" for k, v in argmins.items()))


def test_criterion_11_stiffness_scaling_invariance():
    springs = lf.SpringModel.uniform(GEOM, 1.0, np.radians(60.0),
                                     np.radians(-120.0))
    rng = (np.radians(-89.9), np.radians(53.9))
    r1 = lf.characterize_bistability(lf.landscape_over_psi(GEOM, springs, rng))
    r10 = lf.characterize_bistability(
        lf.landscape_over_psi(GEOM, lf.SpringModel(10.0 * springs.kappa,
                                                   springs.rest_angle), rng))
    assert abs(r1.psi_open - r10.psi_open) < 1e-10
    assert abs(r1.psi_closed - r10.psi_closed) < 1e-10
    assert abs(r1.psi_barrier - r10.psi_barrier) < 1e-10
    assert abs(r1.ratio_xi - r10.ratio_xi) < 1e-10
    assert abs(r10.delta_E_g - 10.0 * r1.delta_E_g) < 1e-10 * r10.delta_E_g
    assert abs(r10.delta_E_r - 10.0 * r1.delta_E_r) < 1e-10 * r10.delta_E_r
    _report(11, "argmin locations and xi invariant, gaps scale by 10")


def test_criterion_12_determinism(tmp_path):
    configs = {
        "uniform-path": {"name": "uniform-path",
                         "psi_range_deg": [-45.0, 45.0], "n_samples": 91},
        "energy-landscape": {"name": "energy-landscape",
                             "psi_range_deg": [-88.0, 52.0]},
        "multi-grasp": {"name": "multi-grasp", "programs": [[1, 2], [1, 3]],
                        "max_steps": 50},
        "drop-test": {"name": "drop-test",
                      "drop": {"h_mm": 360.0, "rest_angle_deg": 71.8},
                      "h_range_mm": [100.0, 600.0],
                      "rest_range_deg": [60.0, 80.0], "n_h": 5, "n_rest": 3},
        "ratio-surface": {"name": "ratio-surface", "grid_step_deg": 8.0,
                          "rest_main_range_deg": [10.0, 170.0],
                          "rest_boundary_range_deg": [-170.0, -10.0]},
        "export-mesh": {"name": "export-mesh",
                        "state": {"type": "uniform", "psi_deg": -30.0}},
    }
    n_files = 0
    for name, task in configs.items():
        cfg = {
            "geometry": {"n_cell": 5, "L1": 70.0, "L2": 30.0},
            "springs": {"kappa": 1.0,
                        "rest_deg": {"rho_m": 60.0, "rho_b": -120.0}},
            "task": task,
        }
        cfg_file = tmp_path / f"{name}.json"
        cfg_file.write_text(json.dumps(cfg))
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        assert cli_main([name, "--config", str(cfg_file), "--out", str(d1)]) == 0
        assert cli_main([name, "--config", str(cfg_file), "--out", str(d2)]) == 0
        for f1 in sorted(d1.iterdir()):
            f2 = d2 / f1.name
            assert f2.exists()
            assert f1.read_bytes() == f2.read_bytes(), f1.name
            n_files += 1
    assert n_files > 0
    _report(12, f"{n_files} output files byte-identical across reruns")
