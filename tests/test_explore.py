import json
import pathlib

import numpy as np
import pytest

import leafout as lf
from leafout import kinematics
from leafout.explore import NEAR_FLAT_MAIN
from leafout.kinematics import _closure
from oracles import chain_closure_norm, grasp_motion

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def stored_programs():
    """The exploration set of the stored multi-grasp config."""
    task = json.loads((CONFIGS / "multigrasp.json").read_text())["task"]
    return [lf.GraspProgram(tuple(units)) for units in task["programs"]]


PROGRAMS = {
    "uniform": lf.GraspProgram((1, 2, 3, 4, 5)),
    "p12": lf.GraspProgram((1, 2)),
    "p13": lf.GraspProgram((1, 3)),
    "p123": lf.GraspProgram((1, 2, 3)),
}


@pytest.fixture(scope="module")
def traced(geom5):
    return dict(zip(PROGRAMS, lf.run_programs(geom5, list(PROGRAMS.values()))))


def test_start_state_matches_rounded_nominal_pair(geom5):
    start = lf.near_flat_start(geom5)
    assert np.isclose(np.degrees(start[0]), 7.1, atol=1e-12)
    assert np.isclose(np.degrees(start[1]), -3.6, atol=0.05)
    assert chain_closure_norm(geom5.alpha, start) < 1e-10


@pytest.mark.parametrize("n_cell", [3, 5, 8, 12])
def test_near_flat_start_is_exact_uniform_state(n_cell):
    geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
    start = lf.near_flat_start(geom)
    # 7.1 deg up to the rounding of the psi round trip (at most 3 ulp)
    assert np.all(np.abs(start[0::2] - NEAR_FLAT_MAIN) <= 3 * np.spacing(NEAR_FLAT_MAIN))
    assert np.ptp(start[0::2]) == 0.0 and np.ptp(start[1::2]) == 0.0
    assert np.abs(_closure(geom, start[None])[0]).max() < 1e-15


def test_uniform_program_stays_on_axis(traced):
    x, y, _ = lf.config_space(traced["uniform"])
    assert np.max(np.abs(x)) < 1e-8
    assert np.max(np.abs(y)) < 1e-8


def test_pinch_program_shape(traced):
    # two controlled neighbours close together like a pinch: equal
    # controlled angles, mirror symmetry about their bisector
    path = traced["p12"]
    rho = path.rho_o
    assert np.max(np.abs(rho[:, 0] - rho[:, 2])) < 1e-12  # rhoM1 == rhoM2, controlled
    assert np.max(np.abs(rho[:, 4] - rho[:, 8])) < 1e-6   # rhoM3 == rhoM5, mirror pair
    mid = len(path) // 2
    assert rho[mid, 0] - rho[mid, 6] > np.radians(2.0)    # others lag
    # mirror symmetry pins the second trace coordinate
    assert np.max(np.abs(lf.config_space(path)[1])) < 1e-8


def test_alligator_program_shape(traced):
    path = traced["p123"]
    rho = path.rho_o
    # symmetric about unit 2: units 1 and 3 move together, 4 and 5 together
    assert np.max(np.abs(rho[:, 0] - rho[:, 4])) < 1e-12
    assert np.max(np.abs(rho[:, 6] - rho[:, 8])) < 1e-6
    mid = len(path) // 2
    assert rho[mid, 0] > rho[mid, 6]


def test_distinct_pair_programs(traced):
    (x12, y12, _), (x13, y13, _) = (lf.config_space(traced[p]) for p in ("p12", "p13"))
    d = max(abs(x12[-1] - x13[-1]), abs(y12[-1] - y13[-1]))
    assert d > np.radians(5.0)


def test_interior_energy_minima(traced, geom5, springs_grasp):
    for name in ("uniform", "p12", "p13", "p123"):
        E = lf.path_energies(geom5, springs_grasp, traced[name].rho_o)
        k = int(np.argmin(E))
        assert 0 < k < len(E) - 1, f"{name} minimum not interior"


def test_rest_at_start_minimizes_at_start(geom5):
    start = lf.near_flat_start(geom5)
    springs = lf.SpringModel.uniform(geom5, 1.0, start[0], start[1])
    (path,) = lf.run_programs(geom5, [lf.GraspProgram((1, 2), max_steps=40)])
    assert int(np.argmin(lf.path_energies(geom5, springs, path.rho_o))) == 0


def test_controlled_increments_exact(traced, geom5):
    prog = PROGRAMS["p12"]
    rho = traced["p12"].rho_o
    steps = np.diff(rho[:, 0])
    # every successful step advances the controlled angle by delta_rho_c
    # (the final step may be clipped onto the box face)
    assert np.allclose(steps[:-1], prog.delta_rho_c, atol=1e-12)
    assert steps[-1] <= prog.delta_rho_c + 1e-12


def test_cumulative_controlled_parameter(traced):
    # z is the running controlled angle: delta_rho_c per full step
    z = lf.config_space(traced["p13"])[2]
    d = PROGRAMS["p13"].delta_rho_c
    assert np.allclose(np.diff(z)[:-1], d, atol=1e-12)
    assert 0 < np.diff(z)[-1] <= d + 1e-12


def test_all_states_closed_and_boxed(traced, geom5):
    from leafout.kinematics import angle_bounds
    lo, hi = angle_bounds(geom5)
    for path in traced.values():
        for rho in path.rho_o[:: max(1, len(path) // 25)]:
            assert chain_closure_norm(geom5.alpha, rho) < 1e-10
            assert np.all(rho >= lo - 1e-9)
            assert np.all(rho <= hi + 1e-9)


def test_reflection_symmetry_between_mirror_programs(geom5):
    # the reflection fixing unit 1 maps the {1,2} drive onto {1,5}
    r12, r15 = lf.run_programs(geom5, [lf.GraspProgram((1, 2), max_steps=60),
                                       lf.GraspProgram((1, 5), max_steps=60)])
    a12, a15 = r12.rho_o, r15.rho_o
    assert a12.shape == a15.shape
    # units permute 1->1, 2->5, 3->4, 4->3, 5->2
    perm_m = [0, 8, 6, 4, 2]
    # boundary creases permute B1->B5, B2->B4, B3->B3, B4->B2, B5->B1
    perm_b = [9, 7, 5, 3, 1]
    assert np.max(np.abs(a15[:, 0::2] - a12[:, perm_m])) < 1e-7
    assert np.max(np.abs(a15[:, 1::2] - a12[:, perm_b])) < 1e-7
    # configuration-space images swap and negate the two coordinates
    (x12, y12, _), (x15, y15, _) = lf.config_space(r12), lf.config_space(r15)
    assert np.max(np.abs(x15 + y12)) < 1e-7
    assert np.max(np.abs(y15 + x12)) < 1e-7


def test_default_program_set_distinct(geom5):
    programs = stored_programs()
    assert len(programs) == 6
    coords = [lf.config_space(path) for path in lf.run_programs(geom5, programs)]
    for i, (xi, yi, _) in enumerate(coords):
        for xj, yj, _ in coords[i + 1:]:
            n = min(len(xi), len(xj))
            d = max(np.max(np.abs(xi[:n] - xj[:n])), np.max(np.abs(yi[:n] - yj[:n])))
            assert d > np.radians(5.0)


def test_batch_matches_single_programs(geom5, springs_grasp):
    # lockstep stepping leaves every program's trace bit for bit as alone
    programs = stored_programs()
    batch = lf.run_programs(geom5, programs)
    for program, together in zip(programs, batch):
        (alone,) = lf.run_programs(geom5, [program])
        assert np.array_equal(alone.rho_o, together.rho_o)
        assert np.array_equal(alone.rho_s, together.rho_s)
        assert np.array_equal(alone.params, together.params)
        assert np.array_equal(lf.path_energies(geom5, springs_grasp, alone.rho_o),
                              lf.path_energies(geom5, springs_grasp, together.rho_o))
        assert alone.termination == together.termination
        assert np.array_equal(alone.frozen, together.frozen)


def test_default_programs_take_few_kernel_calls(geom5, monkeypatch):
    # a Heun start and an Adams-Bashforth predictor of up to fifth order
    # keep substeps of four drive increments accurate, so the 346 passes on
    # the six stored programs take 363 Newton corrections (354 substeps and
    # 9 after clamps; 684 with the two-step predictor at one increment),
    # each of at least one iteration, and 10 Heun restarts: 765 closures
    # and 756 solves, where the two-step predictor took 1406 and 1397 and
    # the Euler predictor 1827 and 1817, for the same 347 rows each; 32
    # solves have a row that takes the SVD.  The 364 tangent solves are one
    # per pass, one per Heun restart and one per extra substep (8), so the
    # passes that skip their masked bookkeeping move no kernel work
    calls = dict.fromkeys(("_project", "_newton", "_tangent", "_closure",
                           "_masked_solve", "_svd_solve"), 0)
    for name in calls:
        def counting(*args, kernel=getattr(kinematics, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(kinematics, name, counting)
    paths = lf.run_programs(geom5, stored_programs())
    assert [len(path) for path in paths] == [347] * 6
    assert calls == {"_project": 346, "_newton": 363, "_tangent": 364, "_closure": 765,
                     "_masked_solve": 756, "_svd_solve": 32}


@pytest.mark.parametrize("units", [(1,), (1, 2), (1, 3)])
def test_grasp_paths_track_the_continuous_motion(geom5, units):
    # the reference is the oracle's motion at one and two Runge-Kutta steps
    # per traced step, Richardson-extrapolated, and their difference bounds
    # its own error; the tracer's low-order start (Heun, then the two-step
    # rule) dominates its error, so halving the step cuts it at least
    # fourfold (the two-step predictor erred by 2.4e-5, the Euler one by
    # 1.9e-3)
    controlled = [2 * (u - 1) for u in units]
    worst = []
    for step_deg in (0.5, 0.25):
        (path,) = lf.run_programs(geom5, [lf.GraspProgram(units, np.radians(step_deg),
                                                          max_steps=1000)])
        assert path.termination == "controlled-at-boundary"
        coarse, fine = (grasp_motion(geom5.alpha, path.rho_o[0], controlled,
                                     path.params, substeps) for substeps in (1, 2))
        assert np.max(np.abs(fine - coarse)) < 1e-8
        reference = fine + (fine - coarse) / 15
        worst.append(np.max(np.abs(path.rho_o - reference)))
    assert worst[0] < 1e-5
    assert worst[0] > 3 * worst[1]


@pytest.mark.parametrize("n_cell", [5, 6, 8])
def test_program_of_every_unit_folds_uniformly(n_cell):
    # the program that drives every unit (units-1-2-3-4-5 at five cells,
    # the one default program the oracle test above skips) traces the
    # exact uniform motion: every unit agrees with unit 1, whose boundary
    # angle is -2 psi of its main angle
    geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
    program = lf.GraspProgram(range(1, n_cell + 1))
    if n_cell == 5:
        assert program.label() in [p.label() for p in stored_programs()]
    for step_deg in (0.5, 0.25):
        (path,) = lf.run_programs(geom, [lf.GraspProgram(
            program.controlled_units, np.radians(step_deg), max_steps=1000)])
        assert path.termination == "controlled-at-boundary"
        rho = path.rho_o
        psi = lf.psi_from_main(geom.alpha, rho[:, 0])
        assert np.max(np.abs(rho[:, 1] + 2 * psi)) < 1e-12
        units = rho.reshape(len(rho), n_cell, 2)
        assert np.max(np.abs(units - units[:, :1])) < 1e-12


def test_program_validation(geom5):
    with pytest.raises(ValueError, match=r"len\(controlled_units\) must be an integer in \[1, 2\*\*63\)"):
        lf.GraspProgram(())
    # the step lies in [MIN_STEP, pi]
    for bad in (0.0, 1e-15, 0.5e-8, np.nextafter(np.pi, 4.0), float("nan")):
        with pytest.raises(ValueError,
                           match=r"delta_rho_c must be a number in \[1e-08, 3.14159\], got"):
            lf.GraspProgram((1,), delta_rho_c=bad)
    for good in (1e-8, np.pi):
        assert lf.GraspProgram((1,), delta_rho_c=good).delta_rho_c == good
    with pytest.raises(ValueError, match="controlled_units"):
        lf.run_programs(geom5, [lf.GraspProgram((6,))])


@pytest.fixture(scope="module")
def geom3():
    return lf.LeafOutGeometry(3, 70.0, 30.0)


@pytest.fixture(scope="module")
def three_cell_path(geom3):
    (path,) = lf.run_programs(geom3, [lf.GraspProgram((1, 2), max_steps=20)])
    return path


def test_three_cell_program_traces(geom3, three_cell_path):
    # stepping needs no fifth unit; only the configuration-space coordinates do
    assert three_cell_path.rho_o.shape == (21, 6)
    assert chain_closure_norm(geom3.alpha, three_cell_path.rho_o[-1]) < 1e-10


def test_config_space_refuses_fewer_than_five_cells(three_cell_path):
    # it used to index past the last column (IndexError)
    with pytest.raises(ValueError, match="n_cell >= 5, got n_cell 3"):
        lf.config_space(three_cell_path)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "400"])
def test_program_rejects_bad_max_steps(bad):
    # max_steps 0 or -3 used to give a one-row path ending with max-steps
    with pytest.raises(ValueError, match="max_steps"):
        lf.GraspProgram((1,), max_steps=bad)
    assert lf.GraspProgram((1,), max_steps=np.int64(1)).max_steps == 1


def test_termination_reasons_recorded(traced):
    for path in traced.values():
        assert path.termination in ("controlled-at-boundary", "max-steps", "locked")
        assert path.frozen.shape == path.rho_o.shape
