import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leafout as lf
import leafout.energy as energy_mod
from leafout.energy import ConfigurationError, landscape_extrema, zero_contours
from leafout.kinematics import sub_angles
from leafout import sub_angle_from_main
from oracles import (dense_landscape_xi, dense_uniform_path, direct_energy,
                     sampled_extrema, zero_contours_loop)


def scaled(springs, factor):
    """The spring model with every stiffness times ``factor``."""
    return lf.SpringModel(factor * springs.kappa, springs.rest_angle)


def crease_angles_of_state(rho_o, rho_s):
    out = []
    for rm, rs, rb in zip(rho_o[0::2], rho_s, rho_o[1::2]):
        out += [rm, rs, rs, rb]
    return out


def test_rest_state_has_zero_energy(geom5):
    psi = np.radians(-35)
    st_ = lf.uniform_state(geom5, psi)
    springs = lf.SpringModel.uniform(geom5, 2.5, st_[0], st_[1])
    assert lf.path_energies(geom5, springs, st_) < 1e-24


def test_flat_state_energy_matches_direct_summation(geom5, springs_bistable):
    got = lf.path_energies(geom5, springs_bistable, np.zeros(10))
    want = direct_energy(springs_bistable.kappa, springs_bistable.rest_angle,
                         [0.0] * 20)
    assert np.isclose(got, want, rtol=1e-14)
    # and against a hand-rolled sum over the three crease families
    rbs = sub_angle_from_main(geom5.alpha, np.radians(120.0))
    hand = 0.5 * (5 * np.radians(120.0) ** 2 + 10 * rbs ** 2
                  + 5 * np.radians(-30.0) ** 2)
    assert np.isclose(got, hand, rtol=1e-12)


def test_energy_linear_in_kappa(geom5, springs_bistable, uniform_minus30):
    e1 = lf.path_energies(geom5, springs_bistable, uniform_minus30)
    e2 = lf.path_energies(geom5, scaled(springs_bistable, 2.0), uniform_minus30)
    assert np.isclose(e2, 2.0 * e1, rtol=1e-14)


def test_energy_of_general_state_matches_oracle(geom5, springs_grasp):
    (path,) = lf.run_programs(geom5, [lf.GraspProgram((1, 3), max_steps=40)])
    got = lf.path_energies(geom5, springs_grasp, path.rho_o[-1])
    want = direct_energy(springs_grasp.kappa, springs_grasp.rest_angle,
                         crease_angles_of_state(path.rho_o[-1], path.rho_s[-1]))
    assert np.isclose(got, want, rtol=1e-12)
    # a state and the path row it came from give the same energy
    assert lf.path_energies(geom5, springs_grasp, path.rho_o)[-1] == got


def test_path_energies_checks_spring_size(geom4, springs_grasp):
    path = lf.uniform_path(geom4, (-0.5, 0.5), 5)
    for rho_o in (path.rho_o, lf.uniform_state(geom4, path.params[0])):
        with pytest.raises(ConfigurationError, match="does not match"):
            lf.path_energies(geom4, springs_grasp, rho_o)


def test_path_energies_refuses_rows_by_name(geom5, springs_grasp, uniform_minus30):
    # rows of the wrong width would reach numpy's broadcasting, and angles
    # off their boxes would give energies of impossible sub angles
    for rows in (np.zeros(8), np.zeros((3, 16)), np.float64(0.1)):
        with pytest.raises(ValueError, match=r"rho_o must be a \(\.\.\., 10\) array of numbers, got"):
            lf.path_energies(geom5, springs_grasp, rows)
    for k, value in ((0, -1e-3), (3, 0.5), (4, np.nan)):
        rows = np.tile(uniform_minus30, (2, 1))
        rows[1, k] = value
        with pytest.raises(ValueError, match=rf"rho_o\[1, {k}\] must be a number in"):
            lf.path_energies(geom5, springs_grasp, rows)


def test_path_energies_of_any_stack_of_rows(geom5, springs_grasp):
    path = lf.uniform_path(geom5, (np.radians(-60), np.radians(40)), 6)
    E = lf.path_energies(geom5, springs_grasp, path.rho_o)
    assert lf.path_energies(geom5, springs_grasp, np.zeros((0, 10))).shape == (0,)
    assert np.array_equal(lf.path_energies(geom5, springs_grasp,
                                           path.rho_o.reshape(2, 3, 10)), E.reshape(2, 3))


def test_landscape_bistable_structure(geom5, springs_bistable):
    curve = lf.landscape_over_psi(geom5, springs_bistable,
                                  (np.radians(-89), np.radians(53)))
    report = lf.characterize_bistability(curve)
    assert report.stability_class == "bistable"
    assert abs(np.degrees(report.psi_barrier)) < 0.25
    assert report.psi_open < report.psi_barrier < report.psi_closed
    assert report.delta_E_g > 0 and report.delta_E_r > 0
    # the flat-state peak value is the all-rest-angle energy
    flat_E = lf.path_energies(geom5, springs_bistable, np.zeros(10))
    assert np.isclose(report.E_barrier, flat_E, rtol=1e-3)


def test_landscape_monostable_flat_rest(geom5):
    springs = lf.SpringModel.uniform(geom5, 1.0, 0.0, 0.0)
    curve = lf.landscape_over_psi(geom5, springs,
                                  (np.radians(-89), np.radians(53)))
    report = lf.characterize_bistability(curve)
    assert report.stability_class == "monostable"
    psi_min, _ = report.minima[0]
    assert abs(np.degrees(psi_min)) < 0.25
    assert report.delta_E_g is None


def test_rest_on_path_gives_global_minimum_there(geom5):
    psi_star = np.radians(20.0)
    st_ = lf.uniform_state(geom5, psi_star)
    springs = lf.SpringModel.uniform(geom5, 1.0, st_[0], st_[1])
    curve = lf.landscape_over_psi(geom5, springs,
                                  (np.radians(-89), np.radians(53)))
    psi_min, e_min = min(lf.characterize_bistability(curve).minima,
                         key=lambda m: m[1])
    # the lowest root of the exact slope is the rest state itself
    assert abs(psi_min - psi_star) < 1e-12
    assert e_min < 1e-24
    # and the sampled curve has a minimum at its lowest node, next to it
    i = int(np.argmin(curve.energy))
    assert i in sampled_extrema(curve.energy)[0]
    assert abs(curve.psi[i] - psi_star) < np.radians(0.25)


def test_grasp_rest_angles_give_positive_xi(geom5, springs_grasp):
    curve = lf.landscape_over_psi(geom5, springs_grasp,
                                  (np.radians(-89), np.radians(53)))
    report = lf.characterize_bistability(curve)
    assert report.stability_class == "bistable"
    assert report.delta_E_g > report.delta_E_r
    assert report.ratio_xi > 0


def synthetic(slope, energy, psi, n=1):
    """``landscape_extrema`` of synthetic landscapes given as functions of
    (row, psi)."""
    return landscape_extrema(psi, n,
                             lambda r, x: slope(*np.broadcast_arrays(r, x)),
                             lambda r, x: energy(*np.broadcast_arrays(r, x)))


def test_xi_zero_for_synthetic_symmetric_curve():
    ext = synthetic(lambda r, x: 4 * x * (x ** 2 - 0.25),
                    lambda r, x: (x ** 2 - 0.25) ** 2,
                    np.linspace(-1.0, 1.0, 201))     # symmetric double well
    assert ext.stability_class[0] == "bistable"
    assert np.allclose(ext.psi, [-0.5, 0.0, 0.5], rtol=0, atol=1e-15)
    assert ext.is_min.tolist() == [True, False, True]
    assert abs(ext.ratio_xi[0]) < 1e-12


def test_multistable_curve_reported():
    ext = synthetic(lambda r, x: -4 * np.pi * np.sin(4 * np.pi * x) + 0.05,
                    lambda r, x: np.cos(4 * np.pi * x) + 0.05 * x,
                    np.linspace(-1.0, 1.0, 401))
    assert ext.stability_class[0] == "multistable"
    assert ext.is_min.sum() == 4
    assert np.isnan(ext.ratio_xi[0])


def test_extra_maximum_is_not_bistable():
    # minima at -0.6 and 0.2 with a barrier at -0.2 between them, but a
    # second maximum at 0.6 outside them: the shared rule wants exactly
    # one interior maximum
    ext = synthetic(lambda r, x: -(x ** 2 - 0.36) * (x ** 2 - 0.04),
                    lambda r, x: -(x ** 5 / 5 - 0.4 * x ** 3 / 3 + 0.0144 * x),
                    np.linspace(-1.0, 1.0, 30))
    assert ext.stability_class[0] == "multistable"
    assert ext.is_min.tolist() == [True, False, True, False]
    assert np.allclose(ext.psi, [-0.6, -0.2, 0.2, 0.6], rtol=0, atol=1e-15)
    assert np.isnan(ext.ratio_xi[0])


def test_flat_state_kink_is_exact_on_any_grid():
    # E = psi^2 - |psi| kinks at psi = 0; the grid has no node there, and
    # the slope at -0.0 and 0.0 (sgn from the sign bit) still brackets it
    ext = synthetic(lambda r, x: 2 * x - np.copysign(1.0, x),
                    lambda r, x: x ** 2 - np.abs(x),
                    np.linspace(-1.0, 1.0, 20))
    assert ext.stability_class[0] == "bistable"
    assert ext.psi[1] == 0.0 and ext.energy[1] == 0.0
    assert np.allclose(ext.psi[[0, 2]], [-0.5, 0.5], rtol=0, atol=1e-15)
    assert abs(ext.ratio_xi[0]) < 1e-12


def test_characterize_needs_both_phases(geom5, springs_bistable):
    curve = lf.landscape_over_psi(geom5, springs_bistable,
                                  (np.radians(5), np.radians(50)))
    with pytest.raises(ValueError):
        lf.characterize_bistability(curve)


def test_scaling_invariance(geom5, springs_grasp):
    rng = (np.radians(-89), np.radians(53))
    r1 = lf.characterize_bistability(
        lf.landscape_over_psi(geom5, springs_grasp, rng))
    r10 = lf.characterize_bistability(
        lf.landscape_over_psi(geom5, scaled(springs_grasp, 10.0), rng))
    assert abs(r1.psi_open - r10.psi_open) < 1e-10
    assert abs(r1.psi_closed - r10.psi_closed) < 1e-10
    assert abs(r1.psi_barrier - r10.psi_barrier) < 1e-10
    assert abs(r1.ratio_xi - r10.ratio_xi) < 1e-10
    assert np.isclose(r10.delta_E_g, 10.0 * r1.delta_E_g, rtol=1e-12)
    assert np.isclose(r10.delta_E_r, 10.0 * r1.delta_E_r, rtol=1e-12)


def test_ratio_surface_small_grid(geom5):
    gm = np.radians(np.arange(30.0, 91.0, 10.0))
    gb = np.radians(np.arange(-120.0, -29.0, 10.0))
    surf = lf.ratio_surface(geom5, gm, gb)
    defined = np.isfinite(surf.xi)
    assert defined.sum() > 0.8 * surf.xi.size
    # sign regions follow the gap comparison by definition; spot check one
    i, j = 3, 1              # (60, -110): deep in the positive region
    assert surf.xi[i, j] > 0


@pytest.mark.parametrize("grids, name", [
    (([1.0], [0.5]), "rest_boundary_grid"),     # outside [-pi, 0]
    (([1.0], [-0.5, np.nan]), "rest_boundary_grid"),
    (([np.nan, 1.0], [-0.5]), "rest_main_grid"),
], ids=["boundary-rest-positive", "boundary-rest-nan", "main-rest-nan"])
def test_ratio_surface_rejects_rest_outside_domain(geom5, grids, name):
    # a rest angle SpringModel.per_kind refuses gives no xi, not even NaN
    with pytest.raises(ConfigurationError, match=name):
        lf.ratio_surface(geom5, *grids)


@pytest.mark.parametrize("grids, name", [
    (([], [-0.5]), "rest_main_grid"),
    (([1.0], []), "rest_boundary_grid"),
    (([[1.0]], [-0.5]), "rest_main_grid"),
], ids=["main-empty", "boundary-empty", "main-2d"])
def test_ratio_surface_rejects_empty_grid(geom5, grids, name):
    with pytest.raises(ConfigurationError, match=name):
        lf.ratio_surface(geom5, *grids)


def test_ratio_surface_accepts_domain_ends(geom5):
    surf = lf.ratio_surface(geom5, [0.0, np.pi], [-np.pi, 0.0])
    assert surf.xi.shape == (2, 2)


def test_ratio_surface_diagonal_matches_landscape(geom5):
    vals = np.radians(np.array([40.0, 60.0, 80.0]))
    surf = lf.ratio_surface(geom5, vals, -vals)
    for k, v in enumerate(vals):
        springs = lf.SpringModel.uniform(geom5, 1.0, v, -v)
        rep = lf.characterize_bistability(lf.landscape_over_psi(
            geom5, springs, (np.radians(-89), np.radians(53))))
        assert np.isclose(surf.xi[k, k], rep.ratio_xi, atol=2e-3)


def test_flat_state_barrier_is_exact(geom5):
    # the barrier sits on the exact psi = 0 node; a parabola through it
    # would put the peak off the flat state and overshoot its energy
    springs = lf.SpringModel.uniform(geom5, 1.0, np.radians(2.0),
                                     np.radians(-86.0))
    curve = lf.landscape_over_psi(geom5, springs, (-np.pi, np.pi))
    report = lf.characterize_bistability(curve)
    assert report.stability_class == "bistable"
    assert report.psi_barrier == 0.0
    assert report.E_barrier == curve.energy[curve.psi == 0.0][0]


@pytest.fixture(scope="module")
def dense_path():
    # the motion range clipped 1e-6 rad inside both ends, as the surface is
    return dense_uniform_path(5, -np.pi / 2 + 1e-6, 0.3 * np.pi - 1e-6)


def test_ratio_surface_band_points_match_dense_oracle(geom5, dense_path):
    # two bands of the default 2 deg surface where the open minimum sits
    # within 0.25 deg of psi = -90 deg, inside the first 0.5 deg cell
    gm = np.radians([112.0, 116.0, 120.0, 130.0, 138.0, 146.0])
    gb = np.radians([-170.0, -162.0, -154.0, -132.0, -116.0, -100.0])
    xi = lf.ratio_surface(geom5, gm, gb).xi
    for i, rm in enumerate(gm):
        for j, rb in enumerate(gb):
            bistable, want = dense_landscape_xi(dense_path, 5, rm, rb)
            assert np.isfinite(xi[i, j]) == bistable
            if bistable:
                assert abs(xi[i, j] - want) <= 1e-6
    assert np.all(np.isfinite(np.diag(xi)))


def same_polylines(got, want):
    """Equal polyline lists, point for point to 1e-12 up to direction."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert min(np.max(np.abs(g - w)), np.max(np.abs(g[::-1] - w))) <= 1e-12


def test_zero_contours_match_cell_loop(geom5):
    gm = np.radians(np.arange(2.0, 178.0 + 1e-9, 2.0))
    gb = np.radians(np.arange(-178.0, -2.0 + 1e-9, 2.0))
    xi = lf.ratio_surface(geom5, gm, gb).xi
    same_polylines(zero_contours(gm, gb, xi), zero_contours_loop(gm, gb, xi))
    # a closed ellipse, and a parabola cut by a hole into two open pieces
    gx, gy = np.linspace(-2.0, 2.0, 41), np.linspace(-1.5, 1.5, 31)
    x, y = np.meshgrid(gx, gy, indexing="ij")
    parabola = np.where((np.abs(x) < 0.3) & (y > -0.5), np.nan, y - 0.3 * x ** 2)
    ellipse = x ** 2 + 2 * y ** 2 - 1.05
    for field, pieces in ((ellipse, 1), (parabola + 0.01, 2)):
        got = zero_contours(gx, gy, field)
        same_polylines(got, zero_contours_loop(gx, gy, field))
        assert len(got) == pieces
    assert np.array_equal(zero_contours(gx, gy, ellipse)[0][0],
                          zero_contours(gx, gy, ellipse)[0][-1])


def test_zero_contours_count_zero_as_positive():
    # an ellipse through the grid nodes (+-1, 0) stays one closed loop; the
    # cell loop crossed both edges at a zero corner and broke it in four
    gx, gy = np.linspace(-2.0, 2.0, 41), np.linspace(-1.5, 1.5, 31)
    x, y = np.meshgrid(gx, gy, indexing="ij")
    field = x ** 2 + 2 * y ** 2 - 1.0
    assert np.sum(field == 0.0) == 2
    (loop,) = zero_contours(gx, gy, field)
    assert np.array_equal(loop[0], loop[-1])
    assert np.max(np.abs(loop[:, 0] ** 2 + 2 * loop[:, 1] ** 2 - 1.0)) < 0.05
    assert len(zero_contours_loop(gx, gy, field)) == 4


def test_zero_contours_split_saddles_by_centre():
    # f = x y + c: corners (i, j) and (i+1, j+1) are 1 + c, the others
    # -1 + c; the centre average c decides which pair stays joined
    g = np.array([-1.0, 1.0])
    for c, want in ((0.25, [[(0.25, -1.0), (1.0, -0.25)],
                            [(-0.25, 1.0), (-1.0, 0.25)]]),
                    (-0.25, [[(-0.25, -1.0), (-1.0, -0.25)],
                             [(1.0, 0.25), (0.25, 1.0)]])):
        field = np.outer(g, g) + c
        same_polylines(zero_contours(g, g, field), [np.array(w) for w in want])
        # the cell loop dropped every saddle cell
        assert zero_contours_loop(g, g, field) == []


def test_contour_points_have_balanced_gaps(geom5):
    # on the xi = 0 locus both energy gaps are equal; verify the extracted
    # contour semantically by recomputing landscapes at its points
    gm = np.radians(np.arange(20.0, 141.0, 4.0))
    gb = np.radians(np.arange(-150.0, -19.0, 4.0))
    surf = lf.ratio_surface(geom5, gm, gb)
    assert surf.contours
    line = max(surf.contours, key=len)
    # endpoints can touch the multistable border; check the interior
    interior = line[2:-2]
    assert len(interior) >= 6
    for rm, rb in interior[:: max(1, len(interior) // 6)]:
        springs = lf.SpringModel.uniform(geom5, 1.0, rm, rb)
        rep = lf.characterize_bistability(lf.landscape_over_psi(
            geom5, springs, (np.radians(-89), np.radians(53))))
        assert rep.stability_class == "bistable"
        # interpolation-level agreement with the true zero locus
        assert abs(rep.ratio_xi) < 0.05


def test_ratio_surface_smooth_where_defined(geom5):
    gm = np.radians(np.arange(40.0, 80.1, 2.0))
    gb = np.radians(np.arange(-120.0, -79.9, 2.0))
    surf = lf.ratio_surface(geom5, gm, gb)
    xi = surf.xi
    for d_axis in (0, 1):
        a = np.diff(xi, axis=d_axis)
        finite = np.isfinite(a)
        assert np.all(np.abs(a[finite]) < 0.2)


def test_energy_gradient_chain_rule(geom5, springs_bistable):
    # dE/dpsi from the spring gradient and the path derivatives matches a
    # direct finite difference of the landscape
    psi = np.radians(-30.0)
    h = 1e-5
    n = geom5.n_cell

    def E_at(p):
        st_ = lf.uniform_state(geom5, p)
        return lf.path_energies(geom5, springs_bistable, st_)

    dE_fd = (E_at(psi + h) - E_at(psi - h)) / (2 * h)
    st_ = lf.uniform_state(geom5, psi)
    rm, rb, rs = st_[0], st_[1], sub_angles(geom5, st_)[0]
    drm, drs, drb = (np.array(lf.uniform_motion(geom5.alpha, psi + h)[0])
                     - lf.uniform_motion(geom5.alpha, psi - h)[0]) / (2 * h)
    kap = springs_bistable.kappa.reshape(n, 4)[0]
    rest = springs_bistable.rest_angle.reshape(n, 4)[0]
    dE = n * (kap[0] * (rm - rest[0]) * drm
              + 2 * kap[1] * (rs - rest[1]) * drs
              + kap[3] * (rb - rest[3]) * drb)
    assert abs(dE - dE_fd) / abs(dE_fd) < 1e-5


def test_missing_crease_assignment_rejected(geom5, springs_bistable):
    # a model one crease short does not cover the pattern
    short = lf.SpringModel(springs_bistable.kappa[:-1],
                           springs_bistable.rest_angle[:-1])
    with pytest.raises(ConfigurationError):
        lf.path_energies(geom5, short, np.zeros(10))
    with pytest.raises(ConfigurationError):
        lf.landscape_over_psi(geom5, short, (-0.5, 0.5))
    with pytest.raises(ConfigurationError):
        lf.SpringModel(springs_bistable.kappa[:-1], springs_bistable.rest_angle)


def test_spring_model_validation(geom5):
    with pytest.raises(ConfigurationError):
        lf.SpringModel.uniform(geom5, -1.0, 0.5, -0.5)
    with pytest.raises(ConfigurationError):
        lf.SpringModel.uniform(geom5, 1.0, 0.5, 0.5)   # boundary rest valley
    with pytest.raises(ConfigurationError):
        lf.SpringModel.uniform(geom5, 1.0, -0.5, -0.5)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=np.radians(5), max_value=np.radians(175)),
       st.floats(min_value=np.radians(-175), max_value=np.radians(-5)),
       st.floats(min_value=-80.0, max_value=45.0))
def test_energy_nonnegative(geom5, rest_m, rest_b, psi_deg):
    springs = lf.SpringModel.uniform(geom5, 1.3, rest_m, rest_b)
    st_ = lf.uniform_state(geom5, np.radians(psi_deg))
    assert lf.path_energies(geom5, springs, st_) >= 0.0


def test_one_uniform_map_gives_same_bits(geom5):
    # every uniform consumer reads its angles off one evaluation, so at the
    # same psi they agree bit for bit
    curve = lf.landscape_over_psi(geom5, lf.SpringModel.uniform(
        geom5, 1.0, 1.0, -1.0), (np.radians(-80), np.radians(50)), 131)
    path = lf.uniform_path(geom5, (np.radians(-80), np.radians(50)), 131)
    for psi, got in ((curve.psi, (curve.rho_m, curve.rho_s, curve.rho_b)),
                     (path.params, (path.rho_o[:, 0::2].T, path.rho_s.T,
                                    path.rho_o[:, 1::2].T))):
        for a, b in zip(got, lf.uniform_motion(geom5.alpha, psi)[0]):
            assert np.all(a == b)
    common = np.intersect1d(curve.psi, path.params)
    assert common.size >= 3 and 0.0 in common
    for psi in common:
        k, m = np.flatnonzero(curve.psi == psi)[0], np.flatnonzero(path.params == psi)[0]
        st_ = lf.uniform_state(geom5, psi)
        rho = lf.uniform_motion(geom5.alpha, psi)[0]
        for want, *got in zip(rho, (st_[0::2], sub_angles(geom5, st_), st_[1::2]),
                              (curve.rho_m[k], curve.rho_s[k], curve.rho_b[k]),
                              (path.rho_o[m, 0::2], path.rho_s[m], path.rho_o[m, 1::2])):
            assert all(np.all(g == want) for g in got)


def test_extremum_slope_is_the_landscape_derivative(geom5, monkeypatch):
    # per-kind springs, each kind its own stiffness and rest angle: the
    # slope the extremum search receives is dE/dpsi on both phases
    springs = lf.SpringModel.per_kind(geom5, 1.3, 0.7, 2.1, np.radians(100),
                                      np.radians(-50), np.radians(80))
    seen = []

    def spy(psi, n, slope, energy):
        seen.append(slope)
        return landscape_extrema(psi, n, slope, energy)

    monkeypatch.setattr(energy_mod, "landscape_extrema", spy)
    lf.characterize_bistability(lf.landscape_over_psi(
        geom5, springs, (np.radians(-89), np.radians(53))))
    (slope,) = seen
    h = 1e-6
    for psi in np.radians([-85.0, -40.0, -3.0, 3.0, 25.0, 50.0]):
        E = lf.landscape_over_psi(geom5, springs, (psi - h, psi + h), 3).energy
        fd = (E[2] - E[0]) / (2 * h)
        assert abs(slope(0, psi) - fd) < 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("psi_range", [(0.5, np.nan), (np.nan, 0.5),
                                       (-np.inf, 0.5)])
@pytest.mark.parametrize("n_samples", [None, 721])
def test_non_finite_psi_endpoint_rejected(geom5, springs_bistable, psi_range,
                                          n_samples):
    with pytest.raises(ValueError, match=r"psi_range\[[01]\] must be a number in \(-inf, inf\), got -?(nan|inf)"):
        lf.landscape_over_psi(geom5, springs_bistable, psi_range, n_samples)


def test_interior_extrema_ignores_endpoints():
    # row 0 is lowest at both ends, which are not extrema; row 1 has a zero
    # slope at both ends and at its one maximum, psi = 2, all three nodes
    def slope(r, x):
        return np.where(r == 0, np.pi * np.sin(np.pi * x) - 0.2 * (x - 2),
                        4 * x * (x - 4) * (x - 2))

    def energy(r, x):
        return np.where(r == 0, -np.cos(np.pi * x) - 0.1 * (x - 2) ** 2,
                        (x * (x - 4)) ** 2)

    ext = synthetic(slope, energy, np.linspace(0.0, 4.0, 41), n=2)
    assert ext.row.tolist() == [0, 0, 0, 1]
    assert ext.is_min.tolist() == [False, True, False, False]
    assert np.all((ext.psi > 0.5) & (ext.psi < 3.5))
    assert abs(ext.psi[1] - 2.0) < 1e-12 and abs(ext.psi[3] - 2.0) < 1e-12
    assert ext.stability_class.tolist() == ["multistable", "monostable"]


def test_non_finite_stiffness_rejected(geom5):
    for kappa in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            lf.SpringModel.uniform(geom5, kappa, 0.5, -0.5)
        with pytest.raises(ConfigurationError):
            lf.SpringModel.per_kind(geom5, 0.0, 0.0, kappa, 0.0, -0.5)


def test_overflowing_stiffness_rejected(geom5):
    # finite stiffness whose energies overflow: 1e308 on 20 creases
    for kappa in (1e308, 1e307):
        with pytest.raises(ConfigurationError, match="overflow"):
            lf.SpringModel.uniform(geom5, kappa, 0.5, -0.5)
    springs = lf.SpringModel.uniform(geom5, 1e305, 0.5, -0.5)
    curve = lf.landscape_over_psi(geom5, springs, (-np.pi, np.pi))
    assert np.all(np.isfinite(curve.energy))


@pytest.mark.parametrize("n_samples", [0, 1, -5, 7.9, np.nan, True])
def test_landscape_sample_count_validated(geom5, springs_bistable, n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        lf.landscape_over_psi(geom5, springs_bistable,
                              (np.radians(-50), np.radians(40)), n_samples)
