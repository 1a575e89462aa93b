import numpy as np
import pytest

import leafout as lf
from leafout.kinematics import sub_angles
from oracles import chain_closure_norm, main_angle_oracle

ALPHA = np.pi / 5


def angles(alpha, psi):
    """(rho_M, rho_S, rho_B) of the uniform motion at psi."""
    return lf.uniform_motion(alpha, psi)[0]


def main_angle(alpha, psi):
    return angles(alpha, psi)[0]


def boundary_angle(alpha, psi):
    return angles(alpha, psi)[2]


def boundary_vector(alpha, psi, rho_m):
    """Unit vector along the boundary crease between units 1 and 2,
    global frame, componentwise closed form."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    s, cm = np.sin(rho_m / 2), np.cos(rho_m / 2)
    return np.array([
        -sa * cm,
        ca * np.cos(psi) - sa * np.sin(psi) * s,
        ca * np.sin(psi) + sa * np.cos(psi) * s,
    ])


def test_flat_state_trivia(geom5):
    assert main_angle(ALPHA, 0.0) == 0.0
    assert boundary_angle(ALPHA, 0.0) == 0.0
    b = boundary_vector(ALPHA, 0.0, 0.0)
    assert np.allclose(b, [-np.sin(ALPHA), np.cos(ALPHA), 0.0])


def test_main_angle_matches_independent_oracle():
    for psi_deg in (-45, -30, -10, 10, 30, 50):
        psi = np.radians(psi_deg)
        got = main_angle(ALPHA, psi)
        want = main_angle_oracle(ALPHA, psi)
        assert abs(got - want) < 1e-10


def test_psi_from_main_inverts_main_angle():
    # closed phase, flat state to fully folded main crease
    for n_cell in range(3, 13):
        alpha = np.pi / n_cell
        psi = np.linspace(0.0, np.pi / 2 - alpha, 2001)
        back = lf.psi_from_main(alpha, main_angle(alpha, psi))
        assert np.max(np.abs(back - psi)) <= 1e-15


def test_open_closed_asymmetry():
    rm_open = main_angle(ALPHA, np.radians(-30))
    rm_closed = main_angle(ALPHA, np.radians(30))
    assert rm_open > 0 and rm_closed > 0
    assert abs(rm_open - rm_closed) > np.radians(10)


def test_boundary_vector_unit_norm():
    for psi_deg in (-50, -20, 5, 35):
        psi = np.radians(psi_deg)
        rm = main_angle(ALPHA, psi)
        assert abs(np.linalg.norm(boundary_vector(ALPHA, psi, rm)) - 1.0) < 1e-12


def test_uniform_state_record(geom5):
    psi = np.radians(-30)
    st = lf.uniform_state(geom5, psi)
    assert abs(np.linalg.norm(boundary_vector(ALPHA, psi, st[0])) - 1.0) < 1e-12
    assert np.all((0 < st[0::2]) & (st[0::2] < np.pi))
    assert np.all((-np.pi < st[1::2]) & (st[1::2] < 0))
    flat = lf.uniform_state(geom5, 0.0)
    assert np.all(flat[0::2] == 0.0) and np.all(flat[1::2] == 0.0)
    assert np.allclose(boundary_vector(ALPHA, 0.0, flat[0]),
                       [-np.sin(ALPHA), np.cos(ALPHA), 0.0])


def test_uniform_state_refuses_array_psi(geom5):
    for psi in (np.array([0.1, 0.2]), [0.1], np.zeros((1, 1))):
        with pytest.raises(ValueError, match=r"psi must be a number, got shape \("):
            lf.uniform_state(geom5, psi)
    assert np.array_equal(lf.uniform_state(geom5, np.array(0.1)),
                          lf.uniform_state(geom5, 0.1))


def test_boundary_vector_third_component():
    psi = np.radians(-25)
    rm = main_angle(ALPHA, psi)
    b = boundary_vector(ALPHA, psi, rm)
    want = (np.cos(ALPHA) * np.sin(psi)
            + np.sin(ALPHA) * np.cos(psi) * np.sin(rm / 2))
    assert np.isclose(b[2], want, atol=0, rtol=0)


def test_pairs_satisfy_loop_closure(geom5):
    for psi_deg in np.linspace(-85, 50, 31):
        if abs(psi_deg) < 1e-9:
            continue
        psi = np.radians(psi_deg)
        st = lf.uniform_state(geom5, psi)
        assert chain_closure_norm(geom5.alpha, st) < 1e-10


def test_path_single_curve_through_origin(geom5):
    path = lf.uniform_path(geom5, (np.radians(-60), np.radians(50)), 221)
    rm = path.rho_o[:, 0]
    rb = path.rho_o[:, 1]
    # continuous single branch, passing through the flat point
    assert np.max(np.abs(np.diff(rm))) < np.radians(3.0)
    assert np.max(np.abs(np.diff(rb))) < np.radians(3.0)
    i0 = int(np.argmin(np.abs(path.params)))
    assert abs(rm[i0]) < np.radians(1.0) and abs(rb[i0]) < np.radians(1.0)
    # open phase on negative psi, closed on positive, flat only at zero
    assert np.all(rm[path.params < -1e-6] > 0)
    assert np.all(rm[path.params > 1e-6] > 0)


def test_uniform_path_sampling_contract(geom5):
    path = lf.uniform_path(geom5, (np.radians(-60), np.radians(60)), 241)
    # grid monotone with the flat state included; the requested range
    # exceeds the motion range, so the path is clipped and flagged
    assert np.all(np.diff(path.params) > 0)
    assert np.any(path.params == 0.0)
    assert path.termination == "truncated"
    path2 = lf.uniform_path(geom5, (np.radians(-60), np.radians(50)), 221)
    assert path2.termination == "completed"
    assert len(path2) == 221
    assert np.any(np.isclose(path2.params, 0.0, atol=1e-12))


def test_motion_range_matches_fold_limits():
    for n_cell in range(3, 13):
        alpha = np.pi / n_cell
        lo, hi = lf.psi_motion_range(alpha)
        # closed side ends with the main crease fully folded, open side
        # with the boundary crease at its mountain limit
        assert abs(hi - (np.pi / 2 - alpha)) <= 1e-15
        assert abs(lo + np.pi / 2) <= 1e-15
        assert abs(main_angle(alpha, hi) - np.pi) < 1e-12
        assert abs(main_angle_oracle(alpha, hi - 1e-6) - np.pi) < 1e-5
        assert boundary_angle(alpha, lo) == -np.pi
        # a psi one ulp past either bound is rejected, alone or in an array
        for psi in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
            with pytest.raises(lf.OutOfRangeError):
                lf.uniform_motion(alpha, psi)
            with pytest.raises(lf.OutOfRangeError):
                lf.uniform_motion(alpha, np.array([0.0, psi]))


def test_out_of_range_reported():
    for psi in (np.pi / 2, np.array([0.1, np.pi / 2]), np.nan,
                np.array([0.1, np.nan])):
        with pytest.raises(lf.OutOfRangeError):
            lf.uniform_motion(ALPHA, psi)


def test_vectorized_solvers_match_scalar():
    psis = np.radians(np.array([-80.0, -33.3, -5.0, 12.5, 47.0]))
    rho, slope = lf.uniform_motion(ALPHA, psis)
    for k, p in enumerate(psis):
        rho_k, slope_k = lf.uniform_motion(ALPHA, p)
        for vec, sca in zip(rho + slope, rho_k + slope_k):
            assert abs(vec[k] - sca) < 1e-10


def test_motion_slopes_match_central_differences():
    # both phases, as arrays; rho_S rises with rho_M, so rho_S' / rho_M' > 0
    for n_cell in (3, 5, 9):
        alpha = np.pi / n_cell
        lo, hi = lf.psi_motion_range(alpha)
        psi = np.concatenate([np.linspace(lo + 0.01, -0.01, 25),
                              np.linspace(0.01, hi - 0.01, 25)])
        slope = np.array(lf.uniform_motion(alpha, psi)[1])
        assert slope.shape == (3, 50)
        h = 1e-6
        fd = (np.array(angles(alpha, psi + h)) - angles(alpha, psi - h)) / (2 * h)
        assert np.max(np.abs(slope - fd) / (1.0 + np.abs(fd))) < 1e-7
        assert np.all(slope[1] / slope[0] > 0.0)
        assert np.array_equal(slope[2], -2.0 * np.sign(psi))


def test_motion_slope_endpoints():
    # psi = +-0.0: one-sided differences, and rho_S' = rho_M' / cos(alpha)
    # (the in-plane vertex gain); psi = pi/2 - alpha, main crease folded
    # flat: rho_S' = cos(alpha) rho_M'
    h, ca = 1e-7, np.cos(ALPHA)
    for zero, side in ((0.0, 1.0), (-0.0, -1.0)):
        rho, slope = lf.uniform_motion(ALPHA, zero)
        fd = side * (np.array(angles(ALPHA, side * h)) - rho) / h
        assert np.max(np.abs(np.array(slope) - fd)) < 1e-6
        assert abs(slope[1] - slope[0] / ca) <= 1e-15 * abs(slope[0])
        assert slope[2] == -2.0 * side
    hi = lf.psi_motion_range(ALPHA)[1]
    rho, slope = lf.uniform_motion(ALPHA, hi)
    assert abs(rho[0] - np.pi) < 1e-12 and abs(rho[1] - np.pi) < 1e-12
    assert abs(slope[1] - ca * slope[0]) <= 1e-15 * abs(slope[0])
    fd = (np.array(rho) - angles(ALPHA, hi - h)) / h
    assert np.max(np.abs(np.array(slope) - fd)) < 1e-5


def test_motion_sub_slope_near_flat_has_finite_limit():
    # rho_S' / rho_M' approaches 1/cos(alpha) from inside, on both phases
    limit = 1.0 / np.cos(ALPHA)
    for side in (1.0, -1.0):
        psi = side * np.array([1e-3, 1e-4, 1e-5])
        _, (d_m, d_s, _) = lf.uniform_motion(ALPHA, psi)
        gaps = np.abs(d_s / d_m - limit)
        assert np.all(np.isfinite(gaps)) and np.all(np.diff(gaps) < 0)
        assert gaps[0] < 1e-5 and gaps[2] < 1e-9


def test_boundary_vector_matches_mesh_edge(geom5):
    psi = np.radians(-30)
    st = lf.uniform_state(geom5, psi)
    mesh = lf.reconstruct_mesh(geom5, st, tilt=psi)
    from leafout.geometry import CreaseId, CreaseKind
    a, b = mesh.crease_edges[CreaseId(CreaseKind.BOUNDARY, 1)]
    edge = mesh.vertices[b] - mesh.vertices[a]
    edge = edge / np.linalg.norm(edge)
    want = boundary_vector(geom5.alpha, psi, st[0])
    assert np.max(np.abs(edge - want)) < 1e-8


def test_sign_convention_open_down_closed_up(geom5):
    # open phase: tips below the base plane; closed phase: above
    for psi_deg, below in ((-30, True), (30, False)):
        psi = np.radians(psi_deg)
        mesh = lf.reconstruct_mesh(geom5, lf.uniform_state(geom5, psi), tilt=psi)
        tip_z = np.array([mesh.vertices[b][2] for _, b in mesh.tip_edges])
        assert np.all(tip_z < 0) == below


def test_boundary_angle_identity_with_euler_angle():
    # mirror-plane symmetry of the uniform motion pins rho_B = -2|psi|
    for psi_deg in (-40, -15, 20, 45):
        psi = np.radians(psi_deg)
        rb = boundary_angle(ALPHA, psi)
        assert np.isclose(rb, -2 * abs(psi), atol=1e-10)


def test_uniform_path_sampling_validated(geom5):
    rng = (np.radians(-40), np.radians(40))
    for n_samples in (0, 1, -5, 7.9, np.nan, True):
        with pytest.raises(ValueError, match=r"n_samples must be an integer in \[2, inf\), got"):
            lf.uniform_path(geom5, rng, n_samples)
    for rng in ((np.nan, 0.3), (0.3, np.inf)):
        with pytest.raises(ValueError, match=r"psi_range\[[01]\] must be a number in \(-inf, inf\)"):
            lf.uniform_path(geom5, rng, 2)
    # fewer than two samples inside the motion range
    for rng in ((np.radians(100), np.radians(120)), (np.radians(-40), np.radians(80))):
        with pytest.raises(ValueError, match="inside the uniform motion range"):
            lf.uniform_path(geom5, rng, 2)
    assert len(lf.uniform_path(geom5, (np.radians(-40), np.radians(80)), 3)) == 2


def test_uniform_path_is_columnar_and_matches_states(geom5):
    path = lf.uniform_path(geom5, (np.radians(-70), np.radians(45)), 31)
    assert path.rho_o.shape == (31, 10) and path.rho_s.shape == (31, 5)
    for k, psi in enumerate(path.params):
        st = lf.uniform_state(geom5, psi)
        assert np.array_equal(path.rho_o[k], st)
        assert np.array_equal(path.rho_s[k], sub_angles(geom5, st))
