import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafout import psi_from_main, sub_angle_from_main, uniform_motion
from oracles import rot_x, rot_z, sub_angle_oracle, vertex_a_chain_residual

ALPHA = np.pi / 5


def vertex_sector_angles(alpha):
    """Flat sector angles around the interior vertex, counterclockwise
    starting from the main crease: (pi - alpha, alpha, alpha, pi - alpha)."""
    return (np.pi - alpha, alpha, alpha, np.pi - alpha)


def vertex_closure_residual(alpha, rho_m, rho_s):
    """Max-norm deviation of the four-crease rotation product from identity.

    The midline fold angle is eliminated by choosing the rotation that best
    closes the remaining chain, so the residual measures whether
    (rho_M, rho_S) is compatible with the vertex at all.
    """
    A = rot_x(rho_m) @ rot_z(np.pi - alpha) @ rot_x(rho_s) @ rot_z(alpha)
    B = rot_x(rho_s) @ rot_z(np.pi - alpha)
    Q = A.T @ B.T @ rot_z(-alpha)   # required value of rot_x(rho_t)
    rho_t = np.arctan2(Q[2, 1] - Q[1, 2], Q[1, 1] + Q[2, 2])
    F = A @ rot_x(rho_t) @ rot_z(alpha) @ B
    return float(np.max(np.abs(F - np.eye(3))))


def test_flat_maps_to_flat():
    assert sub_angle_from_main(ALPHA, 0.0) == 0.0


def test_fully_folded_maps_to_fully_folded():
    rho_s = sub_angle_from_main(ALPHA, np.pi)
    assert rho_s == np.pi
    assert vertex_a_chain_residual(ALPHA, np.pi, rho_s) < 1e-10


def test_right_angle_matches_independent_oracle():
    got = sub_angle_from_main(ALPHA, np.pi / 2)
    want = sub_angle_oracle(ALPHA, np.pi / 2)
    assert abs(got - want) < 1e-9


@pytest.mark.parametrize("rho_m_deg", [5, 30, 60, 120, 175])
def test_oracle_agreement_spot_checks(rho_m_deg):
    rm = np.radians(rho_m_deg)
    assert abs(sub_angle_from_main(ALPHA, rm) - sub_angle_oracle(ALPHA, rm)) < 1e-9


def test_monotone_increasing():
    grid = np.linspace(0.0, np.pi, 200)
    vals = sub_angle_from_main(ALPHA, grid)
    assert np.all(np.diff(vals) > 0)


def test_vertex_closure_residual_on_grid():
    grid = np.linspace(0.0, np.pi, 1000)
    vals = sub_angle_from_main(ALPHA, grid)
    worst = max(vertex_closure_residual(ALPHA, rm, rs)
                for rm, rs in zip(grid, vals))
    assert worst < 1e-10


def test_vectorized_matches_scalar():
    grid = np.linspace(0.01, np.pi - 0.01, 37)
    vec = sub_angle_from_main(ALPHA, grid)
    sca = np.array([sub_angle_from_main(ALPHA, r) for r in grid])
    assert np.max(np.abs(vec - sca)) < 1e-12


def sub_slope_in_main(alpha, rho_m):
    """d rho_S / d rho_M at main angle(s) rho_M, as rho_S' / rho_M' of the
    uniform motion at the closed-phase psi of rho_M."""
    _, (d_m, d_s, _) = uniform_motion(alpha, psi_from_main(alpha, rho_m))
    return d_s / d_m


def test_derivative_matches_finite_differences():
    h = 1e-6
    for rm in np.radians([20, 90, 150]):
        fd = (sub_angle_from_main(ALPHA, rm + h)
              - sub_angle_from_main(ALPHA, rm - h)) / (2 * h)
        an = sub_slope_in_main(ALPHA, rm)
        assert abs(an - fd) / abs(fd) < 1e-5


def test_derivative_positive():
    for rm in np.radians([10, 45, 90, 135, 170]):
        assert sub_slope_in_main(ALPHA, rm) > 0


def test_sector_angles_sum_to_full_turn():
    assert np.isclose(sum(vertex_sector_angles(ALPHA)), 2 * np.pi)


def test_alpha_validation():
    with pytest.raises(ValueError):
        sub_angle_from_main(0.0, 0.5)
    with pytest.raises(ValueError):
        sub_angle_from_main(np.pi / 2, 0.5)
    with pytest.raises(ValueError):
        sub_angle_from_main(ALPHA, -0.2)


@pytest.mark.parametrize("fn", [sub_angle_from_main, psi_from_main])
@pytest.mark.parametrize("rho_m", [np.nan, [0.5, np.nan], np.inf])
def test_non_finite_main_angle_rejected(fn, rho_m):
    # NaN is outside [0, pi] too; it must not come back as a NaN angle
    with pytest.raises(ValueError, match=r"rho_m(\[1\])? must be a number"):
        fn(ALPHA, rho_m)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=np.radians(10), max_value=np.radians(80)),
       st.floats(min_value=1e-3, max_value=np.pi - 1e-3))
def test_closure_property_random_vertices(alpha, rho_m):
    rho_s = sub_angle_from_main(alpha, rho_m)
    assert 0.0 < rho_s < np.pi
    assert vertex_closure_residual(alpha, rho_m, rho_s) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=np.radians(10), max_value=np.radians(80)),
       st.floats(min_value=1e-3, max_value=np.pi - 1e-3))
def test_tangent_half_angle_identity(alpha, rho_m):
    # mirror-symmetric degree-4 vertex: tan(rho_S/2) cos(alpha) = tan(rho_M/2)
    rho_s = sub_angle_from_main(alpha, rho_m)
    assert np.isclose(np.tan(rho_s / 2) * np.cos(alpha), np.tan(rho_m / 2),
                      rtol=1e-9, atol=1e-9)
