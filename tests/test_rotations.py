import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leafout.rotations import axis_angle, rot_x, rot_z, skew

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def is_rotation(R, tol=1e-12):
    """Proper-rotation check: orthonormal within tol and det == +1."""
    R = np.asarray(R)
    return (np.max(np.abs(R @ R.T - np.eye(3))) < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


def test_rot_x_quarter_turn():
    assert np.allclose(rot_x(np.pi / 2) @ [0, 1, 0], [0, 0, 1], atol=1e-15)


def test_rot_z_quarter_turn():
    assert np.allclose(rot_z(np.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_skew_matches_cross():
    v = np.array([0.3, -1.2, 2.0])
    w = np.array([1.0, 0.5, -0.7])
    assert np.allclose(skew(v) @ w, np.cross(v, w))


@settings(max_examples=50, deadline=None)
@given(components, components, components, angles)
def test_axis_angle_is_proper_rotation(ax, ay, az, ang):
    axis = np.array([ax, ay, az])
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([1.0, 0.0, 0.0])
    R = axis_angle(axis, ang)
    assert is_rotation(R, tol=1e-12)
    # the axis is fixed
    u = axis / np.linalg.norm(axis)
    assert np.allclose(R @ u, u, atol=1e-12)


def test_axis_angle_rejects_zero_axis():
    try:
        axis_angle([0.0, 0.0, 0.0], 1.0)
    except ValueError:
        return
    raise AssertionError("zero axis accepted")
