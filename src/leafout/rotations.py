"""Small rotation-matrix utilities shared across the kinematics modules."""
import numpy as np


def rot_x(angle):
    """Rotation about the first axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle):
    """Rotation about the third axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def skew(v):
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def axis_angle(axis, angle):
    """Rotation about an arbitrary unit axis (Rodrigues form).

    R = I + sin(angle) K + (1 - cos(angle)) K^2 with K = skew(axis).
    The axis is normalized here; a near-zero axis is rejected.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("rotation axis has near-zero norm")
    K = skew(axis / n)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
