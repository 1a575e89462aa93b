"""Closed-form uniform grasping kinematics.

When every unit cell folds identically, the configuration is a function
of one Euler angle psi (rotation of each unit's local frame about its
in-plane radial axis; negative in the open phase, positive in the closed
phase, zero when flat).  Both vertex crease angles follow from psi
exactly:

* the boundary crease stays in the vertical mirror plane between
  adjacent units, cos(a) cos(rho_M/2) + sin(a) sin(psi) sin(rho_M/2) =
  cos(a) cos(psi), whose root in [0, pi] is
  rho_M = 2 (atan2(sin(a) sin(psi), cos(a)) + atan2(|sin(psi)|, cos(a) cos(psi)));
* matching the rotation across the boundary crease against the
  inter-unit turn of 2 alpha pins its angle to rho_B = -2 |psi|.

The motion range is therefore [-pi/2, pi/2 - alpha]: the open side ends
when the boundary crease reaches its mountain limit -pi, the closed side
when the main crease folds flat.
"""
from numbers import Integral

import numpy as np

from .kinematics import FoldState, FoldingPath, check_states
from .unitcell import sub_angle_from_main


class OutOfRangeError(ValueError):
    """psi outside the admissible uniform motion range."""


def psi_motion_range(alpha):
    """Admissible interval [-pi/2, pi/2 - alpha] of psi, as (lo, hi).

    The open side ends where the boundary crease reaches its mountain
    limit (rho_B = -pi), the closed side where the main crease is fully
    folded (rho_M = pi).
    """
    return -np.pi / 2, np.pi / 2 - alpha


def _checked_psi(alpha, psi):
    """psi as a float array, rejected unless inside the motion range."""
    psi = np.asarray(psi, dtype=float)
    lo, hi = psi_motion_range(alpha)
    inside = (psi >= lo) & (psi <= hi)      # False for NaN
    if not np.all(inside):
        bad = np.ravel(psi)[~np.ravel(inside)][0]
        raise OutOfRangeError(
            f"psi={np.degrees(bad):.3f} deg outside the uniform motion range "
            f"[{np.degrees(lo):.3f}, {np.degrees(hi):.3f}] deg")
    return psi


def main_angle_from_psi(alpha, psi):
    """Main-crease angle rho_M in [0, pi] for Euler angle(s) psi.

    Exact root of the mirror-plane condition; the atan2 form stays
    accurate near the flat state.  Accepts a scalar or an array.
    """
    psi = _checked_psi(alpha, psi)
    ca, sa = np.cos(alpha), np.sin(alpha)
    s = np.sin(psi)
    return 2 * (np.arctan2(sa * s, ca) + np.arctan2(np.abs(s), ca * np.cos(psi)))


def psi_from_main(alpha, rho_m):
    """Closed-phase Euler angle psi >= 0 of main-crease angle(s) rho_M in
    [0, pi], the inverse of ``main_angle_from_psi`` there:
    psi = rho_S / 2 - atan2(sin(a) sin(rho_M/2), cos(a))."""
    return (sub_angle_from_main(alpha, rho_m) / 2
            - np.arctan2(np.sin(alpha) * np.sin(np.asarray(rho_m) / 2),
                         np.cos(alpha)))


def boundary_angle_from_psi(alpha, psi):
    """Boundary-crease angle rho_B = -2|psi| in [-pi, 0] for Euler
    angle(s) psi.  Accepts a scalar or an array."""
    psi = _checked_psi(alpha, psi)
    return 0.0 - 2 * np.abs(psi)        # 0.0 - keeps the flat state at +0.0


def uniform_state(geom, psi):
    """Closed FoldState of the uniform motion at Euler angle psi."""
    rho = np.empty(geom.n_vertex_creases)
    rho[0::2] = main_angle_from_psi(geom.alpha, psi)
    rho[1::2] = boundary_angle_from_psi(geom.alpha, psi)
    return FoldState.from_angles(geom, rho)


def clip_psi_range(alpha, psi_range):
    """Clip a requested psi interval to the motion range.

    Returns (lo, hi, clipped); a margin of 1e-6 rad keeps paths off the
    exact fold limits.
    """
    lo, hi = psi_motion_range(alpha)
    lo, hi = lo + 1e-6, hi - 1e-6
    want_lo, want_hi = min(psi_range), max(psi_range)
    clipped = want_lo < lo or want_hi > hi
    return max(want_lo, lo), min(want_hi, hi), clipped


def sample_count(n_samples):
    """``n_samples`` as an int; anything but an integer >= 2 is rejected."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, Integral) \
            or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    return int(n_samples)


def psi_samples(alpha, psi_range, n_samples):
    """Uniform psi grid over a requested interval, cut to the motion range.

    Returns (psis, truncated).  Raises ValueError unless ``n_samples`` is
    an integer >= 2 and at least two samples fall inside the motion range
    (a NaN endpoint leaves none).
    """
    lo, hi, truncated = clip_psi_range(alpha, psi_range)
    psis = np.linspace(psi_range[0], psi_range[1], sample_count(n_samples))
    psis = psis[(psis >= lo) & (psis <= hi)]
    if psis.size < 2:
        raise ValueError(f"{psis.size} of {n_samples} samples fall inside the "
                         "uniform motion range; need at least two")
    return psis, truncated


def uniform_path(geom, psi_range, n_samples):
    """Densely sampled uniform folding path over a psi interval.

    Sampling is uniform over the requested interval; samples beyond the
    motion range are clipped away and the truncation flagged.  Every
    sample is checked against the angle boxes and the closure tolerance
    in one batched pass; the error names the first failing sample.
    """
    psis, truncated = psi_samples(geom.alpha, psi_range, n_samples)
    rho = np.empty((psis.size, geom.n_vertex_creases))
    rho[:, 0::2] = main_angle_from_psi(geom.alpha, psis)[:, None]
    rho[:, 1::2] = boundary_angle_from_psi(geom.alpha, psis)[:, None]
    check_states(geom, rho)
    rho_s = sub_angle_from_main(geom.alpha, np.clip(rho[:, 0::2], 0.0, np.pi))
    return FoldingPath(rho_o=rho, rho_s=rho_s, params=psis, param_name="psi",
                       termination="truncated" if truncated else "completed")
