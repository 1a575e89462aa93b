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

``uniform_motion`` is the one evaluation of this map: it returns rho_M,
the sub angle rho_S of the vertex relation and rho_B, with their exact
psi-slopes, for a scalar or an array of psi.  Every uniform state, path
and energy landscape, and the slope that locates landscape extrema, reads
its angles from it.  ``psi_samples`` and ``landscape_psis`` lay out the
psi grids of a uniform path and of an energy landscape.

``kinematics._read`` reads the arguments: a psi range is two finite
numbers in either order and a sample count an integer of at least 2; a
psi outside the motion range, NaN included, is an OutOfRangeError.
"""
import numpy as np

from .kinematics import _HUGE, FoldingPath, _count, _read, check_states
from .unitcell import sub_angle_from_main

DEFAULT_PSI_STEP = np.radians(0.5)  # landscape grid spacing without n_samples


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


def uniform_motion(alpha, psi):
    """Angles (rho_M, rho_S, rho_B) of the uniform motion at Euler
    angle(s) psi, and their psi-slopes (rho_M', rho_S', rho_B'):

    rho_M' = 2 cos(a) [sin(a) cos(psi) / (cos^2(a) + sin^2(a) sin^2(psi))
                       + sgn(psi) / (cos^2(a) cos^2(psi) + sin^2(psi))],
    rho_S' = rho_M' cos(a) / (cos^2(a) cos^2(rho_M/2) + sin^2(rho_M/2)),
    rho_B' = -2 sgn(psi),

    one-sided at psi = +-0.0 by the sign of the zero.  rho_M is the exact
    root of the mirror-plane condition, whose atan2 form stays accurate
    near the flat state; rho_S comes from ``sub_angle_from_main``.
    Accepts a scalar or an array.
    """
    psi = _checked_psi(alpha, psi)
    ca, sa = np.cos(alpha), np.sin(alpha)
    s, c, sgn = np.sin(psi), np.cos(psi), np.copysign(1.0, psi)
    rho_m = 2 * (np.arctan2(sa * s, ca) + np.arctan2(np.abs(s), ca * c))
    s2 = s ** 2
    d_m = 2 * ca * (sa * c / (ca * ca + sa * sa * s2) + sgn / (ca * ca * c * c + s2))
    d_s = ca / ((ca * np.cos(rho_m / 2)) ** 2 + np.sin(rho_m / 2) ** 2) * d_m
    # 0.0 - keeps the flat state's rho_B at +0.0
    return ((rho_m, sub_angle_from_main(alpha, rho_m), 0.0 - 2 * np.abs(psi)),
            (d_m, d_s, -2.0 * sgn))


def psi_from_main(alpha, rho_m):
    """Closed-phase Euler angle psi >= 0 of main-crease angle(s) rho_M in
    [0, pi], the inverse of ``uniform_motion``'s rho_M there:
    psi = rho_S / 2 - atan2(sin(a) sin(rho_M/2), cos(a))."""
    return (sub_angle_from_main(alpha, rho_m) / 2
            - np.arctan2(np.sin(alpha) * np.sin(np.asarray(rho_m) / 2),
                         np.cos(alpha)))


def uniform_state(geom, psi):
    """The uniform state at the Euler angle psi, a scalar: its (N,) row of
    fold angles, checked by ``check_states``."""
    (rho_m, _, rho_b), _ = uniform_motion(geom.alpha, _read("psi", psi))
    rho = np.empty(geom.n_vertex_creases)
    rho[0::2], rho[1::2] = rho_m, rho_b
    check_states(geom, rho[None])
    return rho


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


def psi_samples(alpha, psi_range, n_samples):
    """Uniform psi grid over a requested interval, cut to the motion range.

    Returns (psis, truncated).  Raises ValueError unless ``n_samples`` is
    an integer >= 2 and at least two samples fall inside the motion range
    (a NaN endpoint leaves none).
    """
    lo, hi, truncated = clip_psi_range(alpha, psi_range)
    psis = np.linspace(psi_range[0], psi_range[1], _count("n_samples", n_samples, 2))
    psis = psis[(psis >= lo) & (psis <= hi)]
    if psis.size < 2:
        raise ValueError(f"{psis.size} of {n_samples} samples fall inside the "
                         "uniform motion range; need at least two")
    return psis, truncated


def landscape_psis(alpha, psi_range, n_samples=None):
    """Psi grid of an energy landscape over a requested interval, clipped
    to the motion range, as (psis, truncated); without ``n_samples`` the
    spacing is about DEFAULT_PSI_STEP.

    When the interval spans the flat state the grid is snapped to contain
    psi = 0 exactly: the energy kinks there (the two fold phases meet at
    a corner), and an extremum on that node is exact.
    """
    if n_samples is not None:
        n_samples = _count("n_samples", n_samples, 2)
    lo, hi, clipped = clip_psi_range(alpha, psi_range)
    if lo < 0.0 < hi:
        if n_samples is None:
            n_lo = max(1, int(round(-lo / DEFAULT_PSI_STEP)))
            n_hi = max(1, int(round(hi / DEFAULT_PSI_STEP)))
        else:
            n_lo = max(1, int(round((n_samples - 1) * (-lo) / (hi - lo))))
            n_hi = max(1, n_samples - 1 - n_lo)
        psis = np.concatenate([np.linspace(lo, 0.0, n_lo + 1),
                               np.linspace(0.0, hi, n_hi + 1)[1:]])
    else:
        if n_samples is None:
            n_samples = int(round((hi - lo) / DEFAULT_PSI_STEP)) + 1
        psis = np.linspace(lo, hi, n_samples)
    return psis, clipped


def uniform_path(geom, psi_range, n_samples):
    """Densely sampled uniform folding path over a psi interval.

    Sampling is uniform over the requested interval; samples beyond the
    motion range are clipped away and the truncation flagged.  Each
    sample's sub angle is computed once and shared by every unit.  Every
    sample is checked against the angle boxes and the closure tolerance
    in one batched pass; the error names the first failing sample.
    """
    psis, truncated = psi_samples(
        geom.alpha, _read("psi_range", psi_range, -_HUGE, _HUGE, shape=(2,)), n_samples)
    (rho_m, rho_s, rho_b), _ = uniform_motion(geom.alpha, psis)
    rho = np.empty((psis.size, geom.n_vertex_creases))
    rho[:, 0::2], rho[:, 1::2] = rho_m[:, None], rho_b[:, None]
    check_states(geom, rho)
    rho_s = np.repeat(rho_s[:, None], geom.n_cell, axis=1)
    return FoldingPath(rho_o=rho, rho_s=rho_s, params=psis, param_name="psi",
                       termination="truncated" if truncated else "completed")
