"""Single-vertex fold relation of the Miura unit cell.

Each unit cell carries an interior degree-4 vertex where the main crease,
the two sub creases and the outward midline fold line meet.  The flat
sector angles there are (pi - alpha, alpha, alpha, pi - alpha), which is
the mirror-symmetric Miura vertex: the sub creases are parallel to the
unit's boundary creases and the cell is symmetric about its midline.
This layout is a documented reconstruction; the crease pattern figure
fixes it only up to that mirror symmetry.

In the symmetric folding branch both sub creases share one fold angle
rho_S, a strictly increasing function of the main-crease angle rho_M
given exactly by the degree-4 vertex relation

    tan(rho_S / 2) = tan(rho_M / 2) / cos(alpha),

which ``sub_angle_from_main`` evaluates in atan2 form;
``uniform.uniform_motion`` carries its derivative along the uniform motion.
"""
import numpy as np


def boundary_direction(alpha, rho_m):
    """Unit vector along the left boundary/sub crease of a folded cell.

    Expressed in the unit-local frame (main crease along the second axis,
    mirror plane spanned by axes 2 and 3).  The sub crease at the interior
    vertex is parallel to this direction because the near panels are
    parallelograms.
    """
    sa, ca = np.sin(alpha), np.cos(alpha)
    rho_m = np.asarray(rho_m, dtype=float)
    return np.stack([
        -sa * np.cos(rho_m / 2) + 0.0 * rho_m,
        ca + 0.0 * rho_m,
        sa * np.sin(rho_m / 2),
    ], axis=-1)


def sub_angle_from_main(alpha, rho_m):
    """Sub-crease fold angle rho_S for a given main-crease angle rho_M.

    Exact: rho_S = 2 atan2(sin(rho_M/2), cos(alpha) cos(rho_M/2)), which
    maps the endpoints exactly (0 -> 0, pi -> pi).  Accepts a scalar or an
    array of rho_M values.
    """
    if not 0.0 < alpha < np.pi / 2:
        raise ValueError(f"alpha must be in (0, pi/2), got {alpha}")
    rho_m = np.asarray(rho_m, dtype=float)
    if not np.all((rho_m >= -1e-12) & (rho_m <= np.pi + 1e-12)):   # NaN fails
        raise ValueError("rho_M outside [0, pi]")
    half = np.clip(rho_m, 0.0, np.pi) / 2
    return 2 * np.arctan2(np.sin(half), np.cos(alpha) * np.cos(half))

