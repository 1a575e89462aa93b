"""Torsion-spring energy, landscapes over psi and bistability reports.

Every spring-bearing crease j contributes (kappa_j / 2)(rho_j - rest_j)^2.
Energies are evaluated along kinematic paths only; the uniform landscape
E(psi) is the workhorse for bistability characterization and for the
rest-angle design surface of the energy ratio xi.  Its energy and its
exact slope dE/dpsi take the angles and their psi-slopes from
``uniform.uniform_motion`` and its grid from ``uniform.landscape_psis``.
An argument out of its domain, or a spring model that does not cover the
geometry's creases, is refused with a ValueError (``kinematics._read``'s).
"""
import numpy as np

from .kinematics import (_HUGE, _TINY, _Record, _count, _read, _sub_angle, angle_bounds,
                         sub_angles)
from .uniform import landscape_psis, uniform_motion

REFINE_PASSES = 6  # reach float resolution on brackets up to 4 deg wide
SURFACE_BLOCK = 2 ** 18  # slope samples per ratio-surface block


class SpringModel(_Record):
    """Per-crease stiffness and rest angle, in canonical crease order
    (main, sub left, sub right, boundary, per unit counterclockwise)."""
    kappa: np.ndarray
    rest_angle: np.ndarray

    def __post_init__(self):
        self.kappa = _read("kappa", self.kappa, 0.0, _HUGE, "iuf", (None,))
        self.rest_angle = _read("rest_angle", self.rest_angle, -_HUGE, _HUGE, "iuf", (None,))
        if self.kappa.shape != self.rest_angle.shape:
            raise ValueError("kappa and rest_angle length mismatch")
        # sum kappa (pi + |rest|)^2 bounds twice the energy of any angles
        # in [-pi, pi], so while it is finite no energy overflows
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.sum(self.kappa * (np.pi + np.abs(self.rest_angle)) ** 2)
        if not bound < np.inf:
            raise ValueError("spring energies would overflow: stiffness "
                             f"or rest angles too large (bound {bound:g})")

    @classmethod
    def uniform(cls, geom, kappa, rest_main, rest_boundary, rest_sub=None):
        """Identical stiffness on every crease; the sub-crease rest angle
        defaults to the one compatible with rest_main on the fold branch."""
        return cls.per_kind(geom, kappa, kappa, kappa, rest_main,
                            rest_boundary, rest_sub)

    @classmethod
    def per_kind(cls, geom, kappa_main, kappa_sub, kappa_boundary,
                 rest_main, rest_boundary, rest_sub=None):
        kappas = dict(kappa_main=kappa_main, kappa_sub=kappa_sub, kappa_boundary=kappa_boundary)
        kappa_main, kappa_sub, kappa_boundary = (_read(k, v, 0.0, _HUGE) for k, v in kappas.items())
        rest_main = _read("rest_main", rest_main, 0.0, np.pi)
        rest_boundary = _read("rest_boundary", rest_boundary, -np.pi, 0.0)
        if rest_sub is None:
            rest_sub = _sub_angle(geom.alpha, rest_main)
        rest_sub = _read("rest_sub", rest_sub, 0.0, np.pi)
        n = geom.n_cell
        kap = np.tile([kappa_main, kappa_sub, kappa_sub, kappa_boundary], n)
        rest = np.tile([rest_main, rest_sub, rest_sub, rest_boundary], n)
        return cls(kappa=kap, rest_angle=rest)


def path_energies(geom, springs, rho_o):
    """Total torsion-spring energy of each fold-angle row (..., N), one
    state or a path's ``rho_o``, its sub angles from ``sub_angles``.  Every
    angle must lie in its box (to 1e-9); closure is not checked."""
    if springs.kappa.shape != (geom.n_total_creases,):
        raise ValueError("spring model size does not match geometry")
    lo, hi = angle_bounds(geom)
    rho_o = _read("rho_o", rho_o, lo - 1e-9, hi + 1e-9,
                  shape=(..., geom.n_vertex_creases))
    rho_m, rho_s, rho_b = rho_o[..., 0::2], sub_angles(geom, rho_o), rho_o[..., 1::2]
    # per-crease angles in canonical order
    angles = np.stack([rho_m, rho_s, rho_s, rho_b], axis=-1).reshape(
        *rho_o.shape[:-1], 4 * geom.n_cell)
    return 0.5 * np.sum(springs.kappa * (angles - springs.rest_angle) ** 2,
                        axis=-1)


class LandscapeCurve(_Record):
    """E(psi) along the uniform path, with the path arrays kept for
    downstream sweeps and the springs and alpha that give its slope."""
    psi: np.ndarray
    energy: np.ndarray
    rho_m: np.ndarray
    rho_s: np.ndarray
    rho_b: np.ndarray
    alpha: float
    springs: SpringModel
    truncated: bool = False


def _uniform_landscapes(alpha, kappa, rest):
    """(slope, energy) of the uniform-path landscapes of B designs with
    stiffness kappa (J,) and rest angles rest (B, J), as f(rows, psi).
    E = sum_j kappa_j (rho_j - rest_j)^2 / 2, unit by unit, and dE/dpsi =
    sum over the kinds (K rho - C) rho', K and C the kind's summed kappa
    and kappa rest, with the angles and slopes of ``uniform_motion``."""
    kind = np.tile([0, 1, 1, 2], len(kappa) // 4) == np.arange(3)[:, None]
    # slope = (1, -C) . (sum K rho rho', rho_M', rho_S', rho_B')
    K, coef = kind @ kappa, np.vstack([np.ones(len(rest)), -(kind @ (kappa * rest).T)])

    def slope(rows, psi):
        (rho_m, rho_s, rho_b), (d_m, d_s, d_b) = uniform_motion(alpha, psi)
        g = K[0] * rho_m * d_m + K[1] * rho_s * d_s + K[2] * rho_b * d_b
        return np.einsum("k...,k...->...", coef[:, rows], np.stack([g, d_m, d_s, d_b]))

    def energy(rows, psi):
        return _spring_energy(kappa, rest[rows], *uniform_motion(alpha, psi)[0])

    return slope, energy


def _spring_energy(kappa, rest, rho_m, rho_s, rho_b):
    """E = sum_j kappa_j (rho_j - rest_j)^2 / 2 of uniform states with the
    angles (rho_M, rho_S, rho_B), summed unit by unit."""
    E = 0.0
    for u in range(0, len(kappa), 4):
        E = E + 0.5 * sum(kappa[u + k] * (a - rest[..., u + k]) ** 2
                          for k, a in enumerate((rho_m, rho_s, rho_s, rho_b)))
    return E


def landscape_over_psi(geom, springs, psi_range, n_samples=None):
    """Energy along the uniform path over a psi interval.

    The requested range is clipped to the admissible motion range and
    flagged when truncation occurs.  Default sampling is 0.5 degrees.
    """
    if springs.kappa.shape != (geom.n_total_creases,):
        raise ValueError("spring model size does not match geometry")
    psis, truncated = landscape_psis(
        geom.alpha, _read("psi_range", psi_range, -_HUGE, _HUGE, shape=(2,)), n_samples)
    (rho_m, rho_s, rho_b), _ = uniform_motion(geom.alpha, psis)
    energy = _spring_energy(springs.kappa, springs.rest_angle, rho_m, rho_s, rho_b)
    return LandscapeCurve(psi=psis, energy=energy, rho_m=rho_m, rho_s=rho_s,
                          rho_b=rho_b, alpha=geom.alpha, springs=springs,
                          truncated=truncated)


class LandscapeExtrema(_Record):
    """Interior extrema of B landscapes, in row then psi order, and per row
    the class and xi (NaN unless bistable)."""
    row: np.ndarray
    psi: np.ndarray
    energy: np.ndarray
    is_min: np.ndarray
    stability_class: np.ndarray
    ratio_xi: np.ndarray


def landscape_extrema(psi, n, slope, energy):
    """Interior extrema of n landscapes on one increasing grid psi, from
    ``slope(rows, x)`` and ``energy(rows, x)``, dE/dpsi and E of the
    landscapes ``rows`` at ``x``.  An extremum lies between adjacent nodes
    where the slope changes sign (zero counts as positive, except at the
    ends, which so are never extrema); psi = 0 is a node once per side
    (-0.0, 0.0), so an extremum at the flat-state kink is exactly 0.0.  All
    brackets are refined at once by REFINE_PASSES passes of false
    position with the Anderson-Bjorck step, and the energies evaluated at
    the roots.  A row is bistable iff its extrema are a minimum, a maximum
    and a minimum with gaps dE_g = E_bar - E_open > 0 and dE_r = E_bar -
    E_closed > 0; then xi = (dE_g - dE_r) / (dE_g + dE_r).  A row with no
    minimum, or one extremum, is monostable; any other is multistable.
    """
    x = np.asarray(psi, dtype=float)
    if x[0] < 0.0 < x[-1]:
        x = np.concatenate([x[x < 0.0], [-0.0, 0.0], x[x > 0.0]])
    s = slope(np.arange(n)[:, None], x)
    neg = s < 0.0
    for end, inner in ((0, 1), (-1, -2)):
        neg[:, end] = np.where(s[:, end] == 0.0, neg[:, inner], neg[:, end])
    rows, cols = np.divmod(np.flatnonzero(neg[:, 1:] != neg[:, :-1]), len(x) - 1)
    is_min = neg[rows, cols]
    a, b, fa, fb = x[cols], x[cols + 1], s[rows, cols], s[rows, cols + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(REFINE_PASSES):
            c = np.where(fb == 0.0, b, b - fb * (b - a) / (fb - fa))
            fc = slope(rows, c)
            # keep b's side: scale fa by 1 - fc/fb (Illinois: by 1/2)
            m, turn = 1.0 - fc / fb, fc * fb < 0.0
            fa = np.where(turn, fb, np.where((0.0 < m) & (m < 1.0), m, 0.5) * fa)
            a, b, fb = np.where(turn, b, a), c, fc
    e = energy(rows, b)
    count = np.bincount(rows, minlength=n)
    k = np.cumsum(count) - count            # each row's first extremum
    e3, m3 = np.append(e, [np.nan] * 3), np.append(is_min, [False] * 3)
    d_g, d_r = e3[k + 1] - e3[k], e3[k + 1] - e3[k + 2]
    bistable = ((count == 3) & m3[k] & ~m3[k + 1] & m3[k + 2]
                & (d_g > 0) & (d_r > 0))
    d_g, d_r = np.where(bistable, d_g, np.nan), np.where(bistable, d_r, np.nan)
    mono = (np.bincount(rows, is_min, minlength=n) == 0) | (count == 1)
    stability = np.select([bistable, mono], ["bistable", "monostable"],
                          "multistable")
    return LandscapeExtrema(rows, b + 0.0, e, is_min, stability,
                            (d_g - d_r) / (d_g + d_r))


class BistabilityReport(_Record):
    stability_class: str
    psi_open: float | None = None
    psi_closed: float | None = None
    psi_barrier: float | None = None
    E_open: float | None = None
    E_closed: float | None = None
    E_barrier: float | None = None
    delta_E_g: float | None = None
    delta_E_r: float | None = None
    ratio_xi: float | None = None
    minima: list = []

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k != "minima"}


def characterize_bistability(curve):
    """Classify a landscape curve and measure its energy gaps: row 0 of
    ``landscape_extrema``.  Every report lists the minima.  ``curve.psi``
    and ``curve.energy`` must be finite (M,) arrays, or ``_read`` refuses
    them by name, and psi must run from the open to the closed phase.  A
    spring model with every kappa 0 is refused too: its landscape is flat
    and has no stable state to report."""
    psi = _read("curve.psi", curve.psi, -_HUGE, _HUGE, shape=(None,))
    if not (psi.size and psi[0] < 0.0 < psi[-1]):
        raise ValueError("curve.psi must span both the open and closed phase")
    _read("curve.energy", curve.energy, -_HUGE, _HUGE, shape=psi.shape)
    _read("max(curve.springs.kappa)", np.max(curve.springs.kappa, initial=0.0), _TINY, _HUGE)
    ext = landscape_extrema(psi, 1, *_uniform_landscapes(
        curve.alpha, curve.springs.kappa, curve.springs.rest_angle[None]))
    psi, E = ext.psi.tolist(), ext.energy.tolist()
    minima = [(p, e) for p, e, m in zip(psi, E, ext.is_min) if m]
    if ext.stability_class[0] != "bistable":
        return BistabilityReport(str(ext.stability_class[0]), minima=minima)
    return BistabilityReport(
        "bistable", psi_open=psi[0], psi_closed=psi[2], psi_barrier=psi[1],
        E_open=E[0], E_closed=E[2], E_barrier=E[1], delta_E_g=E[1] - E[0],
        delta_E_r=E[1] - E[2], ratio_xi=float(ext.ratio_xi[0]), minima=minima)


class RatioSurface(_Record):
    rest_main: np.ndarray
    rest_boundary: np.ndarray
    xi: np.ndarray               # (len(rest_main), len(rest_boundary)), NaN where undefined
    contours: list               # list of polylines, each an (m, 2) array


def ratio_surface(geom, rest_main_grid, rest_boundary_grid):
    """Energy-ratio surface xi over a grid of rest angles, each point the
    landscape of one unit with kappa = 1 (every unit sees the same angles
    and xi is scale-free), classified by ``landscape_extrema`` in blocks of
    about SURFACE_BLOCK slope samples; xi is NaN unless bistable.  Each
    grid must be a non-empty 1-D array of rest angles in the domain that
    ``SpringModel.per_kind`` accepts, or a ValueError names it."""
    gm = _read("rest_main_grid", rest_main_grid, 0.0, np.pi, "iuf", (None,))
    gb = _read("rest_boundary_grid", rest_boundary_grid, -np.pi, 0.0, "iuf", (None,))
    for name, g in (("rest_main_grid", gm), ("rest_boundary_grid", gb)):
        _count(f"len({name})", len(g), 1)
    psis = landscape_psis(geom.alpha, (-np.pi, np.pi))[0]
    rs = _sub_angle(geom.alpha, gm)[:, None]
    xi = np.empty((len(gm), len(gb)))
    step = max(1, SURFACE_BLOCK // (len(psis) * len(gb)))
    for i in range(0, len(gm), step):
        m, s = gm[i:i + step, None], rs[i:i + step]
        rest = np.stack(np.broadcast_arrays(m, s, s, gb), axis=-1).reshape(-1, 4)
        xi[i:i + step] = landscape_extrema(psis, len(rest), *_uniform_landscapes(
            geom.alpha, np.ones(4), rest)).ratio_xi.reshape(-1, len(gb))
    return RatioSurface(rest_main=gm, rest_boundary=gb, xi=xi,
                        contours=zero_contours(gm, gb, xi))


def zero_contours(gx, gy, field):
    """Zero-level polylines of a gridded field with NaN holes: marching
    squares on the cells whose corners are defined, zero counting as
    positive, each grid edge's crossing interpolated once.  A saddle cell
    keeps its (i, j) and (i+1, j+1) corners joined when the cell-centre
    average has their sign.  Segments chain through shared edges into
    polylines, each started at its first segment in row-major cell order;
    a closed loop repeats its first point at the end."""
    f = np.asarray(field, dtype=float)
    nx, ny = f.shape
    # per cell the corners (i, j), (i+1, j), (i+1, j+1), (i, j+1); edge k
    # runs from corner k to corner k + 1, counterclockwise
    corner = [np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]]
    neg, ok = f < 0.0, np.isfinite(f)
    ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    crossed = np.empty((nx - 1, ny - 1, 4), dtype=bool)
    for k in range(4):
        crossed[..., k] = (neg[corner[k]] != neg[corner[(k + 1) % 4]]) & ok
    cell, k = np.nonzero(crossed.reshape(-1, 4))
    i, j = np.divmod(cell, ny - 1)
    # consecutive crossings pair up; a saddle cell whose centre average
    # parts its (i, j) corner from (i+1, j+1) pairs them from its last edge
    parted = crossed.reshape(-1, 4)[cell].all(axis=-1) & (
        (f[i, j] + f[i + 1, j] + f[i + 1, j + 1] + f[i, j + 1] < 0.0) != neg[i, j])
    # edges along x, (nx - 1, ny), are numbered before those along y
    n_x = (nx - 1) * ny
    eid = np.choose(k, [i * ny + j, n_x + (i + 1) * (ny - 1) + j, i * ny + j + 1,
                        n_x + i * (ny - 1) + j])
    edges, ends = np.unique(eid[np.argsort(4 * cell + (k + parted) % 4)],
                            return_inverse=True)
    # each crossed edge's point, once, from its lower to its upper node
    along_y = edges >= n_x
    i, j = np.where(along_y, np.divmod(edges - n_x, ny - 1), np.divmod(edges, ny))
    i2, j2 = i + ~along_y, j + along_y
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f[i, j] / (f[i, j] - f[i2, j2])
    pts = np.stack([gx[i] + t * (gx[i2] - gx[i]), gy[j] + t * (gy[j2] - gy[j])], -1)
    ends = ends.tolist()
    segs, touching = list(zip(ends[::2], ends[1::2])), {}
    for n, e in enumerate(ends):
        touching.setdefault(e, []).append(n // 2)
    used, polylines = [False] * len(segs), []
    for k, seg in enumerate(segs):
        if used[k]:
            continue
        used[k], line = True, list(seg)
        for _ in range(2):      # grow the end, then the start
            while nxt := [m for m in touching[line[-1]] if not used[m]]:
                used[nxt[0]] = True
                a, b = segs[nxt[0]]
                line.append(b if a == line[-1] else a)
            line.reverse()
        polylines.append(pts[line])
    return polylines
