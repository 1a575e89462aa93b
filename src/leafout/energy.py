"""Torsion-spring energy, landscapes over psi and bistability reports.

Every spring-bearing crease j contributes (kappa_j / 2)(rho_j - rest_j)^2.
Energies are evaluated along kinematic paths only; the uniform landscape
E(psi) is the workhorse for bistability characterization and for the
rest-angle design surface of the energy ratio xi.
"""
from dataclasses import dataclass, field

import numpy as np

from .unitcell import sub_angle_from_main
from .uniform import (boundary_angle_from_psi, clip_psi_range,
                      main_angle_from_psi, sample_count)

DEFAULT_PSI_STEP = np.radians(0.5)


class ConfigurationError(ValueError):
    """Spring model does not cover the geometry's crease set."""


@dataclass
class SpringModel:
    """Per-crease stiffness and rest angle, in canonical crease order
    (main, sub left, sub right, boundary, per unit counterclockwise)."""
    kappa: np.ndarray
    rest_angle: np.ndarray

    def __post_init__(self):
        self.kappa = np.asarray(self.kappa, dtype=float)
        self.rest_angle = np.asarray(self.rest_angle, dtype=float)
        if self.kappa.shape != self.rest_angle.shape:
            raise ConfigurationError("kappa and rest_angle length mismatch")
        # written so that NaN stiffness fails too
        if not np.all((self.kappa >= 0) & (self.kappa < np.inf)):
            raise ConfigurationError("stiffness must be finite and non-negative")
        # sum kappa (pi + |rest|)^2 bounds twice the energy of any angles
        # in [-pi, pi], so while it is finite no energy overflows
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.sum(self.kappa * (np.pi + np.abs(self.rest_angle)) ** 2)
        if not bound < np.inf:
            raise ConfigurationError("spring energies would overflow: stiffness "
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
        if not 0.0 <= rest_main <= np.pi:
            raise ConfigurationError("main rest angle must be in [0, pi]")
        if not -np.pi <= rest_boundary <= 0.0:
            raise ConfigurationError("boundary rest angle must be in [-pi, 0]")
        if rest_sub is None:
            rest_sub = sub_angle_from_main(geom.alpha, rest_main)
        if not 0.0 <= rest_sub <= np.pi:
            raise ConfigurationError("sub rest angle must be in [0, pi]")
        n = geom.n_cell
        kap = np.tile([kappa_main, kappa_sub, kappa_sub, kappa_boundary], n)
        rest = np.tile([rest_main, rest_sub, rest_sub, rest_boundary], n)
        return cls(kappa=kap, rest_angle=rest)


def crease_angle_matrix(rho_m, rho_s, rho_b):
    """Per-crease current angles in canonical order, vectorized over
    leading sample axes.  Inputs are (..., n_cell) arrays."""
    return np.stack([rho_m, rho_s, rho_s, rho_b], axis=-1).reshape(
        *rho_m.shape[:-1], -1)


def path_energies(geom, springs, path):
    """Total torsion-spring energy of a FoldState, or of every state of a
    FoldingPath (vectorized)."""
    if springs.kappa.shape != (geom.n_total_creases,):
        raise ConfigurationError("spring model size does not match geometry")
    rho = path.rho_o
    angles = crease_angle_matrix(rho[..., 0::2], path.rho_s, rho[..., 1::2])
    return 0.5 * np.sum(springs.kappa * (angles - springs.rest_angle) ** 2,
                        axis=-1)


@dataclass
class LandscapeCurve:
    """E(psi) along the uniform path, with the path arrays kept for
    downstream sweeps."""
    psi: np.ndarray
    energy: np.ndarray
    rho_m: np.ndarray
    rho_s: np.ndarray
    rho_b: np.ndarray
    truncated: bool = False


def uniform_path_arrays(geom, psi_range, n_samples=None):
    """(psi, rho_m, rho_s, rho_b, truncated) arrays of the uniform path,
    clipped to the admissible motion range.

    When the interval spans the flat state the grid is snapped to contain
    psi = 0 exactly: the energy kinks there (the two fold phases meet at
    a corner), and an extremum on that node is exact.
    """
    if n_samples is not None:
        n_samples = sample_count(n_samples)
    lo, hi, clipped = clip_psi_range(geom.alpha, psi_range)
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
    rho_m = main_angle_from_psi(geom.alpha, psis)
    rho_b = boundary_angle_from_psi(geom.alpha, psis)
    rho_s = sub_angle_from_main(geom.alpha, rho_m)
    return psis, rho_m, rho_s, rho_b, clipped


def landscape_over_psi(geom, springs, psi_range, n_samples=None):
    """Energy along the uniform path over a psi interval.

    The requested range is clipped to the admissible motion range and
    flagged when truncation occurs.  Default sampling is 0.5 degrees.
    """
    if springs.kappa.shape != (geom.n_total_creases,):
        raise ConfigurationError("spring model size does not match geometry")
    psis, rho_m, rho_s, rho_b, clipped = uniform_path_arrays(
        geom, psi_range, n_samples)
    kap, rest = springs.kappa, springs.rest_angle
    E = 0.0
    # uniform path: every unit sees the same angles, units may differ in springs
    for u in range(0, len(kap), 4):
        E = E + 0.5 * sum(kap[u + k] * (a - rest[u + k]) ** 2
                          for k, a in enumerate((rho_m, rho_s, rho_s, rho_b)))
    return LandscapeCurve(psi=psis, energy=E, rho_m=rho_m, rho_s=rho_s,
                          rho_b=rho_b, truncated=clipped)


def _refine(x, E, rows, cols):
    """Refined (x, E) of the extrema at samples (rows, cols) of E (B, M) on
    the grid x (M,): the vertex of the parabola through each sample and its
    neighbours, clipped to them.  An extremum on the exact x = 0 node is
    the sample itself, since the landscape kinks at the flat state."""
    xi, yi = x[cols], E[rows, cols]
    d0 = x[cols - 1] - xi
    d2 = x[cols + 1] - xi
    det = d0 * d0 * d2 - d2 * d2 * d0
    dy0 = E[rows, cols - 1] - yi
    dy2 = E[rows, cols + 1] - yi
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (dy0 * d2 - dy2 * d0) / det
        b = (dy2 * d0 * d0 - dy0 * d2 * d2) / det
        t = np.clip(-b / (2.0 * a), d0, d2)
    keep = (det == 0.0) | (a == 0.0) | (xi == 0.0)
    return (np.where(keep, xi, xi + t),
            np.where(keep, yi, yi + b * t + a * t * t))


@dataclass
class LandscapeExtrema:
    """Extrema of B landscapes sampled at M points: the interior minima and
    maxima flags and their refined psi and energy (B, M; NaN elsewhere),
    and per row the class and the gaps and xi (NaN unless bistable)."""
    stability_class: np.ndarray
    is_min: np.ndarray
    is_max: np.ndarray
    psi: np.ndarray
    energy: np.ndarray
    delta_E_g: np.ndarray
    delta_E_r: np.ndarray
    ratio_xi: np.ndarray


def landscape_extrema(psi, E):
    """Find, refine and classify the interior extrema of landscapes E
    (B, M) sampled on one grid psi (M,).

    Minima and maxima are sign flips of diff(E), refined by ``_refine``.
    A row is bistable iff it has exactly two minima, one maximum between
    them and positive gaps dE_g = E_bar - E_open, dE_r = E_bar - E_closed;
    then xi = (dE_g - dE_r) / (dE_g + dE_r).  A row with no minimum, or
    one minimum and no maximum, is monostable; any other is multistable.
    """
    E = np.asarray(E, dtype=float)
    s = np.sign(np.diff(E, axis=1))
    is_min = np.pad((s[:, :-1] < 0) & (s[:, 1:] >= 0), ((0, 0), (1, 1)))
    is_max = np.pad((s[:, :-1] > 0) & (s[:, 1:] <= 0), ((0, 0), (1, 1)))
    rows, cols = np.nonzero(is_min | is_max)
    ref = np.full((2, *E.shape), np.nan)
    ref[:, rows, cols] = _refine(np.asarray(psi, dtype=float), E, rows, cols)
    # open minimum, barrier and closed minimum, if the row has them
    i_open, i_bar = np.argmax(is_min, axis=1), np.argmax(is_max, axis=1)
    i_closed = E.shape[1] - 1 - np.argmax(is_min[:, ::-1], axis=1)
    b = np.arange(len(E))
    d_g = ref[1, b, i_bar] - ref[1, b, i_open]
    d_r = ref[1, b, i_bar] - ref[1, b, i_closed]
    n_min, n_max = is_min.sum(axis=1), is_max.sum(axis=1)
    bistable = ((n_min == 2) & (n_max == 1) & (i_open < i_bar)
                & (i_bar < i_closed) & (d_g > 0) & (d_r > 0))
    d_g, d_r = np.where(bistable, d_g, np.nan), np.where(bistable, d_r, np.nan)
    mono = (n_min == 0) | ((n_min == 1) & (n_max == 0))
    stability = np.where(bistable, "bistable",
                         np.where(mono, "monostable", "multistable"))
    return LandscapeExtrema(stability, is_min, is_max, ref[0], ref[1],
                            d_g, d_r, (d_g - d_r) / (d_g + d_r))


@dataclass
class BistabilityReport:
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
    minima: list = field(default_factory=list)

    def to_dict(self):
        return {k: getattr(self, k) for k in (
            "stability_class", "psi_open", "psi_closed", "psi_barrier",
            "E_open", "E_closed", "E_barrier", "delta_E_g", "delta_E_r",
            "ratio_xi")}


def characterize_bistability(curve):
    """Classify a landscape curve and measure its energy gaps: row 0 of
    ``landscape_extrema``.  Every report lists the refined minima; only a
    bistable one has gaps.
    """
    if curve.psi[0] >= 0.0 or curve.psi[-1] <= 0.0:
        raise ValueError("curve must span both the open and closed phase")
    ext = landscape_extrema(curve.psi, np.asarray(curve.energy)[None])
    minima = list(zip(ext.psi[0, ext.is_min[0]].tolist(),
                      ext.energy[0, ext.is_min[0]].tolist()))
    if ext.stability_class[0] != "bistable":
        return BistabilityReport(str(ext.stability_class[0]), minima=minima)
    (p_open, e_open), (p_closed, e_closed) = minima
    (p_bar,), (e_bar,) = ext.psi[0, ext.is_max[0]], ext.energy[0, ext.is_max[0]]
    return BistabilityReport(
        "bistable", psi_open=p_open, psi_closed=p_closed,
        psi_barrier=float(p_bar), E_open=e_open, E_closed=e_closed,
        E_barrier=float(e_bar), delta_E_g=float(ext.delta_E_g[0]),
        delta_E_r=float(ext.delta_E_r[0]), ratio_xi=float(ext.ratio_xi[0]),
        minima=minima)


@dataclass
class RatioSurface:
    rest_main: np.ndarray
    rest_boundary: np.ndarray
    xi: np.ndarray               # (len(rest_main), len(rest_boundary)), NaN where undefined
    contours: list               # list of polylines, each an (m, 2) array


def ratio_surface(geom, rest_main_grid, rest_boundary_grid):
    """Energy-ratio surface xi over a grid of rest angles.

    xi does not depend on the stiffness scale, so the landscapes take
    kappa = 1.  The uniform path over the whole motion range is
    precomputed once; each grid point only reweights the same path
    arrays, and one ``landscape_extrema`` call classifies a row of
    rest-main values.
    Monostable or multistable points are NaN and excluded from the
    xi = 0 contour.
    """
    psis, rho_m, rho_s, rho_b, _ = uniform_path_arrays(geom, (-np.pi, np.pi))
    gm = np.asarray(rest_main_grid, dtype=float)
    gb = np.asarray(rest_boundary_grid, dtype=float)
    rbs = sub_angle_from_main(geom.alpha, gm)
    n = geom.n_cell
    xi = np.empty((len(gm), len(gb)))
    for i, (rbm, rs_rest) in enumerate(zip(gm, rbs)):
        # energy curves for all rest_boundary values at once
        base = 0.5 * n * ((rho_m - rbm) ** 2 + 2 * (rho_s - rs_rest) ** 2)
        E = base[None, :] + 0.5 * n * (rho_b[None, :] - gb[:, None]) ** 2
        xi[i] = landscape_extrema(psis, E).ratio_xi
    contours = zero_contours(gm, gb, xi)
    return RatioSurface(rest_main=gm, rest_boundary=gb, xi=xi,
                        contours=contours)


def zero_contours(gx, gy, field):
    """Zero-level polylines of a gridded field with NaN holes.

    Marching-squares segments on cells whose corners are all defined,
    chained into polylines by shared endpoints.
    """
    segs = []
    for i in range(len(gx) - 1):
        for j in range(len(gy) - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            vals = [field[a, b] for a, b in corners]
            if any(np.isnan(v) for v in vals):
                continue
            pts = []
            edges = [((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                     ((i + 1, j + 1), (i, j + 1)), ((i, j + 1), (i, j))]
            for (a1, b1), (a2, b2) in edges:
                v1, v2 = field[a1, b1], field[a2, b2]
                if v1 == 0.0 and v2 == 0.0:
                    continue
                if v1 * v2 < 0.0 or (v1 == 0.0) != (v2 == 0.0):
                    t = v1 / (v1 - v2)
                    x = gx[a1] + t * (gx[a2] - gx[a1])
                    y = gy[b1] + t * (gy[b2] - gy[b1])
                    pts.append((x, y))
            if len(pts) == 2:
                segs.append(tuple(pts))
    # chain segments into polylines
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adj = {}
    for a, b in segs:
        adj.setdefault(key(a), []).append((a, b))
        adj.setdefault(key(b), []).append((b, a))
    used = set()
    polylines = []
    for a, b in segs:
        if (key(a), key(b)) in used or (key(b), key(a)) in used:
            continue
        line = [a, b]
        used.add((key(a), key(b)))
        for grow_end in (True, False):
            while True:
                tip = line[-1] if grow_end else line[0]
                nxt = None
                for p, q in adj.get(key(tip), []):
                    if (key(p), key(q)) in used or (key(q), key(p)) in used:
                        continue
                    nxt = q
                    used.add((key(p), key(q)))
                    break
                if nxt is None:
                    break
                if grow_end:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
        polylines.append(np.array(line))
    return polylines
