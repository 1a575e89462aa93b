"""Output checks built from independent exact relations.

Nothing here imports leafout.  Every expected value comes from the
rigid-origami relations of the leaf-out pattern, evaluated by this file,
and every comparison has a tolerance: an invocation fails a check only
when its answer is wrong, never because its bytes changed.

The relations (alpha = pi / n_cell):

* closure: the chain product of rot_x(rho_j) rot_z(alpha) over the
  central-vertex creases is the identity;
* sub crease: tan(rho_S / 2) = tan(rho_M / 2) / cos(alpha);
* uniform motion: rho_B = -2 |psi| and
  rho_M = 2 (phi + arccos(cos(alpha) cos(psi) / R)) with
  R = hypot(cos(alpha), sin(alpha) sin(psi)),
  phi = atan2(sin(alpha) sin(psi), cos(alpha)), on psi in
  (-pi/2, pi/2 - alpha);
* PET drop test: springs on the boundary creases only give the barrier
  n/2 kappa_b rest^2, so the threshold height is that over m g.
"""
import csv
import hashlib
import json
import math
import os

import numpy as np

CLOSURE_TOL = 1e-10        # max |F - I| of the re-evaluated chain product
ANGLE_TOL = 1e-9           # rad, exact angle relations
ENERGY_TOL = 1e-9          # relative, spring energies
THRESHOLD_RTOL = 1e-6      # relative, drop-test barrier and threshold
# The CLI finds landscape extrema on a 0.5 deg psi grid; against the dense
# oracle its worst xi error on the seed code is 4e-3.
XI_TOL = 1e-2
ORACLE_SAMPLES = 40000     # dense oracle grid points per fold phase
ROBUST_SEP = math.radians(3.0)
ROBUST_DE = 1e-4
XI_SPOTS_BISTABLE = 16
XI_SPOTS_OTHER = 8
G = 9.81
KAPPA_UNIT_SI = {"N*mm/rad/mm": 1e-3, "N*m/rad/mm": 1.0}


def config_sha256(config):
    """The config hash the CLI records in its manifest."""
    return hashlib.sha256(json.dumps(config, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


# ----------------------------------------------------------------------
# exact relations

def chain_deviation(alpha, rho_o):
    """max |F - I| per state; rho_o is (states, 2 n_cell)."""
    c, s = np.cos(rho_o), np.sin(rho_o)
    ca, sa = math.cos(alpha), math.sin(alpha)
    X = np.zeros(rho_o.shape + (3, 3))
    X[..., 0, 0], X[..., 0, 1] = ca, -sa
    X[..., 1, 0], X[..., 1, 1], X[..., 1, 2] = sa * c, ca * c, -s
    X[..., 2, 0], X[..., 2, 1], X[..., 2, 2] = sa * s, ca * s, c
    F = np.broadcast_to(np.eye(3), (len(rho_o), 3, 3))
    for j in range(rho_o.shape[1]):
        F = F @ X[:, j]
    return np.max(np.abs(F - np.eye(3)), axis=(1, 2))


def sub_angle(alpha, rho_m):
    """rho_S from tan(rho_S / 2) = tan(rho_M / 2) / cos(alpha)."""
    return 2.0 * np.arctan2(np.sin(rho_m / 2), math.cos(alpha) * np.cos(rho_m / 2))


def uniform_angles(alpha, psi):
    """(rho_M, rho_B) of the uniform motion at Euler angle psi."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    R = np.hypot(ca, sa * np.sin(psi))
    phi = np.arctan2(sa * np.sin(psi), ca)
    rho_m = 2.0 * (phi + np.arccos(np.clip(ca * np.cos(psi) / R, -1.0, 1.0)))
    return rho_m, -2.0 * np.abs(psi)


def motion_range(alpha):
    return -math.pi / 2, math.pi / 2 - alpha


def uniform_spring_energy(alpha, springs, rho_m, rho_s, rho_b):
    """Energy of identical springs (one kappa, per-kind rest angles) over
    (states, units) angle arrays."""
    kappa = float(springs["kappa"])
    rm = math.radians(springs["rest_deg"]["rho_m"])
    rb = math.radians(springs["rest_deg"]["rho_b"])
    rs = float(sub_angle(alpha, rm))
    per_unit = (rho_m - rm) ** 2 + 2 * (rho_s - rs) ** 2 + (rho_b - rb) ** 2
    return 0.5 * kappa * np.sum(per_unit, axis=-1)


class LandscapeOracle:
    """Dense uniform landscape over a psi interval, exact node at psi = 0."""

    def __init__(self, n_cell, psi_lo, psi_hi, samples=ORACLE_SAMPLES):
        self.n_cell = n_cell
        self.alpha = math.pi / n_cell
        self.psi = np.concatenate([np.linspace(psi_lo, 0.0, samples + 1),
                                   np.linspace(0.0, psi_hi, samples + 1)[1:]])
        self.rho_m, self.rho_b = uniform_angles(self.alpha, self.psi)
        self.rho_s = sub_angle(self.alpha, self.rho_m)

    def classify(self, rest_m, rest_b, kappa=1.0):
        """(bistable, xi, robust) for identical springs with these rests.

        A design is robust when its extrema and the interval ends lie at
        least ROBUST_SEP apart in psi and ROBUST_DE apart in energy, so
        that a 0.5 deg landscape grid must resolve them the same way.
        """
        rest_s = float(sub_angle(self.alpha, rest_m))
        E = 0.5 * self.n_cell * kappa * ((self.rho_m - rest_m) ** 2
                                         + 2 * (self.rho_s - rest_s) ** 2
                                         + (self.rho_b - rest_b) ** 2)
        s = np.sign(np.diff(E))
        mins = np.where((s[:-1] < 0) & (s[1:] >= 0))[0] + 1
        maxs = np.where((s[:-1] > 0) & (s[1:] <= 0))[0] + 1
        ext = np.sort(np.concatenate([[0], mins, maxs, [len(E) - 1]]))
        robust = bool(np.all(np.diff(self.psi[ext]) >= ROBUST_SEP)
                      and np.all(np.abs(np.diff(E[ext[1:-1]])) >= ROBUST_DE))
        if len(mins) == 2 and len(maxs) == 1 and mins[0] < maxs[0] < mins[1]:
            d_g, d_r = E[maxs[0]] - E[mins[0]], E[maxs[0]] - E[mins[1]]
            if d_g > 0 and d_r > 0:
                return True, (d_g - d_r) / (d_g + d_r), robust
        return False, None, robust


# ----------------------------------------------------------------------
# file readers

def _rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, cols):
    return np.array([[float(r[c]) for c in cols] for r in rows]).reshape(len(rows), len(cols))


def _path_table(path, n_cell):
    """(params, rho_o, rho_s, energy) of a folding-path CSV."""
    header, rows = _rows(path)
    want = (["step", header[1]] + [f"rho_{k}_{n}" for n in range(1, n_cell + 1)
                                   for k in ("M", "B")]
            + [f"rho_S_{n}" for n in range(1, n_cell + 1)] + ["energy"])
    if header != want:
        raise ValueError(f"{os.path.basename(path)}: unexpected header")
    data = _floats(rows, range(1, len(header)))
    return (data[:, 0], data[:, 1:1 + 2 * n_cell],
            data[:, 1 + 2 * n_cell:1 + 3 * n_cell], data[:, -1])


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# per-task checks; each returns a list of failure messages

def _check_path_states(fails, name, alpha, rho_o, rho_s):
    dev = chain_deviation(alpha, rho_o)
    if not np.all(dev <= CLOSURE_TOL):
        fails.append(f"{name}: closure {dev.max():.3e} > {CLOSURE_TOL:.0e}")
    err = np.abs(rho_s - sub_angle(alpha, rho_o[:, 0::2]))
    if not np.all(err <= ANGLE_TOL):
        fails.append(f"{name}: sub-angle relation off by {err.max():.3e}")


def _check_energy(fails, name, expected, got):
    err = np.abs(got - expected)
    if not np.all(err <= ENERGY_TOL * np.maximum(1.0, np.abs(expected))):
        fails.append(f"{name}: energy off by {err.max():.3e}")


def check_multi_grasp(cfg, out, _):
    n = cfg["geometry"]["n_cell"]
    alpha = math.pi / n
    fails = []
    for units in cfg["task"]["programs"]:
        name = "trace_units-" + "-".join(str(u) for u in sorted(units)) + ".csv"
        params, rho_o, rho_s, energy = _path_table(os.path.join(out, name), n)
        if len(params) < 2 or np.any(np.diff(params) <= 0):
            fails.append(f"{name}: drive parameter not increasing")
        _check_path_states(fails, name, alpha, rho_o, rho_s)
        _check_energy(fails, name, uniform_spring_energy(
            alpha, cfg["springs"], rho_o[:, 0::2], rho_s, rho_o[:, 1::2]), energy)
    bundle = _read_json(os.path.join(out, "multigrasp_bundle.json"))
    if len(bundle["programs"]) != len(cfg["task"]["programs"]):
        fails.append("multigrasp_bundle.json: wrong program count")
    return fails


def check_uniform_path(cfg, out, _):
    n = cfg["geometry"]["n_cell"]
    alpha = math.pi / n
    task = cfg["task"]
    psi, rho_o, rho_s, energy = _path_table(os.path.join(out, "uniform_path.csv"), n)
    fails = []
    lo, hi = (math.radians(x) for x in task["psi_range_deg"])
    if len(psi) != task["n_samples"] or np.max(np.abs(
            psi - np.linspace(lo, hi, task["n_samples"]))) > 1e-12:
        fails.append("uniform_path.csv: psi samples differ from the request")
        return fails
    _check_path_states(fails, "uniform_path.csv", alpha, rho_o, rho_s)
    rho_m, rho_b = uniform_angles(alpha, psi)
    err = max(np.max(np.abs(rho_o[:, 0::2] - rho_m[:, None])),
              np.max(np.abs(rho_o[:, 1::2] - rho_b[:, None])))
    if err > ANGLE_TOL:
        fails.append(f"uniform_path.csv: uniform relations off by {err:.3e}")
    _check_energy(fails, "uniform_path.csv", uniform_spring_energy(
        alpha, cfg["springs"], rho_o[:, 0::2], rho_s, rho_o[:, 1::2]), energy)
    return fails


def check_energy_landscape(cfg, out, oracle):
    n = cfg["geometry"]["n_cell"]
    alpha = math.pi / n
    header, rows = _rows(os.path.join(out, "landscape.csv"))
    psi, E, rho_m, rho_s, rho_b = _floats(rows, range(5)).T
    fails = []
    if header != ["psi", "energy", "rho_M", "rho_S", "rho_B"] \
            or len(psi) != cfg["task"]["n_samples"] or 0.0 not in psi:
        fails.append("landscape.csv: wrong layout or sampling")
        return fails
    exp_m, exp_b = uniform_angles(alpha, psi)
    err = max(np.max(np.abs(rho_m - exp_m)), np.max(np.abs(rho_b - exp_b)),
              np.max(np.abs(rho_s - sub_angle(alpha, rho_m))))
    if err > ANGLE_TOL:
        fails.append(f"landscape.csv: uniform relations off by {err:.3e}")
    _check_energy(fails, "landscape.csv",
                  n * uniform_spring_energy(alpha, cfg["springs"],
                                            rho_m[:, None], rho_s[:, None],
                                            rho_b[:, None]), E)
    report = _read_json(os.path.join(out, "bistability.json"))
    rest = cfg["springs"]["rest_deg"]
    bistable, xi, robust = oracle.classify(math.radians(rest["rho_m"]),
                                           math.radians(rest["rho_b"]),
                                           float(cfg["springs"]["kappa"]))
    if robust:
        if (report["stability_class"] == "bistable") != bistable:
            fails.append(f"bistability.json: class {report['stability_class']!r}"
                         f" but the oracle says bistable={bistable}")
        elif bistable and abs(report["ratio_xi"] - xi) > XI_TOL:
            fails.append(f"bistability.json: xi {report['ratio_xi']:.6f}, "
                         f"oracle {xi:.6f}")
    return fails


def check_export_mesh(cfg, out, _):
    n = cfg["geometry"]["n_cell"]
    with open(os.path.join(out, "mesh.obj")) as fh:
        lines = fh.read().splitlines()
    verts = np.array([[float(x) for x in ln.split()[1:]] for ln in lines
                      if ln.startswith("v ")])
    faces = np.array([[int(x) for x in ln.split()[1:]] for ln in lines
                      if ln.startswith("f ")])
    fails = []
    # central vertex plus seven per unit; four quads per unit, two triangles each
    if verts.shape != (1 + 7 * n, 3) or faces.shape != (8 * n, 3):
        fails.append(f"mesh.obj: {len(verts)} vertices / {len(faces)} faces, "
                     f"expected {1 + 7 * n} / {8 * n}")
    elif not np.all(np.isfinite(verts)) or faces.min() < 1 or faces.max() > len(verts):
        fails.append("mesh.obj: non-finite vertex or face index out of range")
    geom = _read_json(os.path.join(out, "geometry.json"))
    if geom["n_cell"] != n or abs(geom["alpha_rad"] - math.pi / n) > 1e-15:
        fails.append("geometry.json: wrong n_cell or alpha")
    return fails


def check_ratio_surface(cfg, out, spots):
    task = cfg["task"]
    step = math.radians(task["grid_step_deg"])
    gm = _grid(task["rest_main_range_deg"], step)
    gb = _grid(task["rest_boundary_range_deg"], step)
    _, rows = _rows(os.path.join(out, "ratio_surface.csv"))
    fails = []
    if len(rows) != len(gm) * len(gb):
        return [f"ratio_surface.csv: {len(rows)} points, expected "
                f"{len(gm) * len(gb)}"]
    grid = _floats(rows, (0, 1))
    if max(np.max(np.abs(grid[:, 0] - np.repeat(gm, len(gb)))),
           np.max(np.abs(grid[:, 1] - np.tile(gb, len(gm))))) > 1e-12:
        fails.append("ratio_surface.csv: grid differs from the request")
    xi = np.array([float(r[2]) for r in rows]).reshape(len(gm), len(gb))
    finite = xi[np.isfinite(xi)]
    if np.any(np.abs(finite) > 1.0):
        fails.append("ratio_surface.csv: |xi| > 1")
    for i, j, bistable, expect in spots:
        got = xi[i, j]
        if not bistable and np.isfinite(got):
            fails.append(f"xi({i},{j}) = {got:.6f} where the oracle has no barrier")
        elif bistable and not abs(got - expect) <= XI_TOL:
            fails.append(f"xi({i},{j}) = {got:.6f}, oracle {expect:.6f}")
    contours = _read_json(os.path.join(out, "xi_zero_contour.json"))["polylines"]
    for line in contours:
        p = np.asarray(line)
        if (p.ndim != 2 or np.any(p[:, 0] < gm[0] - 1e-12) or np.any(p[:, 0] > gm[-1] + 1e-12)
                or np.any(p[:, 1] < gb[0] - 1e-12) or np.any(p[:, 1] > gb[-1] + 1e-12)):
            fails.append("xi_zero_contour.json: contour leaves the grid")
            break
    return fails


def check_drop_test(cfg, out, _):
    n = cfg["geometry"]["n_cell"]
    task, drop = cfg["task"], cfg["task"]["drop"]
    m = drop["m_ball_g"] * 1e-3
    kappa_si = drop["kappa_pet"] * KAPPA_UNIT_SI[drop["kappa_pet_unit"]]
    kappa_b = kappa_si * drop["effective_width_mm"]
    heights = np.linspace(*(x * 1e-3 for x in task["h_range_mm"]), task["n_h"])
    rests = np.linspace(*(math.radians(x) for x in task["rest_range_deg"]),
                        task["n_rest"])
    barrier = 0.5 * n * kappa_b * rests ** 2
    fails = []
    contour = _read_json(os.path.join(out, "egap_zero_contour.json"))
    thr = np.asarray(contour["threshold_height_m"])
    if thr.shape != rests.shape or np.max(np.abs(
            np.asarray(contour["rest_angle_rad"]) - rests)) > 1e-12:
        return ["egap_zero_contour.json: wrong rest-angle grid"]
    exp_thr = barrier / (m * G)
    err = np.max(np.abs(thr - exp_thr) / exp_thr)
    if err > THRESHOLD_RTOL:
        fails.append(f"threshold heights off by {err:.3e} (relative)")
    _, rows = _rows(os.path.join(out, "trigger_map.csv"))
    if len(rows) != len(rests) * len(heights):
        return fails + [f"trigger_map.csv: {len(rows)} cells, expected "
                        f"{len(rests) * len(heights)}"]
    vals = _floats(rows, range(5))
    r = np.repeat(rests, len(heights))
    h = np.tile(heights, len(rests))
    e_ball = m * G * h
    d_g = np.repeat(barrier, len(heights))
    e_gap = (e_ball - d_g) / kappa_si
    scale = np.maximum(e_ball, d_g) / kappa_si
    errs = [np.max(np.abs(vals[:, 0] - r)), np.max(np.abs(vals[:, 1] - h)),
            np.max(np.abs(vals[:, 2] - e_ball) / e_ball),
            np.max(np.abs(vals[:, 3] - d_g) / d_g),
            np.max(np.abs(vals[:, 4] - e_gap) / scale)]
    if max(errs[:2]) > 1e-12 or max(errs[2:]) > THRESHOLD_RTOL:
        fails.append(f"trigger_map.csv: cell values off by {max(errs):.3e}")
    clear = np.abs(e_gap) > 1e-3 * scale
    outcome = np.array([row[5] for row in rows])
    want = np.where(e_gap < 0, "no-trigger", "grasp")
    if np.any(outcome[clear] != want[clear]):
        fails.append("trigger_map.csv: outcome disagrees with the energy balance")
    return fails


def _grid(rng_deg, step):
    lo, hi = (math.radians(x) for x in rng_deg)
    return np.arange(lo, hi + 1e-9, step)


def _xi_spots(cfg, seed):
    """Seeded robust spot points (i, j, bistable, xi) of a ratio surface."""
    n = cfg["geometry"]["n_cell"]
    task = cfg["task"]
    step = math.radians(task["grid_step_deg"])
    gm = _grid(task["rest_main_range_deg"], step)
    gb = _grid(task["rest_boundary_range_deg"], step)
    lo, hi = motion_range(math.pi / n)
    oracle = LandscapeOracle(n, lo + 1e-6, hi - 1e-6)
    rng = np.random.default_rng([seed, 7])
    spots, n_bi, n_other = [], 0, 0
    for k in rng.permutation(len(gm) * len(gb)):
        if n_bi >= XI_SPOTS_BISTABLE and n_other >= XI_SPOTS_OTHER:
            break
        i, j = divmod(int(k), len(gb))
        bistable, xi, robust = oracle.classify(gm[i], gb[j])
        if not robust or (n_bi if bistable else n_other) >= (
                XI_SPOTS_BISTABLE if bistable else XI_SPOTS_OTHER):
            continue
        spots.append((i, j, bistable, xi))
        n_bi, n_other = n_bi + bistable, n_other + (not bistable)
    return spots


def _manifest_fails(cfg, out):
    path = os.path.join(out, "manifest.json")
    if not os.path.isfile(path):
        return ["manifest.json missing"]
    man = _read_json(path)
    fails = []
    if man.get("status") != "ok":
        fails.append(f"manifest status {man.get('status')!r}")
    if man.get("config_sha256") != config_sha256(cfg):
        fails.append("manifest config_sha256 differs from the generated config")
    missing = [o for o in man.get("outputs", []) if not os.path.isfile(os.path.join(out, o))]
    if missing:
        fails.append(f"outputs listed but missing: {missing}")
    return fails


_CHECKS = {"multi-grasp": check_multi_grasp, "uniform-path": check_uniform_path,
           "energy-landscape": check_energy_landscape,
           "export-mesh": check_export_mesh, "ratio-surface": check_ratio_surface,
           "drop-test": check_drop_test}


def prepare(invocations, seed):
    """One checker per invocation: ``checker(out_dir) -> [failure, ...]``.

    Oracle work that does not depend on the CLI's outputs happens here,
    once per run.
    """
    checkers = []
    for inv in invocations:
        extra = None
        if inv.task == "ratio-surface":
            extra = _xi_spots(inv.config, seed)
        elif inv.task == "energy-landscape":
            n = inv.config["geometry"]["n_cell"]
            lo, hi = (math.radians(x) for x in inv.config["task"]["psi_range_deg"])
            extra = LandscapeOracle(n, lo, hi)
        checkers.append(_checker(inv, extra))
    return checkers


def _checker(inv, extra):
    def check(out):
        try:
            return (_manifest_fails(inv.config, out)
                    or _CHECKS[inv.task](inv.config, out, extra))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return check
