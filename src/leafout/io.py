"""Serialization: CSV/JSON path exports, OBJ meshes, run manifests.

All CSV files carry a header row, '.' decimal separator and floats
printed with 17 significant digits, so re-running a configuration yields
byte-identical outputs.  Manifests record the configuration hash and
tool version but never timestamps.
"""
import csv
import hashlib
import io as _io
import json

import numpy as np

from . import __version__
from .kinematics import SVD_CUTOFF


def fmt(x):
    """Deterministic float formatting, 17 significant digits."""
    return f"{float(x):.17g}"


def _angle_columns(n_cell):
    cols = []
    for n in range(1, n_cell + 1):
        cols.append(f"rho_M_{n}")
        cols.append(f"rho_B_{n}")
    return cols


def path_rows(geom, path, energies=None):
    """Rows of a folding-path table: step, parameter, all vertex angles,
    all sub angles, energy (empty when no spring model applies)."""
    angles = path.angles()
    subs = path.sub_angles()
    header = (["step", path.param_name] + _angle_columns(geom.n_cell)
              + [f"rho_S_{n}" for n in range(1, geom.n_cell + 1)] + ["energy"])
    rows = [header]
    for k in range(len(path)):
        row = [str(k), fmt(path.params[k])]
        row += [fmt(a) for a in angles[k]]
        row += [fmt(a) for a in subs[k]]
        row.append(fmt(energies[k]) if energies is not None else "")
        rows.append(row)
    return rows


def write_csv(rows, fname):
    with open(fname, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def csv_text(rows):
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def read_csv(fname):
    with open(fname, newline="") as fh:
        return list(csv.reader(fh))


def read_path_csv(fname):
    """Inverse of write_path_csv: (param_name, params, rho_o, rho_s, energy).

    The energy array is None when the column is empty.
    """
    rows = read_csv(fname)
    header = rows[0]
    if header[0] != "step" or header[-1] != "energy":
        raise ValueError("not a folding-path table")
    n_cell = sum(1 for c in header if c.startswith("rho_M_"))
    params = np.array([float(r[1]) for r in rows[1:]])
    rho_o = np.array([[float(v) for v in r[2:2 + 2 * n_cell]] for r in rows[1:]])
    rho_s = np.array([[float(v) for v in r[2 + 2 * n_cell:2 + 3 * n_cell]]
                      for r in rows[1:]])
    has_energy = rows[1][-1] != "" if len(rows) > 1 else False
    energy = (np.array([float(r[-1]) for r in rows[1:]])
              if has_energy else None)
    return header[1], params, rho_o, rho_s, energy


def write_path_csv(geom, path, fname, energies=None):
    write_csv(path_rows(geom, path, energies), fname)


def path_to_json_dict(geom, path, energies=None, extra=None):
    d = {
        "geometry": geom.to_dict(),
        "param_name": path.param_name,
        "termination": path.termination,
        "params": [float(p) for p in path.params],
        "rho_o": [[float(a) for a in s.rho_o] for s in path.states],
        "rho_s": [[float(a) for a in s.rho_s] for s in path.states],
    }
    if energies is not None:
        d["energy"] = [float(e) for e in energies]
    if extra:
        d.update(extra)
    return d


def landscape_rows(curve):
    rows = [["psi", "energy", "rho_M", "rho_S", "rho_B"]]
    for k in range(len(curve.psi)):
        rows.append([fmt(curve.psi[k]), fmt(curve.energy[k]),
                     fmt(curve.rho_m[k]), fmt(curve.rho_s[k]),
                     fmt(curve.rho_b[k])])
    return rows


def surface_rows(surface):
    rows = [["rest_main", "rest_boundary", "xi"]]
    for i, rm in enumerate(surface.rest_main):
        for j, rb in enumerate(surface.rest_boundary):
            v = surface.xi[i, j]
            rows.append([fmt(rm), fmt(rb), fmt(v) if np.isfinite(v) else "nan"])
    return rows


def contours_to_json_dict(surface):
    return {
        "level": 0.0,
        "polylines": [[[float(x), float(y)] for x, y in line]
                      for line in surface.contours],
    }


def trigger_map_rows(tmap):
    rows = [["rest_angle", "h", "E_ball", "delta_E_g", "E_gap", "outcome"]]
    for row in tmap.predictions:
        for p in row:
            rows.append([fmt(p.rest_angle), fmt(p.h), fmt(p.E_ball),
                         fmt(p.delta_E_g), fmt(p.E_gap), p.outcome])
    return rows


def trigger_contour_json_dict(tmap):
    return {
        "contour": "E_gap=0",
        "rest_angle_rad": [float(r) for r in tmap.rest_angles],
        "threshold_height_m": [float(h) for h in tmap.threshold_heights],
        "observations": [{"h_m": float(h), "outcome": str(o)}
                         for h, o in tmap.observations],
    }


def read_observations_csv(fname):
    """Observation overlay file: header 'h_mm,outcome', outcomes are the
    marker names cross / circle / triangle."""
    rows = read_csv(fname)
    if not rows or [c.strip() for c in rows[0]] != ["h_mm", "outcome"]:
        raise ValueError("observation file must have header 'h_mm,outcome'")
    out = []
    for r in rows[1:]:
        if len(r) != 2:
            raise ValueError(f"malformed observation row: {r}")
        outcome = r[1].strip()
        if outcome not in ("cross", "circle", "triangle"):
            raise ValueError(f"unknown observation outcome {outcome!r}")
        out.append((float(r[0]) * 1e-3, outcome))
    return out


def write_json(obj, fname):
    with open(fname, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config):
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def manifest_dict(config, outputs, status="ok", terminations=None):
    return {
        "tool": "leafout",
        "version": __version__,
        "config_sha256": config_hash(config),
        "task": config.get("task", {}).get("name"),
        "outputs": sorted(outputs),
        "status": status,
        "terminations": terminations or {},
        "svd_cutoff": SVD_CUTOFF,
        "null_basis": "numpy.linalg.svd, descending singular values",
    }
