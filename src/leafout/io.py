"""Serialization: CSV/JSON path exports, OBJ meshes, run manifests.

All CSV files carry a header row, '.' decimal separator and floats
printed with 17 significant digits, so re-running a configuration yields
byte-identical outputs.  JSON files hold the text of
``json.dump(obj, fh, indent=2, sort_keys=True)`` and a newline.

Every float table follows one rule: a CSV table, and a JSON list of
equal-length lists of exact floats.  Block by block of TABLE_BLOCK rows,
each distinct column (columns compared by their bytes, so 0.0 and -0.0
stay apart) is encoded once, by FLOAT for CSV and by the JSON encoder for
JSON; the cells are joined into rows and each block is streamed to the
file.  A uniform path repeats each angle in every unit's column, so most
of its cells are never formatted.  The trigger map, whose repeats run
along rows, formats each distinct value once; any other JSON list of
scalars is one C-encoder call, and other lists are written item by item.
Manifests record the configuration hash and tool version but never
timestamps; the hash is CPython's built-in SHA-256, which needs no
OpenSSL.
"""
import csv
import functools
import itertools
import json

try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython up to 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .kinematics import SVD_CUTOFF

FLOAT = "%.17g"     # deterministic float format, 17 significant digits
TABLE_BLOCK = 64    # table rows encoded at a time
_SCALARS = {int, float, bool, type(None), str}


def _angle_columns(n_cell):
    cols = []
    for n in range(1, n_cell + 1):
        cols.append(f"rho_M_{n}")
        cols.append(f"rho_B_{n}")
    return cols


def _table_rows(block, encode, sep):
    """The rows of one block of float columns (columns, rows), their cells
    joined by ``sep``.  ``encode`` turns a column's list of floats into its
    cells; it runs once per distinct column, twins being found by their
    bytes, never by ``==``, which would merge 0.0 with -0.0."""
    cells, columns = {}, []
    for col in block:
        key = col.tobytes()
        if key not in cells:
            cells[key] = encode(col.tolist())
        columns.append(cells[key])
    return map(sep.join, zip(*columns))


def _csv_cells(values):
    # one printf per column; no FLOAT cell contains a comma
    return (",".join([FLOAT] * len(values)) % tuple(values)).split(",")


def _write_table(fname, header, columns, end="\n"):
    """CSV of equal-length float columns, one FLOAT per cell and each line
    closed by ``end``, written block by block under the table rule."""
    table = np.column_stack(columns).astype(float, copy=False).T
    with open(fname, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, table.shape[1], TABLE_BLOCK):
            fh.write(end.join(_table_rows(table[:, i:i + TABLE_BLOCK], _csv_cells, ","))
                     + end)


def read_csv(fname):
    with open(fname, newline="") as fh:
        return list(csv.reader(fh))


def write_path_csv(geom, path, fname, energies=None):
    """Folding-path table: step, parameter, all vertex angles, all sub
    angles, energy (empty when no spring model applies)."""
    n = geom.n_cell
    header = (["step", path.param_name] + _angle_columns(n)
              + [f"rho_S_{k}" for k in range(1, n + 1)] + ["energy"])
    # the step index prints as an integer under FLOAT
    columns = [np.arange(len(path)), path.params, path.rho_o, path.rho_s]
    if energies is None:
        _write_table(fname, header, columns, end=",\n")
    else:
        _write_table(fname, header, columns + [energies])


def path_to_json_dict(geom, path, energies=None, extra=None):
    d = {
        "geometry": geom.to_dict(),
        "param_name": path.param_name,
        "termination": path.termination,
        "params": path.params.tolist(),
        "rho_o": path.rho_o.tolist(),
        "rho_s": path.rho_s.tolist(),
    }
    if energies is not None:
        d["energy"] = np.asarray(energies, dtype=float).tolist()
    if extra:
        d.update(extra)
    return d


def write_landscape_csv(curve, fname):
    """Uniform landscape table: psi, energy and the three crease angles."""
    _write_table(fname, ["psi", "energy", "rho_M", "rho_S", "rho_B"],
                 [curve.psi, curve.energy, curve.rho_m, curve.rho_s, curve.rho_b])


def write_surface_csv(surface, fname):
    """Ratio-surface table, one row per grid point in row-major order; a
    non-finite xi is written nan."""
    n_main, n_boundary = surface.xi.shape
    xi = np.where(np.isfinite(surface.xi), surface.xi, np.nan)
    _write_table(fname, ["rest_main", "rest_boundary", "xi"],
                 [np.repeat(surface.rest_main, n_boundary),
                  np.tile(surface.rest_boundary, n_main), xi.ravel()])


def contours_to_json_dict(surface):
    return {
        "level": 0.0,
        "polylines": [line.tolist() for line in surface.contours],
    }


def write_trigger_map_csv(tmap, fname):
    """Trigger-map table, one row per cell, rest angle by rest angle.  Each
    distinct value is formatted once: h and E_ball per height, the rest
    angle and delta_E_g per row, E_gap per cell."""
    h_e = [(FLOAT + "," + FLOAT + ",") % he
           for he in zip(tmap.heights.tolist(), tmap.E_ball.tolist())]
    line = "%s%s%s" + FLOAT + ",%s\n"
    with open(fname, "w", newline="") as fh:
        fh.write("rest_angle,h,E_ball,delta_E_g,E_gap,outcome\n")
        for rest, d_g, gaps, outcomes in zip(
                tmap.rest_angles.tolist(), tmap.delta_E_g.tolist(),
                tmap.E_gap.tolist(), tmap.outcomes.tolist()):
            r, g = FLOAT % rest + ",", FLOAT % d_g + ","
            fh.writelines(line % (r, he, g, gap, out)
                          for he, gap, out in zip(h_e, gaps, outcomes))


def trigger_contour_json_dict(tmap):
    return {
        "contour": "E_gap=0",
        "rest_angle_rad": tmap.rest_angles.tolist(),
        "threshold_height_m": tmap.threshold_heights.tolist(),
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
        if len(r) != 2 or not 0 <= float(r[0]) < np.inf:
            raise ValueError(f"malformed observation row: {r}")
        outcome = r[1].strip()
        if outcome not in ("cross", "circle", "triangle"):
            raise ValueError(f"unknown observation outcome {outcome!r}")
        out.append((float(r[0]) * 1e-3, outcome))
    return out


def write_json(obj, fname):
    """The text of ``json.dump(obj, fh, indent=2, sort_keys=True)`` and a
    newline, streamed to the file."""
    with open(fname, "w") as fh:
        _write_json(fh.write, obj, "\n")
        fh.write("\n")


@functools.lru_cache(maxsize=None)     # one per indent depth
def _encoder(inner):
    return json.JSONEncoder(separators=("," + inner, ": "))


def _json_cells(values):
    # no JSON number contains a comma
    return _encoder("").encode(values)[1:-1].split(",")


def _is_float_table(o):
    """Whether ``o`` is a list of equal-length lists of exact floats; the
    cell types are read in one pass over the whole table."""
    return (isinstance(o, list) and o and set(map(type, o)) == {list}
            and len(set(map(len, o))) == 1
            and set(map(type, itertools.chain.from_iterable(o))) == {float})


def _write_json(write, o, outer):
    """Write ``o`` as json.dump does with ``outer`` as its line start.  A
    list of scalars is one call of the C encoder, whose item separator
    carries the newline and indent; a float table follows the table rule;
    anything else is written item by item."""
    inner = outer + "  "
    enc = _encoder(inner)
    if isinstance(o, (list, tuple)) and o and set(map(type, o)) <= _SCALARS:
        write("[" + inner + enc.encode(o)[1:-1] + outer + "]")
    elif _is_float_table(o):
        cell = inner + "  "
        row_sep = inner + "]," + inner + "[" + cell
        for i in range(0, len(o), TABLE_BLOCK):
            rows = _table_rows(np.array(o[i:i + TABLE_BLOCK]).T, _json_cells, "," + cell)
            write(("," if i else "[") + inner + "[" + cell + row_sep.join(rows)
                  + inner + "]")
        write(outer + "]")
    elif not (isinstance(o, (dict, list, tuple)) and o):
        write(enc.encode(o))
    else:
        if isinstance(o, dict):
            # sorted as json.dump sorts them; the C encoder turns each key
            # into its string as json.dump does, or raises as it does
            ends, items = "{}", ((enc.encode({k: 0})[1:-4] + ": ", v)
                                 for k, v in sorted(o.items()))
        else:
            ends, items = "[]", (("", v) for v in o)
        for i, (key, value) in enumerate(items):
            write(("," if i else ends[0]) + inner + key)
            _write_json(write, value, inner)
        write(outer + ends[1])


def config_hash(config):
    return sha256(
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
    }
