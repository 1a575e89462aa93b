"""Serialization: CSV/JSON path exports, OBJ meshes, run manifests.

All CSV files carry a header row, '.' decimal separator and floats
printed with 17 significant digits, so re-running a configuration yields
byte-identical outputs.  JSON files hold the text of
``json.dump(obj, fh, indent=2, sort_keys=True)`` and a newline.

Every table follows one rule, the grid rule of ``_table_blocks``: its
columns broadcast to one (outer, inner) grid written in row-major order,
an outer column of shape (n, 1), an inner column (1, m) and a cell column
(n, m).  A path or landscape table is the case m = 1, and so is a JSON
float table, a 2-D float array.  The ratio surface and the trigger map
are grids: a rest value is written once per block and repeated along its
row, a height once per table and tiled.  Block by block of about
TABLE_CELLS cells, each distinct float cell column (compared by its bytes,
so 0.0 and -0.0 stay apart) is encoded once; a uniform path repeats each
angle in every unit's column, so most of its cells are never formatted.
Each block is joined in C and streamed to the file, so no table exists as
text or strings at full size.  Any other JSON list of scalars is one
C-encoder call, and other lists, lists of float lists among them, are
written item by item.

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
from .droptest import _outcome_strings
from .kinematics import SVD_CUTOFF

FLOAT = "%.17g"     # deterministic float format, 17 significant digits
TABLE_CELLS = 256   # grid cells (table lines) encoded at a time
_SCALARS = {int, float, bool, type(None), str}


def _angle_columns(n_cell):
    cols = []
    for n in range(1, n_cell + 1):
        cols.append(f"rho_M_{n}")
        cols.append(f"rho_B_{n}")
    return cols


def _path_columns(*arrays):
    """The (n, 1) float columns of 1-D and 2-D arrays of n rows each."""
    return [col for a in arrays
            for col in np.asarray(a, dtype=float).reshape(len(a), -1).T[:, :, None]]


def _table_blocks(columns, encode, sep, row_sep):
    """The text of a grid table, block by block of whole outer rows (about
    TABLE_CELLS cells), cells joined by ``sep`` and rows by ``row_sep``.

    The columns broadcast to one (n, m) grid, its cells in row-major
    order: an outer column has shape (n, 1), an inner column (1, m) and a
    cell column (n, m); a path table is the case m = 1.  ``encode`` turns
    a list of floats into their cells; strings are taken as they are, and
    a column given as a pair (array, cells) by ``cells`` of its 1-D
    blocks, so that it need not exist as strings at full size.  An outer
    value is written once per block and repeated, an inner value once per
    table and tiled.  Each distinct float cell column of a block is
    encoded once, keyed by its bytes (never ``==``, which would merge 0.0
    with -0.0).  The cells are then joined in C, row by row and then the
    rows."""
    def floats(v):
        return encode(v.tolist())

    columns, writers = zip(*(
        (c, floats if c.dtype.kind == "f" else np.ndarray.tolist)
        if isinstance(c, np.ndarray) else c for c in columns))
    n, m = np.broadcast_shapes(*(c.shape for c in columns))
    step = max(1, TABLE_CELLS // m)
    tiles = [cells(c[0]) if len(c) < n else None for c, cells in zip(columns, writers)]
    for i in range(0, n, step):
        b = min(step, n - i)
        parts, encoded = [], {}     # cell strings per column; float cells by their bytes
        for c, cells, tile in zip(columns, writers, tiles):
            if tile is not None:
                parts.append(itertools.chain.from_iterable(itertools.repeat(tile, b)))
                continue
            v = c[i:i + b]
            if v.shape[1] < m:
                parts.append(itertools.chain.from_iterable(
                    map(itertools.repeat, cells(v.ravel()), itertools.repeat(m))))
            elif cells is floats:
                key = v.tobytes()
                if key not in encoded:
                    encoded[key] = cells(v.ravel())
                parts.append(encoded[key])
            else:
                parts.append(cells(v.ravel()))
        yield row_sep.join(map(sep.join, zip(*parts)))


def _csv_cells(values):
    # one printf per column; no FLOAT cell contains a comma
    return (",".join([FLOAT] * len(values)) % tuple(values)).split(",")


def _write_table(fname, header, columns, end="\n"):
    """CSV of a grid table (``_table_blocks``), one FLOAT per float cell
    and each line closed by ``end``, streamed block by block."""
    with open(fname, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for text in _table_blocks(columns, _csv_cells, ",", end):
            fh.write(text)
            fh.write(end)


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
        _write_table(fname, header, _path_columns(*columns), end=",\n")
    else:
        _write_table(fname, header, _path_columns(*columns, energies))


def path_to_json_dict(geom, path, energies=None, extra=None):
    d = {
        "geometry": geom.to_dict(),
        "param_name": path.param_name,
        "termination": path.termination,
        "params": path.params,
        "rho_o": path.rho_o,
        "rho_s": path.rho_s,
    }
    if energies is not None:
        d["energy"] = np.asarray(energies, dtype=float)
    if extra:
        d.update(extra)
    return d


def write_landscape_csv(curve, fname):
    """Uniform landscape table: psi, energy and the three crease angles."""
    _write_table(fname, ["psi", "energy", "rho_M", "rho_S", "rho_B"],
                 _path_columns(curve.psi, curve.energy, curve.rho_m, curve.rho_s,
                               curve.rho_b))


def write_surface_csv(surface, fname):
    """Ratio-surface table, one row per grid point in row-major order; a
    non-finite xi is written nan."""
    _write_table(fname, ["rest_main", "rest_boundary", "xi"],
                 [surface.rest_main[:, None], surface.rest_boundary[None],
                  np.where(np.isfinite(surface.xi), surface.xi, np.nan)])


def contours_to_json_dict(surface):
    return {
        "level": 0.0,
        "polylines": list(surface.contours),
    }


def write_trigger_map_csv(tmap, fname):
    """Trigger-map table, one row per cell, rest angle by rest angle."""
    _write_table(fname, ["rest_angle", "h", "E_ball", "delta_E_g", "E_gap", "outcome"],
                 [tmap.rest_angles[:, None], tmap.heights[None], tmap.E_ball[None],
                  tmap.delta_E_g[:, None], tmap.E_gap,
                  (tmap.E_gap, lambda gap: _outcome_strings(gap).tolist())])


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
        try:
            h_mm = float(r[0]) if len(r) == 2 else np.nan
        except ValueError:      # not a number
            h_mm = np.nan
        if not 0 <= h_mm < np.inf:
            raise ValueError(f"malformed observation row: {r}")
        outcome = r[1].strip()
        if outcome not in ("cross", "circle", "triangle"):
            raise ValueError(f"unknown observation outcome {outcome!r}")
        out.append((h_mm * 1e-3, outcome))
    return out


def write_json(obj, fname):
    """The text of ``json.dump(obj, fh, indent=2, sort_keys=True)`` and a
    newline, streamed to the file; a 1-D array or a 2-D float array in
    ``obj`` is written as its list."""
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
    """Whether ``o`` is a non-empty 2-D float64 array."""
    return (isinstance(o, np.ndarray) and o.ndim == 2 and o.size > 0
            and o.dtype == np.float64)


def _write_json(write, o, outer):
    """Write ``o`` as json.dump does with ``outer`` as its line start, a
    1-D array or a float table as json.dump writes its list.  A list of
    scalars is one call of the C encoder, whose item separator carries the
    newline and indent; a float table is a grid table of its rows
    (``_table_blocks``); anything else is written item by item."""
    inner = outer + "  "
    enc = _encoder(inner)
    if isinstance(o, np.ndarray) and o.ndim == 1:
        o = o.tolist()
    if isinstance(o, (list, tuple)) and o and set(map(type, o)) <= _SCALARS:
        write("[" + inner + enc.encode(o)[1:-1] + outer + "]")
    elif _is_float_table(o):
        cell = inner + "  "
        row_sep = inner + "]," + inner + "[" + cell
        write("[" + inner + "[" + cell)
        for i, text in enumerate(_table_blocks(_path_columns(np.asarray(o)), _json_cells,
                                               "," + cell, row_sep)):
            if i:
                write(row_sep)
            write(text)
        write(inner + "]" + outer + "]")
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
