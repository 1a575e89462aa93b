import csv
import hashlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leafout as lf
from leafout import io as lio
from leafout.cli import TASKS, main
from leafout.energy import RatioSurface
from leafout.explore import SVD_CUTOFF
from oracles import read_path_csv


def _g(x):
    """Cell format of the cell-by-cell writers the table writers replaced."""
    return f"{float(x):.17g}"


def _csv_reference(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_fmt_is_17_significant_digits():
    assert lio.FLOAT % np.pi == f"{np.pi:.17g}"
    assert lio.FLOAT % 1.0 == "1"


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt_round_trips_doubles(x):
    assert float(lio.FLOAT % x) == x


def test_path_csv_schema(geom5, tmp_path):
    path = lf.uniform_path(geom5, (np.radians(-20), np.radians(20)), 11)
    springs = lf.SpringModel.uniform(geom5, 1.0, 1.0, -1.0)
    energies = lf.path_energies(geom5, springs, path.rho_o)
    fname = tmp_path / "p.csv"
    lio.write_path_csv(geom5, path, fname, energies)
    rows = lio.read_csv(fname)
    header = rows[0]
    assert header[:2] == ["step", "psi"]
    assert header[2:12] == [f"rho_{k}_{n}" for n in range(1, 6)
                            for k in ("M", "B")]
    assert header[12:17] == [f"rho_S_{n}" for n in range(1, 6)]
    assert header[17] == "energy"
    assert len(rows) == len(path) + 1
    # values round-trip exactly through the 17g format
    k = 3
    assert float(rows[k + 1][1]) == path.params[k]
    assert float(rows[k + 1][2]) == path.rho_o[k, 0]
    assert float(rows[k + 1][17]) == energies[k]


def test_path_csv_round_trips_exactly(geom5, tmp_path):
    path = lf.uniform_path(geom5, (np.radians(-15), np.radians(25)), 9)
    springs = lf.SpringModel.uniform(geom5, 2.0, 0.7, -0.9)
    energies = lf.path_energies(geom5, springs, path.rho_o)
    fname = tmp_path / "rt.csv"
    lio.write_path_csv(geom5, path, fname, energies)
    name, params, rho_o, rho_s, energy = read_path_csv(fname)
    assert name == "psi"
    assert np.array_equal(params, path.params)
    assert np.array_equal(rho_o, path.rho_o)
    assert np.array_equal(rho_s, path.rho_s)
    assert np.array_equal(energy, energies)
    # without energies the column reads back as absent
    lio.write_path_csv(geom5, path, fname)
    assert read_path_csv(fname)[4] is None


def test_csv_writer_deterministic(geom5, springs_bistable, tmp_path):
    curve = lf.landscape_over_psi(geom5, springs_bistable,
                                  (np.radians(-30), np.radians(30)), 13)
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    lio.write_landscape_csv(curve, f1)
    lio.write_landscape_csv(curve, f2)
    assert f1.read_bytes() == f2.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(width=64))
def test_float_format_matches_reference(x):
    assert lio.FLOAT % x == _g(x)


def _path_reference(geom, path, energies):
    n = geom.n_cell
    header = (["step", path.param_name]
              + [f"rho_{k}_{u}" for u in range(1, n + 1) for k in ("M", "B")]
              + [f"rho_S_{u}" for u in range(1, n + 1)] + ["energy"])
    rows = [header]
    for k, (rho_o, rho_s) in enumerate(zip(path.rho_o, path.rho_s)):
        rows.append([str(k), _g(path.params[k])] + [_g(a) for a in rho_o]
                    + [_g(a) for a in rho_s]
                    + [_g(energies[k]) if energies is not None else ""])
    return _csv_reference(rows)


@pytest.mark.parametrize("with_energy", [False, True])
def test_path_csv_matches_reference(geom5, springs_bistable, tmp_path,
                                    with_energy):
    path = lf.uniform_path(geom5, (np.radians(-70), np.radians(45)), 47)
    energies = (lf.path_energies(geom5, springs_bistable, path.rho_o)
                if with_energy else None)
    f = tmp_path / "p.csv"
    lio.write_path_csv(geom5, path, f, energies)
    assert f.read_bytes() == _path_reference(geom5, path, energies).encode()


def test_traced_path_csv_matches_reference(geom5, springs_grasp, tmp_path):
    (path,) = lf.run_programs(geom5, [lf.GraspProgram((1, 3), max_steps=12)])
    energies = lf.path_energies(geom5, springs_grasp, path.rho_o)
    f = tmp_path / "t.csv"
    lio.write_path_csv(geom5, path, f, energies)
    assert f.read_bytes() == _path_reference(geom5, path, energies).encode()


def test_landscape_csv_matches_reference(geom5, springs_bistable, tmp_path):
    curve = lf.landscape_over_psi(geom5, springs_bistable,
                                  (np.radians(-80), np.radians(50)), 61)
    rows = [["psi", "energy", "rho_M", "rho_S", "rho_B"]]
    for k in range(len(curve.psi)):
        rows.append([_g(curve.psi[k]), _g(curve.energy[k]), _g(curve.rho_m[k]),
                     _g(curve.rho_s[k]), _g(curve.rho_b[k])])
    f = tmp_path / "l.csv"
    lio.write_landscape_csv(curve, f)
    assert f.read_bytes() == _csv_reference(rows).encode()


def _surface_reference(surface):
    rows = [["rest_main", "rest_boundary", "xi"]]
    for i, rm in enumerate(surface.rest_main):
        for j, rb in enumerate(surface.rest_boundary):
            v = surface.xi[i, j]
            rows.append([_g(rm), _g(rb), _g(v) if np.isfinite(v) else "nan"])
    return _csv_reference(rows)


_B = lio.TABLE_CELLS
# (outer, inner) grid sizes: 1 x m, n x 1, one block of 8-cell rows and a
# row either side, an inner size that does not divide the block, and one
# outer row longer than a block
_GRIDS = [(1, 7), (9, 1), (_B // 8 - 1, 8), (_B // 8, 8), (_B // 8 + 1, 8),
          (2 * (_B // 7) + 5, 7), (3, _B + 1)]


def _grid_cells(shape):
    """Float cells of a grid: random values with -0.0, 0.0, NaN and +-inf."""
    rng = np.random.default_rng(shape)
    cells = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    odd = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -np.nan])
    return np.where(rng.random(shape) < 0.3, odd[rng.integers(0, 6, size=shape)], cells)


def test_surface_csv_matches_reference(geom5, tmp_path):
    surf = lf.ratio_surface(geom5, np.radians([5.0, 60.0, 120.0]),
                            np.radians([-170.0, -120.0, -60.0, -10.0]))
    assert np.isnan(surf.xi).any() and np.isfinite(surf.xi).any()
    f = tmp_path / "s.csv"
    lio.write_surface_csv(surf, f)
    assert f.read_bytes() == _surface_reference(surf).encode()
    # every non-finite xi is written nan, whatever its sign
    odd = RatioSurface(rest_main=np.array([0.5, 1.0]),
                       rest_boundary=np.array([-1.0, -0.5]),
                       xi=np.array([[0.25, -np.nan], [np.inf, -np.inf]]),
                       contours=[])
    lio.write_surface_csv(odd, f)
    assert f.read_bytes() == _surface_reference(odd).encode()
    assert f.read_text().count(",nan\n") == 3
    for n, m in _GRIDS:
        rest = _grid_cells((2, max(n, m)))
        grid = RatioSurface(rest_main=rest[0, :n], rest_boundary=rest[1, :m],
                            xi=_grid_cells((n, m)), contours=[])
        lio.write_surface_csv(grid, f)
        assert f.read_bytes() == _surface_reference(grid).encode(), (n, m)


def _trigger_reference(tmap):
    rows = [["rest_angle", "h", "E_ball", "delta_E_g", "E_gap", "outcome"]]
    for i, (rest, d_g) in enumerate(zip(tmap.rest_angles, tmap.delta_E_g)):
        for j, (h, e_ball) in enumerate(zip(tmap.heights, tmap.E_ball)):
            gap = tmap.E_gap[i, j]
            rows.append([_g(rest), _g(h), _g(e_ball), _g(d_g), _g(gap),
                         "no-trigger" if gap < 0 else "grasp"])
    return _csv_reference(rows)


def test_trigger_map_csv_matches_reference(geom5, tmp_path):
    scen = lf.DropScenario(m_ball=22.3e-3, R_ball=35e-3, h=0.36)
    tmap = lf.trigger_map(geom5, scen, (0.05, 0.8),
                          (np.radians(60), np.radians(80)), n_h=5, n_rest=3)
    assert set(tmap.outcomes.ravel()) == {"grasp", "no-trigger"}
    f = tmp_path / "m.csv"
    lio.write_trigger_map_csv(tmap, f)
    assert f.read_bytes() == _trigger_reference(tmap).encode()
    for n, m in _GRIDS:
        outer, inner = _grid_cells((2, n)), _grid_cells((2, m))
        grid = lf.TriggerMap(heights=inner[0], rest_angles=outer[0], E_ball=inner[1],
                             delta_E_g=outer[1], E_gap=_grid_cells((n, m)),
                             threshold_heights=outer[1])
        lio.write_trigger_map_csv(grid, f)
        assert f.read_bytes() == _trigger_reference(grid).encode(), (n, m)


def test_grid_table_twin_cell_columns_match_per_cell_reference(tmp_path):
    # cell columns of a grid with m > 1: two with the same bytes, and one
    # that holds -0.0 where its twin holds 0.0, beside an outer, an inner
    # and a string column given as (array, cells)
    f = tmp_path / "g.csv"

    def sign(values):
        return ["neg" if x < 0 else "pos" for x in values]

    for n, m in _GRIDS:
        outer, inner = _grid_cells((2, max(n, m)))
        a, b = _grid_cells((n, m)), _grid_cells((n + 1, m))[1:]
        zeros = np.random.default_rng(n * m).random((n, m)) < 0.5
        zeros.flat[0] = True
        zero = np.where(zeros, 0.0, b)
        columns = [outer[:n, None], inner[None, :m], a, zero, a.copy(),
                   np.where(zeros, -0.0, b), (a, sign)]
        lio._write_table(f, [f"c{k}" for k in range(len(columns))], columns)
        rows = [[f"c{k}" for k in range(len(columns))]]
        for i in range(n):
            for j in range(m):
                x, z = a[i, j], zero[i, j]
                rows.append([_g(outer[i]), _g(inner[j]), _g(x), _g(z), _g(x),
                             _g(-0.0 if zeros[i, j] else z), sign([x])[0]])
        assert f.read_bytes() == _csv_reference(rows).encode(), (n, m)
        cells = [r.split(",") for r in f.read_text().splitlines()[1:]]
        assert ("0", "-0") in {(r[3], r[5]) for r in cells}


def _square_map(n):
    rest, h = np.linspace(0.5, 1.0, n), np.linspace(0.05, 0.8, n)
    return lf.TriggerMap(heights=h, rest_angles=rest, E_ball=h, delta_E_g=rest,
                         E_gap=h[None] - rest[:, None], threshold_heights=rest)


def test_trigger_map_writer_memory_does_not_grow_with_map(tmp_path):
    # the writer holds one block of text, never the map's cells as strings;
    # the untraced first write loads whatever the writer imports
    lio.write_trigger_map_csv(_square_map(50), tmp_path / "m.csv")
    peaks = []
    for n in (50, 200):     # 16 times the cells, both rows shorter than a block
        tmap = _square_map(n)
        tracemalloc.start()
        try:
            lio.write_trigger_map_csv(tmap, tmp_path / "m.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_path_json_round_trip(geom5, tmp_path):
    path = lf.uniform_path(geom5, (np.radians(-10), np.radians(10)), 5)
    d = lio.path_to_json_dict(geom5, path)
    f = tmp_path / "p.json"
    lio.write_json(d, f)
    back = json.loads(f.read_text())
    assert back["param_name"] == "psi"
    assert len(back["rho_o"]) == len(path)
    assert np.allclose(back["rho_o"][2], path.rho_o[2])


def _json_dump_text(obj):
    """The reference text: ``json.dump`` with the writer's settings, of
    the listed values of any numpy array."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, sort_keys=True, default=np.ndarray.tolist)
    return buf.getvalue() + "\n"


_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
_numbers = st.integers() | _floats | _floats.map(np.float64)
_number_lists = st.lists(_numbers, max_size=5)
_strings = st.text(max_size=6) | st.sampled_from(['", "', '"], ["', "a], [b", "{}"])
# tables: rows of ints, bools, None, NaN and +-inf, past one 64-row block
_tables = st.lists(st.lists(st.none() | st.booleans() | st.integers() | _floats,
                            min_size=1, max_size=4), min_size=1, max_size=70)
# a 1-D float array is written as its list
_leaves = (st.none() | st.booleans() | _numbers | _strings | _number_lists
           | st.lists(_floats, max_size=5).map(np.array)
           | st.lists(_number_lists, max_size=4) | _tables
           | st.lists(st.lists(_number_lists, max_size=3), max_size=3))
_json_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_strings, inner, max_size=4)
                   | st.dictionaries(st.integers() | st.booleans(), inner, max_size=3)
                   | st.dictionaries(_floats, inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_write_json_matches_json_dump(tmp_path_factory, obj):
    f = tmp_path_factory.getbasetemp() / "write_json.json"
    lio.write_json(obj, f)
    assert f.read_bytes() == _json_dump_text(obj).encode()


@pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
def test_write_json_tables_match_json_dump(tmp_path, n_rows):
    # mixed-number tables (the generic path) of 1 to 129 rows, alone and nested
    cells = [0.5, -2, True, None, float("nan"), float("inf"), -float("inf"), 1e300]
    table = [[cells[(r + c) % len(cells)] for c in range(r % 3 + 1)]
             for r in range(n_rows)]
    for obj in (table, {"t": table, "u": [table, [[1.0]]]}):
        lio.write_json(obj, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == _json_dump_text(obj)


def _twin_table(n_rows):
    """Float columns (n_rows, 12): twins, 0.0 beside -0.0, NaN and +-inf
    columns, and a column that is a twin in every block but the first."""
    rng = np.random.default_rng(n_rows)
    a, b = rng.normal(size=n_rows), rng.normal(size=n_rows) * 1e-300
    near = a.copy()
    near[0] = np.nextafter(near[0], np.inf)
    zero, full = np.zeros(n_rows), np.ones(n_rows)
    odd = np.choose(np.arange(n_rows) % 3, [np.nan, np.inf, -np.inf])
    return np.column_stack([np.arange(n_rows), a, b, a, zero, -zero, near, b,
                            np.nan * full, np.inf * full, -np.inf * full, odd])


# row counts of one table block and more, and of the earlier 64-row blocks
_ROWS = [1, 63, 64, 65, 129, _B - 1, _B, _B + 1, 2 * _B + 1]


@pytest.mark.parametrize("n_rows", _ROWS)
@pytest.mark.parametrize("end", ["\n", ",\n"])
def test_table_rule_csv_matches_per_cell_reference(tmp_path, n_rows, end):
    table = _twin_table(n_rows)
    header = [f"c{k}" for k in range(table.shape[1])]
    f = tmp_path / "t.csv"
    lio._write_table(f, header, lio._path_columns(table[:, :4], table[:, 4], table[:, 5:]),
                     end)
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + end for row in table.tolist())
    assert f.read_text() == want
    cells = [r.split(",") for r in f.read_text().splitlines()[1:]]
    assert {(r[4], r[5]) for r in cells} == {("0", "-0")}


@pytest.mark.parametrize("n_rows", _ROWS)
def test_table_rule_json_matches_json_dump(tmp_path, n_rows):
    array = _twin_table(n_rows)
    table = array.tolist()
    assert lio._is_float_table(array)
    # lists, and a float array as json.dump writes its list
    for obj in (table, {"t": table, "u": [table, [[1.0]]]}, array, {"a": [array]}):
        lio.write_json(obj, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == _json_dump_text(obj)
    text = (tmp_path / "t.json").read_text()
    assert "0.0,\n" in text and "-0.0,\n" in text
    assert "NaN" in text and "-Infinity" in text


@pytest.mark.parametrize("cell", [1, True, None, np.float64(0.5)])
def test_table_rule_leaves_other_numbers_to_generic_path(tmp_path, cell):
    # one int, bool, None or np.float64 among floats: json.dump's own text
    table = _twin_table(65).tolist()
    table[64][3] = cell
    ragged = [[0.5, 1.0], [0.5]]
    for obj in (table, ragged, {"t": table}):
        assert not lio._is_float_table(obj)
        lio.write_json(obj, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == _json_dump_text(obj)


def test_table_rule_on_traced_path(geom5, springs_grasp, tmp_path, monkeypatch):
    # pinned creases repeat some angle columns, not all, and change by block;
    # blocks of 64 rows split this path in three
    monkeypatch.setattr(lio, "TABLE_CELLS", 64)
    (path,) = lf.run_programs(geom5, [lf.GraspProgram((1, 3), max_steps=140)])
    energies = lf.path_energies(geom5, springs_grasp, path.rho_o)
    distinct = {c.tobytes() for c in np.hstack([path.rho_o, path.rho_s]).T}
    assert 1 < len(distinct) < 3 * geom5.n_cell and len(path) > 2 * lio.TABLE_CELLS
    f = tmp_path / "t.csv"
    lio.write_path_csv(geom5, path, f, energies)
    assert f.read_bytes() == _path_reference(geom5, path, energies).encode()
    d = lio.path_to_json_dict(geom5, path, energies)
    lio.write_json(d, tmp_path / "t.json")
    assert (tmp_path / "t.json").read_text() == _json_dump_text(d)


def test_write_json_string_rows_hold_row_boundary(tmp_path):
    # string rows are not tables; the row boundary in a string stays as is
    obj = {"rows": [["],\n      [", "x"], ["],\n      [", 1.0], [2.0, 3.0]]}
    lio.write_json(obj, tmp_path / "s.json")
    assert (tmp_path / "s.json").read_text() == _json_dump_text(obj)


def test_config_hash_needs_no_openssl():
    # importing the CLI loads no OpenSSL binding; the digest is hashlib's
    code = ("import sys, leafout.cli; from leafout import io; "
            "print('_hashlib' in sys.modules, io.config_hash({'b': [1.5], 'a': 'x'}))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    canonical = json.dumps({"a": "x", "b": [1.5]}, separators=(",", ":"))
    assert out == ["False", hashlib.sha256(canonical.encode()).hexdigest()]


def test_cli_import_builds_no_dataclass():
    # the records are plain classes: importing the CLI after numpy, which
    # loads neither module itself, loads no dataclasses and no copy
    code = ("import sys, numpy; before = {'dataclasses', 'copy'} & set(sys.modules); "
            "import leafout.cli; print(sorted(before), sorted({'dataclasses', 'copy'} & "
            "set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[] []\n"


def test_cli_imports_its_largest_modules_before_numpy():
    # explore and kinematics start to import, and so compile, before numpy
    # is loaded: their compiler memory then does not stack on numpy's
    code = ("import sys; seen = {}\n"
            "def hook(event, args):\n"
            "    if event == 'import':\n"
            "        seen.setdefault(args[0], 'numpy' in sys.modules)\n"
            "sys.addaudithook(hook)\n"
            "import leafout.cli\n"
            "print(seen['leafout.explore'], seen['leafout.kinematics'], 'numpy' in seen)")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False False True\n"


def test_package_names_load_on_first_use():
    # importing the package loads none of its modules, and so not numpy;
    # each public name is its module's object, and any other is refused
    code = ("import sys, leafout; print('numpy' in sys.modules, "
            "[m for m in sys.modules if m.startswith('leafout')])")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "False ['leafout']"
    for name in lf.__all__:
        module = importlib.import_module(f"leafout.{lf._MODULE_OF[name]}")
        assert getattr(lf, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="unitcell"):
        lf.unitcell


def test_no_task_imports_numpy_ma(tmp_path):
    # np.unique on strings, for one, imports numpy.ma: 1.6 MB of peak RSS;
    # argparse and gettext cost a cold start a few ms (locale is left out:
    # text-mode open may import it)
    configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps({"task": {"name": "export-mesh", "state": {"type": "flat"}},
                                "geometry": {"n_cell": 5, "L1": 70.0, "L2": 30.0}}))
    runs = [(json.loads(f.read_text())["task"]["name"], str(f), str(tmp_path / f.stem))
            for f in sorted(configs.glob("*.json"))]
    runs.append(("export-mesh", str(mesh), str(tmp_path / "mesh")))
    assert {task for task, _, _ in runs} == set(TASKS)
    code = ("import json, sys; from leafout.cli import main; "
            "print([main([t, '--config', c, '--out', o]) for t, c, o in json.loads(sys.argv[1])], "
            "[m for m in ('numpy.ma', 'argparse', 'gettext') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lio.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout.strip()
    assert out == f"{[0] * len(runs)} []"


def test_write_json_matches_json_dump_on_outputs(geom5, springs_bistable, tmp_path):
    path = lf.uniform_path(geom5, (np.radians(-60), np.radians(40)), 241)
    d = lio.path_to_json_dict(geom5, path,
                              lf.path_energies(geom5, springs_bistable, path.rho_o))
    lio.write_json(d, tmp_path / "uniform_path.json")
    assert (tmp_path / "uniform_path.json").read_text() == _json_dump_text(d)
    cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "multigrasp.json"
    assert main(["multi-grasp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "multigrasp_bundle.json").read_text()
    assert text == _json_dump_text(json.loads(text))


def test_surface_rows_mark_undefined(geom5, tmp_path):
    gm = np.radians([5.0, 60.0])
    gb = np.radians([-170.0, -60.0])
    surf = lf.ratio_surface(geom5, gm, gb)
    lio.write_surface_csv(surf, tmp_path / "s.csv")
    rows = lio.read_csv(tmp_path / "s.csv")
    assert rows[0] == ["rest_main", "rest_boundary", "xi"]
    assert len(rows) == 5
    values = {r[2] for r in rows[1:]}
    assert all(v == "nan" or np.isfinite(float(v)) for v in values)


def test_observation_reader(tmp_path):
    f = tmp_path / "obs.csv"
    f.write_text("h_mm,outcome\n100,cross\n360,circle\n800,triangle\n")
    obs = lio.read_observations_csv(f)
    assert obs == [(0.1, "cross"), (0.36, "circle"), (0.8, "triangle")]
    bad = tmp_path / "bad.csv"
    bad.write_text("h_mm,outcome\n100,banana\n")
    with pytest.raises(ValueError):
        lio.read_observations_csv(bad)
    worse = tmp_path / "worse.csv"
    worse.write_text("height,outcome\n100,cross\n")
    with pytest.raises(ValueError):
        lio.read_observations_csv(worse)
    # a height that is not a number is a malformed row, like any other
    for row in ("abc,cross", "-1,cross", "nan,cross", "100", ""):
        bad.write_text(f"h_mm,outcome\n100,cross\n{row}\n")
        with pytest.raises(ValueError, match="malformed observation row"):
            lio.read_observations_csv(bad)


def test_manifest_contents():
    cfg = {"task": {"name": "uniform-path"}, "geometry": {"n_cell": 5}}
    m = lio.manifest_dict(cfg, ["a.csv"], terminations={"x": "completed"})
    assert m["task"] == "uniform-path"
    assert m["version"] == lf.__version__
    assert "timestamp" not in m and "time" not in m
    assert m["config_sha256"] == lio.config_hash(cfg)
    # hash invariant under key order
    cfg2 = {"geometry": {"n_cell": 5}, "task": {"name": "uniform-path"}}
    assert lio.config_hash(cfg2) == m["config_sha256"]
    # no fields for options that change nothing; the cutoff is the solver's
    assert "threads" not in m and "seed" not in m
    assert "null_basis" not in m      # no task uses a null-space basis
    assert m["svd_cutoff"] == SVD_CUTOFF


def test_trigger_rows_and_contour(geom5, tmp_path):
    scen = lf.DropScenario(m_ball=22.3e-3, R_ball=35e-3, h=0.36)
    tmap = lf.trigger_map(geom5, scen, (0.2, 0.5), (np.radians(60),
                                                    np.radians(80)),
                          n_h=3, n_rest=2,
                          observations=[(0.1, "cross"), (0.36, "circle")])
    lio.write_trigger_map_csv(tmap, tmp_path / "m.csv")
    rows = lio.read_csv(tmp_path / "m.csv")
    assert len(rows) == 1 + 3 * 2
    d = lio.trigger_contour_json_dict(tmap)
    assert len(d["threshold_height_m"]) == 2
    assert d["observations"][0] == {"h_m": 0.1, "outcome": "cross"}
