"""The contracts, fuzzed.

The CLI's exit codes: each stored config at a reduced size, and four
configs for the blocks and states no stored config has (a drop block,
uniform and angles mesh states, per-kind springs), with one key changed to
a hostile value, ends in exit 0 with finite outputs, exit 2 with one JSON
config error and no output directory, or exit 3 with a partial manifest,
and never raises or warns.  Every numeric key of ``cli.SCHEMA``, given a
bool, a string, NaN, a list where a number is due or a number past its
bound, makes `validate` exit 2 with the one line "<dotted key> must be
<domain>, got <value>" of ``kinematics._read``.

The library's entries: ``uniform_state``, ``reconstruct_mesh``,
``trace_paths`` and ``path_energies``, given fold-angle rows of the wrong
length or ndim, text or ragged, with NaN or infinite angles, outside the
boxes, not closed or turning the chain by a half-turn, a tilt or psi that
is not a finite number, or a trace_paths argument (starts, drive or step
count) that is ragged or of the wrong shape, type or value;
``landscape_over_psi``, ``uniform_path`` and ``trigger_map``, given a range
that is not two finite numbers of its domain (for a landscape, two that
differ) or a map count that is not a positive integer; and
``LeafOutGeometry``, ``DropScenario``, ``SpringModel``,
``SpringModel.per_kind``, ``GraspProgram``, ``ratio_surface``,
``sub_angle_from_main``, ``uniform_motion``, ``psi_from_main`` and
``psi_motion_range``, given one argument that is text, ragged, NaN,
infinite, out of its domain or, where it must be a number, array-valued;
and ``mesh_to_obj`` and ``characterize_bistability``, given a mesh or a
landscape curve with one such array (vertices or faces, psi or energy),
faces indexing past the vertices or a psi that misses a phase.  Every
list or array argument of numbers is also given as a list with a bool at
any one position, which numpy would read as a number.  Each entry
returns the oracle's answer or raises a ValueError that names the
argument, and never warns."""
import contextlib
import dataclasses
import functools
import io
import json
import math
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leafout as lf
from leafout.cli import (MAX_CELLS, MAX_GRASP_WORK, MAX_POINTS, SCHEMA, apply_overrides,
                         main)
from leafout.kinematics import _HUGE, MIN_STEP
from oracles import chain_closure_norm, direct_energy

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# the sizes test_scripts.py runs the stored configs at
REDUCED = {"uniform_path": ["task.n_samples=41"], "landscape": [],
           "ratio_surface": ["task.grid_step_deg=12"],
           "drop_map": ["task.n_h=8", "task.n_rest=4"],
           "multigrasp": ["task.delta_rho_c_deg=2.0"]}
GEOMETRY = {"n_cell": 5, "L1": 70.0, "L2": 30.0}


def grasped_angles_deg(n_cell, steps=20):
    """The fold angles, in degrees, of a closed non-uniform state: the end
    of a short grasp on units 1 and 3."""
    geom = lf.LeafOutGeometry(n_cell, GEOMETRY["L1"], GEOMETRY["L2"])
    (path,) = lf.run_programs(geom, [lf.GraspProgram((1, 3), max_steps=steps)])
    return np.degrees(path.rho_o[-1]).tolist()


UNSTORED = {
    "drop_block": {"task": {"name": "drop-test", "n_h": 6, "n_rest": 3, "drop": {
        "m_ball_g": 22.3, "R_ball_mm": 35.0, "h_mm": 360.0, "g": 9.81,
        "kappa_pet": 0.76, "kappa_pet_unit": "N*mm/rad/mm",
        "effective_width_mm": 23.0, "rest_angle_deg": 71.8}}, "geometry": GEOMETRY},
    "mesh": {"task": {"name": "export-mesh", "state": {
        "type": "uniform", "psi_deg": -30.0, "tilt_deg": 5.0}}, "geometry": GEOMETRY},
    "mesh_angles": {"task": {"name": "export-mesh", "state": {
        "type": "angles", "rho_o_deg": grasped_angles_deg(5), "tilt_deg": 5.0}},
        "geometry": GEOMETRY},
    "per_kind_springs": {"task": {"name": "energy-landscape"}, "geometry": GEOMETRY,
                         "springs": {
        "kappa_m": 1.0, "kappa_s": 0.5, "kappa_b": 2.0,
        "rest_deg": {"rho_m": 120.0, "rho_b": -30.0, "rho_s": 100.0}}},
}

HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0, True, "12", [1.0, 2.0]]


def _reduced(name):
    if name in UNSTORED:
        return json.loads(json.dumps(UNSTORED[name]))
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    return apply_overrides(cfg, REDUCED[name])


def _paths(node, path=()):
    """The path of every key, block and list element below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, path + (k,))


def _get(cfg, path):
    for k in path:
        cfg = cfg[k]
    return cfg


def _largest_count(cfg, path):
    """The largest value the CLI accepts for a count key, or None."""
    task, creases = cfg["task"], 2 * cfg["geometry"]["n_cell"]
    return {("geometry", "n_cell"): MAX_CELLS,
            ("task", "n_samples"): MAX_POINTS // creases,
            ("task", "n_h"): MAX_POINTS // task.get("n_rest", 1),
            ("task", "n_rest"): MAX_POINTS // task.get("n_h", 1),
            ("task", "max_steps"): MAX_GRASP_WORK // (
                len(task.get("programs", [])) * creases or 1)}.get(path)


@st.composite
def mutated_configs(draw):
    """(stored config name, config with one key changed, validate only)."""
    name = draw(st.sampled_from(sorted([*REDUCED, *UNSTORED])))
    cfg = _reduced(name)
    path = draw(st.sampled_from(list(_paths(cfg))))
    old, cap = _get(cfg, path), _largest_count(cfg, path)
    choices = [*HOSTILE, "unknown key"]
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        choices.append(-abs(old) - 1)
    if isinstance(old, list) and len(old) == 2:
        choices.append(old[::-1])
    if cap is not None:
        choices += ["at cap", cap + 1]
    new = draw(st.sampled_from(choices))
    parent = _get(cfg, path[:-1])
    if new == "unknown key":
        target = old if isinstance(old, dict) else parent
        if isinstance(target, dict):
            target["zz_unknown"] = 1
        return name, cfg, False
    parent[path[-1]] = cap if new == "at cap" else new
    # a run at the cap is slow by design, so it is only validated
    return name, cfg, new == "at cap"


def _assert_finite_outputs(out):
    """No NaN or inf in any CSV, JSON or OBJ output, except the documented
    nan xi of ratio_surface.csv (empty energy cells and text cells are not
    numbers)."""
    for f in out.iterdir():
        if f.suffix == ".obj":
            assert "nan" not in f.read_text() and "inf" not in f.read_text()
            continue
        if f.suffix == ".json":
            json.loads(f.read_text(), parse_constant=_no_constant)
            continue
        header, *rows = f.read_text().splitlines()
        for row in rows:
            for col, cell in zip(header.split(","), row.split(",")):
                try:
                    x = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(x) or (f.name, col, cell) == (
                    "ratio_surface.csv", "xi", "nan"), (f.name, col, row)


def _no_constant(constant):
    raise AssertionError(f"a JSON output holds {constant}")


def _run(command, cfg, tmp):
    """Exit code and stderr of ``leafout command`` on ``cfg``; the output
    directory is ``tmp / "o"``."""
    path = pathlib.Path(tmp) / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path), "--out", str(pathlib.Path(tmp) / "o")])
    return rc, err.getvalue()


@settings(max_examples=1500, deadline=None)
@given(mutated_configs())
def test_every_config_exits_0_2_or_3(case):
    name, cfg, validate_only = case
    command = "validate" if validate_only else _reduced(name)["task"]["name"]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = _run(command, cfg, tmp)
        assert [str(w.message) for w in caught] == []
        assert rc in (0, 2, 3)
        if rc == 2:
            (line,) = err.splitlines()
            assert json.loads(line)["error"]["kind"] == "config"
            assert not out.exists()
        elif rc == 0 and not validate_only:
            _assert_finite_outputs(out)
        elif rc == 3:
            assert json.loads((out / "manifest.json").read_text())["status"] == "partial"


def test_every_count_at_its_cap_validates():
    # an angles state lists the angles of its own cell count, so its
    # n_cell cannot move alone
    for name in sorted([*REDUCED, *UNSTORED]):
        for path in _paths(_reduced(name)):
            cfg = _reduced(name)
            cap = _largest_count(cfg, path)
            if cap is None or (name, path) == ("mesh_angles", ("geometry", "n_cell")):
                continue
            _get(cfg, path[:-1])[path[-1]] = cap
            with tempfile.TemporaryDirectory() as tmp:
                rc, err = _run("validate", cfg, tmp)
            assert rc == 0, (name, path, cap, err)


@pytest.mark.parametrize("n_cell", [10, 12, 60, MAX_CELLS])
def test_mesh_of_every_state_type_exports(n_cell):
    states = [{"type": "flat"}, {"type": "uniform", "psi_deg": -30.0},
              {"type": "angles", "rho_o_deg": grasped_angles_deg(n_cell, 5)}]
    for state in states:
        cfg = {"task": {"name": "export-mesh", "state": state},
               "geometry": {**GEOMETRY, "n_cell": n_cell}}
        with tempfile.TemporaryDirectory() as tmp:
            for command in ("validate", "export-mesh"):
                rc, err = _run(command, cfg, tmp)
                assert rc == 0, (state["type"], command, err)
            manifest = json.loads((pathlib.Path(tmp) / "o" / "manifest.json").read_text())
            assert manifest["status"] == "ok"


# the stored or unstored config (with overrides) that holds each table of
# numeric keys in SCHEMA, by the path of its block
TASK_CONFIGS = {"uniform-path": "uniform_path", "energy-landscape": "landscape",
                "ratio-surface": "ratio_surface", "drop-test": "drop_map",
                "multi-grasp": "multigrasp", "export-mesh": "mesh"}
SCHEMA_BLOCKS = [
    ("uniform_path", [], ("geometry",), SCHEMA["geometry"]),
    ("landscape", [], ("springs",), SCHEMA["springs"]["uniform"]),
    ("per_kind_springs", [], ("springs",), SCHEMA["springs"]["per kind"]),
    ("landscape", [], ("springs", "rest_deg"), SCHEMA["springs.rest_deg"]),
    ("drop_block", [], ("task", "drop"), SCHEMA["task.drop"]),
    ("mesh", ['task.state={"type": "flat"}'], ("task", "state"), SCHEMA["task.state"]["flat"]),
    ("mesh", [], ("task", "state"), SCHEMA["task.state"]["uniform"]),
    ("mesh_angles", [], ("task", "state"), SCHEMA["task.state"]["angles"]),
    *((TASK_CONFIGS[name], [], ("task",), table) for name, table in SCHEMA["task"].items())]
NUMERIC = ("int", "number", "range", "numbers")
# kinematics._read's words for a numeric key's domain
DOMAIN = (r"(an integer|a number|a \((2|n),\) array of numbers)"
          r" in [(\[](-inf|-?\d+(\.\d+)?), (inf|-?\d+(\.\d+)?)[)\]]")


def _schema_tables(tables):
    """Every table of SCHEMA: a dict of Keys."""
    if all(isinstance(v, dict) for v in tables.values()):
        for table in tables.values():
            yield from _schema_tables(table)
    else:
        yield tables


def _bad_numbers(key, good):
    """A bool, a string, NaN, a list where a number is due and a number past
    a bound of ``key``, each as the value of a scalar key or as the first
    entry of a list key's ``good`` value."""
    past = (key.hi + 1 if key.hi < _HUGE else key.lo - 1 if key.lo > -_HUGE
            else math.inf)
    bad = [True, "12", math.nan, [1.0, 2.0], past]
    return bad if key.type in ("int", "number") else [[b, *good[1:]] for b in bad]


def test_every_numeric_schema_key_refuses_by_name():
    covered = {(id(table), name) for *_, table in SCHEMA_BLOCKS for name in table}
    assert covered >= {(id(table), name) for table in _schema_tables(SCHEMA)
                       for name, key in table.items() if key.type in NUMERIC}
    for config, overrides, block, table in SCHEMA_BLOCKS:
        for name, key in table.items():
            if key.type not in NUMERIC:
                continue
            cfg = apply_overrides(_reduced(config), overrides)
            dotted = ".".join((*block, name))
            good = _get(cfg, block).get(name, key.default)
            for bad in _bad_numbers(key, good):
                _get(cfg, block)[name] = bad
                with tempfile.TemporaryDirectory() as tmp:
                    rc, err = _run("validate", cfg, tmp)
                (line,) = err.splitlines()
                error = json.loads(line)["error"]
                assert (rc, error["kind"]) == (2, "config"), (dotted, bad, err)
                assert re.fullmatch(rf"{re.escape(dotted)}(\[0\])? must be {DOMAIN}, got .+",
                                    error["message"]), (dotted, bad, error)


@functools.lru_cache(maxsize=None)
def _geometry(n_cell):
    return lf.LeafOutGeometry(n_cell, GEOMETRY["L1"], GEOMETRY["L2"])


@functools.lru_cache(maxsize=None)
def _grasped(n_cell):
    (path,) = lf.run_programs(_geometry(n_cell), [lf.GraspProgram((1, 3), max_steps=20)])
    return path.rho_o[-1]


ROW_DEFECTS = ("none", "short", "long", "scalar", "stack", "nan", "box", "open",
               "mirrored", "half-turn", "text", "ragged", "bool")
# trace_paths' arguments in the order it checks them; closure comes last
TRACE_ARGS = ("starts", "delta_rho_0", "controlled", "step_scale", "n_steps")


def _drive_defects(n):
    """Bad values of trace_paths' drive and step count, by argument, for
    one path of n creases."""
    return {"delta_rho_0": [np.full((1, n), np.nan), np.full((1, n), np.inf),
                            np.zeros((1, n - 1)), np.zeros(n), [[0.0] * n, [0.0]],
                            [["0"] * n], None, np.zeros((1, n), dtype=complex)],
            # an index list, an integer mask, masks of the wrong shape and
            # a row that marks no angle
            "controlled": [[[0]], np.zeros((1, n), dtype=int),
                           np.zeros((1, n + 1), dtype=bool), np.zeros(n, dtype=bool),
                           [[False] * n, [False]], np.zeros((1, n), dtype=bool)],
            "step_scale": [np.nan, np.inf, 0.0, -1.0, np.nextafter(MIN_STEP, 0.0),
                           [0.01, 0.01], [[0.01]], [[0.01], 0.01], "0.01", None, True],
            "n_steps": [[[1], 2], 2.5, -1, [-1], "3", True, None, np.float64(1.0)]}


# a range argument from two ends a and b, by whether it is one
RANGES = {True: [lambda a, b: (a, b), lambda a, b: [a, b], lambda a, b: np.array([a, b])],
          False: [lambda a, b: a, lambda a, b: (a,), lambda a, b: (a, (a + b) / 2, b),
                  lambda a, b: (), lambda a, b: [[a], b], lambda a, b: [[a, b]],
                  lambda a, b: (str(a), str(b)), lambda a, b: (False, True),
                  lambda a, b: (True, b), lambda a, b: [a, False],
                  lambda a, b: None, lambda a, b: (a, math.nan),
                  lambda a, b: (-math.inf, b), lambda a, b: (a, math.inf)]}


@st.composite
def with_bool(draw, good):
    """``good``, an array or a non-empty list, as nested lists with a bool
    at any one position: numpy would read it as a number."""
    cells = np.array(good, dtype=object)
    cells.flat[draw(st.integers(0, cells.size - 1))] = draw(st.booleans())
    return cells.tolist()


@st.composite
def ranges(draw, lo, hi, ok):
    """(range argument, its ends (a, b)): ends drawn in [lo, hi] in either
    order, made a range when ``ok`` and something else otherwise."""
    a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    return draw(st.sampled_from(RANGES[ok]))(a, b), (a, b)


@st.composite
def state_inputs(draw):
    """(geometry, rows, starts, drive, broken, tilt, psi): a closed row of
    fold angles, uniform or grasped, with one defect applied (text, ragged
    and bool rows among them); trace_paths' starts made from it, as a
    (1, N) stack or as it is, its drive of one angle by 2e-12 (increments,
    mask, step scale and step count, one number or a list), perhaps with
    one bad argument (a list with a bool among them), and the set of
    trace_paths arguments that are malformed; a tilt for reconstruct_mesh;
    and a psi for uniform_state."""
    geom = _geometry(draw(st.sampled_from([3, 5, 8])))
    n = geom.n_vertex_creases
    lo, hi = lf.psi_motion_range(geom.alpha)
    rho = (lf.uniform_state(geom, draw(st.floats(lo, hi))) if draw(st.booleans())
           else _grasped(geom.n_cell).copy())
    i = draw(st.integers(0, n - 1))
    box = (0.0, np.pi) if i % 2 == 0 else (-np.pi, 0.0)
    defect = draw(st.sampled_from(ROW_DEFECTS))
    if defect == "short":
        rho = rho[:draw(st.integers(0, n - 1))]
    elif defect == "long":
        rho = np.concatenate([rho, np.zeros(draw(st.integers(1, 3)))])
    elif defect == "scalar":
        rho = rho[i]
    elif defect == "stack":
        rho = np.tile(rho, (1, draw(st.integers(1, 3)), 1))
    elif defect == "nan":
        rho[i] = np.nan
    elif defect == "box":
        rho[i] = draw(st.sampled_from([-np.inf, box[0] - 1.0, box[0] - 1e-3,
                                       box[1] + 1e-3, box[1] + 1.0, np.inf]))
    elif defect == "open":
        rho[i] = draw(st.floats(*box).filter(lambda x: abs(x - rho[i]) > 1e-3))
    elif defect == "mirrored":          # closed, with every crease flipped
        rho = -rho
    elif defect == "half-turn":         # the chain turns by pi about crease i
        rho = np.zeros(n)
        rho[i] = sum(box)
    elif defect == "text":
        rho = rho.astype(str).tolist()
    elif defect == "ragged":
        rho = [rho.tolist(), [0.0]]
    elif defect == "bool":
        rho = draw(with_bool(rho))
    psi = draw(st.one_of(st.floats(lo - 0.5, hi + 0.5), st.sampled_from(
        [np.nan, np.inf, np.array([lo, hi]), np.array([0.1]), np.array(0.1), "0.1",
         [[0.1], 0.2], True, None])))
    starts = [rho] if draw(st.booleans()) else rho      # a (1, N) stack or as is
    broken = ({"starts"} if defect in ("text", "ragged", "bool") or np.shape(starts) != (1, n)
              else set())
    # one controlled angle, driven just past the 1e-12 at-face tolerance
    j = draw(st.integers(0, n - 1))
    drive = {"delta_rho_0": np.eye(1, n, j) * draw(st.sampled_from([2e-12, -2e-12])),
             "controlled": np.eye(1, n, j, dtype=bool),
             "step_scale": draw(st.one_of(st.floats(MIN_STEP, 1.0), st.just([0.01]))),
             "n_steps": draw(st.one_of(st.just(1), st.lists(st.just(1), max_size=3)))}
    if np.shape(drive["n_steps"]) not in ((), (1,)):
        broken.add("n_steps")
    bad = draw(st.sampled_from([None, *TRACE_ARGS[1:]]))
    if bad is not None:
        defects = st.sampled_from(_drive_defects(n)[bad])
        if bad != "controlled" and np.ndim(drive[bad]) and np.size(drive[bad]):
            defects |= with_bool(drive[bad])
        drive[bad] = draw(defects)
        broken.add(bad)
    tilt = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
        [np.nan, np.inf, "0.1", None, [0.1], 0.1j])))
    return geom, rho, starts, drive, broken, tilt, psi


@st.composite
def range_inputs(draw):
    """(geometry, landscape range, uniform-path range, whether each is one,
    sample count, trigger-map arguments, the one of them that is bad or
    None): psi ranges inside the motion range, heights up to 1 m and a
    bistable rest-angle range, each range given as (argument, ends)."""
    geom = _geometry(draw(st.sampled_from([3, 5, 8])))
    lo, hi = lf.psi_motion_range(geom.alpha)
    oks = draw(st.booleans()), draw(st.booleans())
    psi_ranges = [draw(ranges(lo + 0.01, hi - 0.01, ok)) for ok in oks]
    bad = draw(st.sampled_from([None, "h_range", "rest_angle_range", "n_h", "n_rest"]))
    limit = np.pi - 2 * geom.alpha      # rest angles past it are not bistable
    # two numbers outside the domain: negative heights, rest angles of 0
    # or less or past pi
    outside = {"h_range": ranges(-1.0, -1e-3, True),
               "rest_angle_range": st.one_of(ranges(-1.0, 0.0, True),
                                             ranges(3.2, 4.0, True))}
    args = {name: draw(ranges(lo, hi, True) if bad != name else
                       st.one_of(ranges(lo, hi, False), outside[name]))
            for name, lo, hi in (("h_range", 0.0, 1.0),
                                 ("rest_angle_range", 0.05, limit - 0.05))}
    for name in ("n_h", "n_rest"):
        args[name] = draw(st.sampled_from(
            [0, -1, 2.5, np.nan, "3", True, None] if bad == name else [1, 2, np.int64(3)]))
    return geom, psi_ranges, oks, draw(st.integers(2, 9)), args, bad


# bad values of any number, array or count argument
NOT_A_NUMBER = ["0.1", None, True, 0.1j, [0.1, 0.2], [[0.1], 0.2]]
NOT_A_COUNT = [2.5, "3", True, None, [3], [[3], 3]]
NOT_POSITIVE = [0.0, -1.0, math.nan, math.inf, *NOT_A_NUMBER]
NOT_AN_ARRAY = [0.1, [], [[0.1, 0.2]], ["0.1", "0.2"], [[0.1], 0.2], None, [0.1, math.nan]]
# bad values of an argument that may be a number or an array of any shape
NOT_NUMBERS = ["0.1", None, True, 0.1j, [[0.1], 0.2], ["0.1", "0.2"], [0.1, math.nan]]
NOT_A_STIFFNESS = [-1.0, math.nan, math.inf, *NOT_A_NUMBER]
ANGLES = {"main": (0.0, np.pi), "boundary": (-np.pi, 0.0)}
ALPHA = np.pi / 5
NOT_AN_ALPHA = [0.0, -0.1, np.pi / 2, 2.0, math.nan, math.inf, *NOT_A_NUMBER]
NOT_A_MAIN_ANGLE = [-0.1, np.pi + 0.1, math.inf, *NOT_NUMBERS]


def _outside(kind):
    """Bad values of an angle of a kind: off its box, not finite, not a
    number."""
    lo, hi = ANGLES[kind]
    return [lo - 0.1, hi + 0.1, math.nan, math.inf, *NOT_A_NUMBER]


def _grid(kind):
    """Bad rest-angle grids of a kind: the generic bad arrays and grids
    with an angle off the box."""
    lo, hi = ANGLES[kind]
    return [*NOT_AN_ARRAY, [lo, hi + 0.1], [lo - 0.1, hi]]


# a mesh and a bistable landscape curve of five cells, whose arrays the
# entries that take them are given
MESH = lf.reconstruct_mesh(_geometry(5), lf.uniform_state(_geometry(5), -0.5))
CURVE = lf.landscape_over_psi(_geometry(5), lf.SpringModel.uniform(
    _geometry(5), 1.0, np.radians(120.0), np.radians(-30.0)), (-1.5, 0.9), 601)


def _with_entry(array, index, value):
    """A copy of ``array`` with one entry set to ``value``."""
    array = np.array(array)
    array[index] = value
    return array


NOT_FINITE_ROWS = [_with_entry(MESH.vertices, (4, 1), math.nan),
                   _with_entry(MESH.vertices, (0, 2), -math.inf), MESH.vertices[:, :2],
                   MESH.vertices.ravel(), [[0.0, 0.0, 0.0], [1.0]],
                   MESH.vertices.astype(str), None, "0.1"]
NOT_A_CURVE_ARRAY = [math.nan, math.inf, "0.1", None, [[0.1], 0.2]]

# every other entry with arguments from outside, by argument: a good value
# and the bad ones
ARGUMENT_ENTRIES = {
    "mesh_to_obj": {"vertices": (MESH.vertices, NOT_FINITE_ROWS),
                    # past the last vertex, negative, triangles, not integers
                    "faces": (MESH.faces, [
                        [*MESH.faces[:-1], (0, 1, 2, len(MESH.vertices))],
                        [(-1, 1, 2, 3)], [(0, 1, 2)], [(0.0, 1.0, 2.0, 3.0)],
                        [("0", "1", "2", "3")], None])},
    "characterize_bistability": {
        "psi": (CURVE.psi, [_with_entry(CURVE.psi, 7, math.nan),
                            _with_entry(CURVE.psi, -1, math.inf), CURVE.psi[:, None],
                            np.abs(CURVE.psi), CURVE.psi[:0], *NOT_A_CURVE_ARRAY]),
        "energy": (CURVE.energy, [_with_entry(CURVE.energy, 3, math.nan),
                                  CURVE.energy[:-1], CURVE.energy[None],
                                  *NOT_A_CURVE_ARRAY])},
    "LeafOutGeometry": {"n_cell": (5, [2, -1, 5.0, *NOT_A_COUNT]),
                        "L1": (70.0, NOT_POSITIVE), "L2": (30.0, NOT_POSITIVE)},
    "DropScenario": {"m_ball": (22.3e-3, NOT_POSITIVE), "R_ball": (35e-3, NOT_POSITIVE),
                     "h": (0.36, [-1e-3, math.nan, math.inf, *NOT_A_NUMBER]),
                     "g": (9.81, NOT_POSITIVE), "kappa_pet": (0.76, NOT_POSITIVE),
                     # None takes the width of the complete comb teeth
                     "effective_width_mm": (23.0, [x for x in NOT_POSITIVE if x is not None]),
                     "rest_angle": (1.25, [0.0, 3.2, math.nan, *NOT_A_NUMBER])},
    "SpringModel.per_kind": {"kappa_main": (1.0, NOT_A_STIFFNESS),
                             "kappa_sub": (0.5, NOT_A_STIFFNESS),
                             "kappa_boundary": (2.0, NOT_A_STIFFNESS),
                             "rest_main": (2.0, _outside("main")),
                             "rest_boundary": (-0.5, _outside("boundary")),
                             # None takes the sub angle of rest_main
                             "rest_sub": (2.1, [x for x in _outside("main") if x is not None])},
    "SpringModel": {"kappa": (np.ones(20), [[-1.0] * 20, [math.inf] * 20, *NOT_AN_ARRAY]),
                    "rest_angle": (np.full(20, 0.5), NOT_AN_ARRAY)},
    "GraspProgram": {"controlled_units": ((3, 1), [(), ("a",), (0,), (1.5,), (True,),
                                                   [[1], 2], None, "1"]),
                     "delta_rho_c": (0.01, [0.0, MIN_STEP / 2, 3.2, math.nan, math.inf,
                                            *NOT_A_NUMBER]),
                     "max_steps": (3, [0, -1, *NOT_A_COUNT])},
    "ratio_surface": {"rest_main_grid": ([1.0, 2.0], _grid("main")),
                      "rest_boundary_grid": ([-2.0, -1.0], _grid("boundary"))},
    "sub_angle_from_main": {"alpha": (ALPHA, NOT_AN_ALPHA),
                            "rho_m": ([0.0, 1.0, np.pi], NOT_A_MAIN_ANGLE)},
    "uniform_motion": {"alpha": (ALPHA, NOT_AN_ALPHA),
                       "psi": ([[-0.4], [0.3]], [-np.pi / 2 - 0.1, np.pi / 2 - ALPHA + 0.1,
                                                  [0.1, 1.0], -math.inf, *NOT_NUMBERS])},
    "psi_from_main": {"alpha": (ALPHA, NOT_AN_ALPHA), "rho_m": (1.0, NOT_A_MAIN_ANGLE)},
    "psi_motion_range": {"alpha": (ALPHA, NOT_AN_ALPHA)},
}


@st.composite
def argument_inputs(draw):
    """(entry, its arguments, the one that is bad or None): an entry of
    ARGUMENT_ENTRIES with good arguments, one perhaps swapped for a bad
    value, or, where it is a list or an array, for its list with a bool."""
    entry = draw(st.sampled_from(sorted(ARGUMENT_ENTRIES)))
    table = ARGUMENT_ENTRIES[entry]
    args = {name: good for name, (good, _) in table.items()}
    bad = draw(st.sampled_from([None, *table]))
    if bad is not None:
        good, defects = table[bad]
        defects = st.sampled_from(defects)
        if np.ndim(good):
            defects |= with_bool(good)
        args[bad] = draw(defects)
    return entry, args, bad


def _check_argument_entries(entry, args, bad):
    """The other entries of the contract property: with good arguments
    each returns what they ask for; with a bad one it refuses by name."""
    geom = _geometry(5)
    call = {"LeafOutGeometry": lambda: lf.LeafOutGeometry(**args),
            "DropScenario": lambda: lf.DropScenario(**args),
            "SpringModel.per_kind": lambda: lf.SpringModel.per_kind(geom, **args),
            "SpringModel": lambda: lf.SpringModel(**args),
            "GraspProgram": lambda: lf.GraspProgram(**args),
            "ratio_surface": lambda: lf.ratio_surface(geom, **args),
            "sub_angle_from_main": lambda: lf.sub_angle_from_main(**args),
            "uniform_motion": lambda: lf.uniform_motion(**args),
            "psi_from_main": lambda: lf.psi_from_main(**args),
            "psi_motion_range": lambda: lf.psi_motion_range(**args),
            "mesh_to_obj": lambda: lf.mesh_to_obj(dataclasses.replace(MESH, **args)),
            "characterize_bistability": lambda: lf.characterize_bistability(
                dataclasses.replace(CURVE, **args))}[entry]
    if bad is not None:
        _refuses_by_name(call, bad)
        return
    got = call()
    if entry == "LeafOutGeometry":
        assert (got.n_cell, got.alpha, got.L1, got.L2) == (5, np.pi / 5, 70.0, 30.0)
    elif entry == "SpringModel.per_kind":
        assert np.array_equal(got.kappa, np.tile([1.0, 0.5, 0.5, 2.0], 5))
        assert np.array_equal(got.rest_angle, np.tile([2.0, 2.1, 2.1, -0.5], 5))
    elif entry == "SpringModel":
        assert np.array_equal(got.kappa, args["kappa"])
    elif entry == "GraspProgram":
        assert got.controlled_units == (1, 3)
    elif entry == "ratio_surface":
        assert got.xi.shape == (2, 2)
    elif entry == "sub_angle_from_main":
        # tan(rho_S / 2) cos(alpha) = tan(rho_M / 2), exact at 0 and pi
        assert got[0] == 0.0 and got[2] == np.pi
        assert abs(np.tan(got[1] / 2) * np.cos(ALPHA) - np.tan(0.5)) < 1e-12
    elif entry == "uniform_motion":
        (rho_m, rho_s, rho_b), _ = got
        psi = np.array(args["psi"])
        assert rho_m.shape == rho_s.shape == rho_b.shape == psi.shape
        # the boundary crease stays in the mirror plane between units
        assert np.max(np.abs(np.cos(ALPHA) * np.cos(rho_m / 2) + np.sin(ALPHA) * np.sin(psi)
                             * np.sin(rho_m / 2) - np.cos(ALPHA) * np.cos(psi))) < 1e-12
        assert np.array_equal(rho_b, -2 * np.abs(psi))
    elif entry == "psi_from_main":
        (rho_m, _, _), _ = lf.uniform_motion(ALPHA, got)
        assert got >= 0.0 and abs(rho_m - 1.0) < 1e-12
    elif entry == "psi_motion_range":
        assert got == (-np.pi / 2, np.pi / 2 - ALPHA)
    elif entry == "mesh_to_obj":
        # one line per vertex, then two triangles per quad
        kinds = [line.split()[0] for line in got.splitlines()]
        assert kinds == ["v"] * len(MESH.vertices) + ["f"] * (2 * len(MESH.faces))
    elif entry == "characterize_bistability":
        assert got.stability_class == "bistable" and got.psi_open < 0.0 < got.psi_closed


def _oracle_accepts(geom, rows, closed):
    """Rows (..., N) of real numbers with every angle inside its box to
    1e-9 and, when ``closed``, each row's chain closed to 1e-10."""
    try:
        array = np.asarray(rows)
    except ValueError:          # ragged
        return False
    # numpy reads a bool among numbers as a number
    if any(isinstance(x, bool) for x in np.array(rows, dtype=object).flat):
        return False
    rows, n = array, geom.n_vertex_creases
    if rows.dtype.kind not in "iuf" or rows.ndim == 0 or rows.shape[-1] != n:
        return False
    lo, hi = np.tile([0.0, -np.pi], geom.n_cell), np.tile([np.pi, 0.0], geom.n_cell)
    if not np.all((rows >= lo - 1e-9) & (rows <= hi + 1e-9)):
        return False
    return not closed or all(chain_closure_norm(geom.alpha, r) <= 1e-10
                             for r in rows.reshape(-1, n))


def _refuses_by_name(call, name):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert name in message, message
    assert not any(word in message for word in ("broadcast", "reshape", "inhomogeneous")), \
        message


@settings(max_examples=300, deadline=None)
@given(state_inputs(), range_inputs(), argument_inputs())
def test_state_entries_answer_or_refuse_by_name(case, range_case, argument_case):
    geom, rho, starts, drive, broken, tilt, psi = case
    n, cos_a = geom.n_vertex_creases, np.cos(geom.alpha)
    springs = lf.SpringModel.uniform(geom, 1.0, 1.0, -0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if _oracle_accepts(geom, rho, closed=False):
            rows = np.asarray(rho).reshape(-1, n)
            # tan(rho_S / 2) = tan(rho_M / 2) / cos(alpha)
            subs = 2 * np.arctan(np.tan(np.clip(rows[:, 0::2], 0.0, np.pi) / 2) / cos_a)
            want = [direct_energy(springs.kappa, springs.rest_angle,
                                  np.column_stack([m, s, s, b]).ravel())
                    for m, s, b in zip(rows[:, 0::2], subs, rows[:, 1::2])]
            got = lf.path_energies(geom, springs, rho)
            assert np.shape(got) == np.shape(rho)[:-1]
            assert np.allclose(np.ravel(got), want, rtol=1e-12, atol=1e-12)
        else:
            _refuses_by_name(lambda: lf.path_energies(geom, springs, rho), "rho_o")

        mesh_of = functools.partial(lf.reconstruct_mesh, geom, rho, tilt)
        if not (_oracle_accepts(geom, rho, closed=True) and np.ndim(rho) == 1):
            _refuses_by_name(mesh_of, "rho_o")
        elif not (isinstance(tilt, float) and math.isfinite(tilt)):
            _refuses_by_name(mesh_of, "tilt")
        else:
            mesh = mesh_of()
            # main and boundary creases by canonical position: L1 and L2 long
            for position, length in ((0, geom.L1), (3, geom.L2)):
                a, b = mesh.crease_edges[:, position].T
                assert np.max(np.abs(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a], axis=1)
                                     - length)) < 1e-9 * length

        trace = functools.partial(lf.trace_paths, geom, starts, **drive)
        if broken:
            _refuses_by_name(trace, min(broken, key=TRACE_ARGS.index))
        elif _oracle_accepts(geom, starts, closed=True):
            # a drive just past the at-face tolerance takes its one step
            # within the closure tolerance of the start, or ends at once at
            # a start whose controlled angle sits at the face it is driven to
            (path,) = trace()
            assert np.array_equal(path.rho_o[0], starts[0])
            assert (len(path), path.termination) in ((2, "max-steps"),
                                                     (1, "controlled-at-boundary"))
            assert np.max(np.abs(path.rho_o - starts[0])) < 1e-10
        else:
            _refuses_by_name(trace, "starts")

        lo, hi = lf.psi_motion_range(geom.alpha)
        if isinstance(psi, (float, np.ndarray)) and np.ndim(psi) == 0 and lo <= psi <= hi:
            # the boundary crease stays in the mirror plane between units
            row, psi, sin_a = lf.uniform_state(geom, psi), float(psi), np.sin(geom.alpha)
            half = row[0::2] / 2
            assert np.all((0.0 <= half) & (half <= np.pi / 2))
            assert np.max(np.abs(cos_a * np.cos(half) + sin_a * np.sin(psi) * np.sin(half)
                                 - cos_a * np.cos(psi))) < 1e-12
            assert np.array_equal(row[1::2], np.full(geom.n_cell, -2 * abs(psi)))
            assert chain_closure_norm(geom.alpha, row) <= 1e-10
        else:
            _refuses_by_name(lambda: lf.uniform_state(geom, psi), "psi")
        _check_range_entries(*range_case)
        _check_argument_entries(*argument_case)
    assert [str(w.message) for w in caught] == []


def _check_range_entries(geom, psi_ranges, oks, n_samples, args, bad):
    """The range entries of the contract property: sampling follows the
    requested ends, in their order where the entry keeps it."""
    springs = lf.SpringModel.uniform(geom, 1.0, 1.0, -0.5)
    (psi_range, (a, b)), ok = psi_ranges[0], oks[0]
    landscape = functools.partial(lf.landscape_over_psi, geom, springs, psi_range,
                                  n_samples)
    if ok and a != b:
        curve = landscape()
        assert (curve.psi[0], curve.psi[-1]) == (min(a, b), max(a, b))
        assert np.all(np.diff(curve.psi) >= 0) and not curve.truncated
    else:
        _refuses_by_name(landscape, "psi_range")
    (psi_range, (a, b)), ok = psi_ranges[1], oks[1]
    path_of = functools.partial(lf.uniform_path, geom, psi_range, n_samples)
    if ok:
        assert np.array_equal(path_of().params, np.linspace(a, b, n_samples))
    else:
        _refuses_by_name(path_of, "psi_range")
    (h_range, h_ends), (rest_range, rest_ends) = args["h_range"], args["rest_angle_range"]
    tmap = functools.partial(lf.trigger_map, geom, lf.DropScenario(), h_range, rest_range,
                             args["n_h"], args["n_rest"])
    if bad is None:
        got = tmap()
        assert np.array_equal(got.heights, np.linspace(*h_ends, args["n_h"]))
        assert np.array_equal(got.rest_angles, np.linspace(*rest_ends, args["n_rest"]))
        assert got.E_gap.shape == (args["n_rest"], args["n_h"])
    else:
        _refuses_by_name(tmap, bad)
