"""Batch command line: one task per invocation, driven by a JSON config.

The command names the task, or `validate`; `--config` supplies a nested JSON
file, individual keys can be overridden with `--set a.b.c=value`, and
`--out` overrides the output directory.  Angles in configs are degrees;
everything internal is radians.  Exit codes: 0 success, 2 invalid
command line or configuration, 3 numerical failure or an output that
cannot be written (partial outputs are flagged in the manifest).

``SCHEMA`` gives every config key its type, default, SI conversion and
the bounds the CLI owns; ``_read`` checks one block against it, every
number through ``kinematics._read``.  Each task is one entry of ``TASKS``:
a build step that checks the rest of the config and returns the task's
inputs (all that `validate` runs), and a run step that computes and
writes the outputs from those inputs and reports how each path ended.
"""
import json
import os
import sys
from typing import Callable, NamedTuple

# kinematics, the largest module, is imported before numpy: its compile
# (1.8 MB traced) then does not stack on numpy's memory, which would raise
# every task's peak RSS
from .kinematics import _HUGE, StepFailure, _read as _read_value

import numpy as np

from . import __version__
from .droptest import DropScenario, trigger_map
from .energy import (SpringModel, characterize_bistability, landscape_over_psi,
                     path_energies, ratio_surface)
from .explore import (DEFAULT_MAX_STEPS, GraspProgram, config_space, controlled_creases,
                      run_programs)
from .geometry import LeafOutGeometry, mesh_to_obj, reconstruct_mesh
from .uniform import (DEFAULT_PSI_STEP, OutOfRangeError, clip_psi_range,
                      landscape_psis, psi_samples, uniform_path, uniform_state)
from . import io as lio

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _milli(x):
    return float(x) * 1e-3


REQUIRED = "required"       # a Key default: the key must be given
MAX_POINTS = 10 ** 6        # n_samples x 2 n_cell, n_h x n_rest, surface points
MAX_CELLS = 360             # geometry.n_cell
MAX_GRASP_WORK = 2 * 10 ** 6    # len(programs) x max_steps x 2 n_cell


class Key(NamedTuple):
    """One config key: its JSON type (a ``_NUMERIC`` or ``_TYPES`` name),
    its default (REQUIRED, or None: left out, so that the library default
    applies), the conversion of its numbers to SI units, the name it is
    passed on as, and the bounds in config units no library call checks."""
    type: str
    default: object = None
    conv: Callable = float
    name: str = None
    lo: float = -_HUGE
    hi: float = _HUGE


# numeric JSON type: the dtype kinds and shape that kinematics._read takes
_NUMERIC = {"int": ("iu", ()), "number": ("iuf", ()), "range": ("iuf", (2,)),
            "numbers": ("iuf", (None,))}
# other JSON type: (its name in messages, its check)
_TYPES = {
    "string": ("a string", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "programs": ("a non-empty list of non-empty lists of unit indices",
                 lambda v: type(v) is list and len(v) > 0 and all(
                     type(p) is list and len(p) > 0
                     and all(type(u) is int for u in p) for p in v)),
}

_NAME = {"name": Key("string", REQUIRED)}
_PSI_RANGE = Key("range", [-60.0, 60.0], np.radians)
_REST = {"rest_deg": Key("object", REQUIRED)}
_POSE = {"type": Key("string", REQUIRED), "tilt_deg": Key("number", None, np.radians)}

#: Every config key, by block ("" is the top level).  The task block takes
#: the table of its name, springs the "uniform" table when it holds kappa
#: and the "per kind" one otherwise, and task.state the table of its type.
SCHEMA = {
    "": {"task": Key("object", REQUIRED), "geometry": Key("object", REQUIRED),
         "springs": Key("object"), "output": Key("object", {})},
    "geometry": {"n_cell": Key("int", REQUIRED, hi=MAX_CELLS),
                 "L1": Key("number", REQUIRED), "L2": Key("number", REQUIRED)},
    "springs": {"uniform": {"kappa": Key("number", REQUIRED), **_REST},
                "per kind": {"kappa_m": Key("number", 0.0), "kappa_s": Key("number", 0.0),
                             "kappa_b": Key("number", 0.0), **_REST}},
    "springs.rest_deg": {"rho_m": Key("number", REQUIRED, np.radians),
                         "rho_b": Key("number", REQUIRED, np.radians),
                         "rho_s": Key("number", None, np.radians)},
    "output": {"dir": Key("string")},
    "task": {
        "uniform-path": {**_NAME, "psi_range_deg": _PSI_RANGE,
                         "n_samples": Key("int", 241)},
        "energy-landscape": {**_NAME, "psi_range_deg": _PSI_RANGE,
                             "n_samples": Key("int")},
        "ratio-surface": {
            **_NAME, "grid_step_deg": Key("number", 2.0, np.radians),
            "rest_main_range_deg": Key("range", [2.0, 178.0], np.radians, lo=0, hi=180),
            "rest_boundary_range_deg": Key("range", [-178.0, -2.0], np.radians,
                                           lo=-180, hi=0)},
        "drop-test": {**_NAME, "drop": Key("object", {}),
                      "h_range_mm": Key("range", [50.0, 800.0], _milli),
                      "rest_range_deg": Key("range", [40.0, 100.0], np.radians),
                      "n_h": Key("int", 25), "n_rest": Key("int", 25),
                      "observations_csv": Key("string")},
        "multi-grasp": {**_NAME, "programs": Key("programs", REQUIRED),
                        "delta_rho_c_deg": Key("number", None, np.radians, "delta_rho_c"),
                        "max_steps": Key("int")},
        "export-mesh": {**_NAME, "state": Key("object", {"type": "flat"})}},
    # DropScenario fields; a key left out takes the prototype value
    "task.drop": {"m_ball_g": Key("number", None, _milli, "m_ball"),
                  "R_ball_mm": Key("number", None, _milli, "R_ball"),
                  "h_mm": Key("number", None, _milli, "h"), "g": Key("number"),
                  "kappa_pet": Key("number"), "kappa_pet_unit": Key("string"),
                  "effective_width_mm": Key("number"),
                  "rest_angle_deg": Key("number", None, np.radians, "rest_angle")},
    "task.state": {"flat": _POSE,
                   "uniform": {**_POSE, "psi_deg": Key("number", REQUIRED, np.radians)},
                   "angles": {**_POSE, "rho_o_deg": Key("numbers", REQUIRED, np.radians)}},
}


def _read(block, table, where, tag=None):
    """The values of config block ``where`` read against its schema table:
    numbers in SI units, a key left out at its default unless that is None.
    Unknown keys, wrong types and numbers out of bounds are config errors.
    With a ``tag`` key, ``table`` maps each of its values to a table."""
    path = where + "." if where else ""
    if type(block) is not dict:
        raise ConfigError(f"{where or 'config'} must be an object, got {block!r}")
    if tag is not None:
        choice = block.get(tag)
        if type(choice) is not str or choice not in table:
            raise ConfigError(f"{path}{tag} must be one of {list(table)}, got {choice!r}")
        table = table[choice]
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {[path + k for k in unknown]}; "
                          f"{where or 'config'} takes some of {list(table)}")
    values = {}
    for key, (kind, default, conv, name, lo, hi) in table.items():
        v = block.get(key, default)
        if v is REQUIRED:
            raise ConfigError(f"missing config key: {path}{key}")
        if v is None and key not in block:
            continue
        if kind in _NUMERIC:
            _read_value(path + key, v, lo, hi, *_NUMERIC[kind], ConfigError)
        elif not _TYPES[kind][1](v):
            raise ConfigError(f"{path}{key} must be {_TYPES[kind][0]}, got {v!r}")
        values[name or key] = (tuple(map(conv, v)) if kind == "range" else
                               conv(v) if kind in ("number", "numbers") else v)
    return values


def _cap(what, size, cap):
    if size > cap:
        raise ConfigError(f"{what} is {size:.6g}; at most {cap} accepted")


def _springs(geom, block):
    """Spring model of a springs block: kappa on every crease, or kappa_m,
    kappa_s and kappa_b by crease kind."""
    s = _read(block, SCHEMA["springs"]["uniform" if "kappa" in block else "per kind"],
              "springs")
    rest = _read(s["rest_deg"], SCHEMA["springs.rest_deg"], "springs.rest_deg")
    kappas = [s.get("kappa", s.get(k)) for k in ("kappa_m", "kappa_s", "kappa_b")]
    return SpringModel.per_kind(geom, *kappas, rest["rho_m"], rest["rho_b"],
                                rest.get("rho_s"))


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def apply_overrides(cfg, pairs):
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key.path=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        keys = dotted.split(".")
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object {k!r}")
        try:
            node[keys[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[keys[-1]] = raw
    return cfg


def validate_config(cfg):
    """The task's table entry and its inputs, built once from ``cfg``,
    which is read but never changed; any fault in it raises ConfigError.
    So does an OSError or ValueError of the library calls that build the
    inputs, and any overflow or invalid value in them (numpy raises rather
    than warns).  A springs block is checked whenever it is present."""
    c = _read(cfg, SCHEMA[""], "")
    task = _read(c["task"], SCHEMA["task"], "task", "name")
    g = _read(c["geometry"], SCHEMA["geometry"], "geometry")
    _read(c["output"], SCHEMA["output"], "output")
    spec = TASKS[task["name"]]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            geom = LeafOutGeometry(g["n_cell"], g["L1"], g["L2"])
            springs = _springs(geom, c["springs"]) if "springs" in c else None
            return spec, spec.build(task, geom, springs)
    except ArithmeticError as exc:      # numpy's FloatingPointError among them
        raise ConfigError(f"cannot build the {task['name']} inputs: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _uniform_path_inputs(task, geom, springs):
    """Springs (when given), psi range and sample count of a uniform path."""
    psi_range, n = task["psi_range_deg"], task["n_samples"]
    _cap("n_samples x 2 n_cell", n * 2 * geom.n_cell, MAX_POINTS)
    psi_samples(geom.alpha, psi_range, n)
    return geom, springs, psi_range, n


def _uniform_path_outputs(inputs, out, terminations):
    geom, springs, psi_range, n = inputs
    path = uniform_path(geom, psi_range, n)
    energies = None if springs is None else path_energies(geom, springs, path.rho_o)
    lio.write_path_csv(geom, path, out("uniform_path.csv"), energies)
    terminations["uniform-path"] = path.termination
    lio.write_json(lio.path_to_json_dict(geom, path, energies),
                   out("uniform_path.json"))


def _landscape_inputs(task, geom, springs):
    """Springs, psi range and sample count of an energy-landscape task; the
    classifier is checked at the default 0.5 deg spacing."""
    if springs is None:
        raise ConfigError("missing config key: springs")
    rng, n = task["psi_range_deg"], task.get("n_samples")
    lo, hi, _ = clip_psi_range(geom.alpha, rng)
    if n is not None:
        _cap("n_samples x 2 n_cell", n * 2 * geom.n_cell, MAX_POINTS)
    spacing = 0.0 if n is None or not lo < 0.0 < hi else np.max(
        np.diff(landscape_psis(geom.alpha, rng, n)[0]))
    if not (lo < 0.0 < hi and spacing <= DEFAULT_PSI_STEP * (1 + 1e-9)):
        raise ConfigError("psi_range_deg must span both phases, with "
                          "n_samples giving at least one sample per 0.5 deg")
    return geom, springs, rng, n


def _landscape_outputs(inputs, out, terminations):
    curve = landscape_over_psi(*inputs)
    report = characterize_bistability(curve)
    lio.write_landscape_csv(curve, out("landscape.csv"))
    lio.write_json(report.to_dict(), out("bistability.json"))
    terminations["landscape"] = "truncated" if curve.truncated else "completed"


def _surface_inputs(task, geom, springs):
    """Rest-main and rest-boundary grids of a ratio-surface task, each end
    included only when it sits on the grid; their size (np.arange's own
    length) is checked before anything is allocated, and a point that
    rounding puts past the schema's bound is moved onto it."""
    step = task["grid_step_deg"]
    ends = [task["rest_main_range_deg"], task["rest_boundary_range_deg"]]
    if not (step > 0 and all(lo <= hi for lo, hi in ends)):
        raise ConfigError("rest ranges must be [lo, hi] with lo <= hi; the grid "
                          "step > 0 in radians")
    # in Python floats, so that a huge grid is an inf, not a numpy overflow
    n_m, n_b = (float(np.ceil(float(hi + 1e-9 - lo) / float(step))) for lo, hi in ends)
    _cap("ratio-surface grid size", n_m * n_b, MAX_POINTS)
    keys = SCHEMA["task"]["ratio-surface"]
    return geom, *(np.clip(np.arange(lo, hi + 1e-9, step), *np.radians([k.lo, k.hi]))
                   for (lo, hi), k in zip(ends, (keys["rest_main_range_deg"],
                                                 keys["rest_boundary_range_deg"])))


def _surface_outputs(inputs, out, terminations):
    surface = ratio_surface(*inputs)
    lio.write_surface_csv(surface, out("ratio_surface.csv"))
    lio.write_json(lio.contours_to_json_dict(surface), out("xi_zero_contour.json"))


def _drop_inputs(task, geom, springs):
    """Drop-test decision map with its observation overlay, every rest
    angle checked against the bistable band."""
    scenario = DropScenario(**_read(task["drop"], SCHEMA["task.drop"], "task.drop"))
    fname = task.get("observations_csv")
    obs = lio.read_observations_csv(fname) if fname else None
    _cap("n_h x n_rest", task["n_h"] * task["n_rest"], MAX_POINTS)
    return trigger_map(geom, scenario, task["h_range_mm"], task["rest_range_deg"],
                       task["n_h"], task["n_rest"], observations=obs)


def _drop_outputs(tmap, out, terminations):
    lio.write_trigger_map_csv(tmap, out("trigger_map.csv"))
    lio.write_json(lio.trigger_contour_json_dict(tmap), out("egap_zero_contour.json"))


def _grasp_inputs(task, geom, springs):
    """Springs and programs of a multi-grasp task; stepping work above
    MAX_GRASP_WORK, counted at GraspProgram's own step limit when the
    config leaves max_steps out, is a config error."""
    if springs is None:
        raise ConfigError("missing config key: springs")
    if geom.n_cell < 5:
        raise ConfigError(f"multi-grasp needs n_cell >= 5, got {geom.n_cell}")
    progs = task["programs"]
    _cap("len(programs) x max_steps x 2 n_cell", len(progs) * task.get(
        "max_steps", DEFAULT_MAX_STEPS) * 2 * geom.n_cell, MAX_GRASP_WORK)
    step = {k: task[k] for k in ("delta_rho_c", "max_steps") if k in task}
    programs = [GraspProgram(tuple(units), **step) for units in progs]
    controlled_creases(geom, programs)
    seen = set()
    for p in progs:
        if frozenset(p) in seen:
            raise ConfigError(f"program {p} drives the same units as an "
                              "earlier program")
        seen.add(frozenset(p))
    return geom, springs, programs


def _grasp_outputs(inputs, out, terminations):
    """One trace per program, then the bundle; when a program fails, the
    traces of the programs before it are written and its failure raised."""
    geom, springs, programs = inputs
    try:
        paths, failure = run_programs(geom, programs), None
    except StepFailure as exc:
        paths, failure = exc.completed, exc
    bundle = {"geometry": geom.to_dict(), "programs": []}
    for prog, path in zip(programs, paths):
        energies = path_energies(geom, springs, path.rho_o)
        lio.write_path_csv(geom, path, out(f"trace_{prog.label()}.csv"), energies)
        terminations[prog.label()] = path.termination
        bundle["programs"].append(lio.path_to_json_dict(
            geom, path, energies,
            extra={"label": prog.label(),
                   "controlled_units": list(prog.controlled_units),
                   "config_space": dict(zip("xyz", config_space(path)))}))
    if failure is not None:
        raise failure
    lio.write_json(bundle, out("multigrasp_bundle.json"))


def _mesh_inputs(task, geom, springs):
    """OBJ text of the mesh of an export-mesh task's fold state, posed by
    its tilt (the uniform state's own psi unless tilt_deg is given)."""
    s = _read(task["state"], SCHEMA["task.state"], "task.state", "type")
    rho_o = (uniform_state(geom, s["psi_deg"]) if "psi_deg" in s else
             s["rho_o_deg"] if "rho_o_deg" in s else np.zeros(geom.n_vertex_creases))
    mesh = reconstruct_mesh(geom, rho_o, tilt=s.get("tilt_deg", s.get("psi_deg", 0.0)))
    return geom, mesh_to_obj(mesh)


def _mesh_outputs(inputs, out, terminations):
    geom, obj = inputs
    with open(out("mesh.obj"), "w") as fh:
        fh.write(obj)
    lio.write_json(geom.to_dict(), out("geometry.json"))


class Task(NamedTuple):
    """One CLI task: ``build(task, geom, springs)`` gets the task block's
    values, the geometry and the spring model (None without springs) and
    returns the task's inputs or raises ConfigError; ``run(inputs, out,
    terminations)`` writes each output to the path ``out(file_name)`` and
    records how each path ended."""
    build: Callable
    run: Callable


TASKS = {
    "uniform-path": Task(_uniform_path_inputs, _uniform_path_outputs),
    "energy-landscape": Task(_landscape_inputs, _landscape_outputs),
    "ratio-surface": Task(_surface_inputs, _surface_outputs),
    "drop-test": Task(_drop_inputs, _drop_outputs),
    "multi-grasp": Task(_grasp_inputs, _grasp_outputs),
    "export-mesh": Task(_mesh_inputs, _mesh_outputs),
}


def _outdir(cfg, out_dir):
    out = out_dir or cfg.get("output", {}).get("dir") \
        or os.environ.get("LEAFOUT_OUTDIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def run_task(cfg, command, out_dir):
    spec, inputs = validate_config(cfg)
    if cfg["task"]["name"] != command:
        raise ConfigError(f"config task {cfg['task']['name']!r} does not match "
                          f"subcommand {command!r}")
    outdir = _outdir(cfg, out_dir)
    outputs, terminations = [], {}

    def out(name):
        outputs.append(name)
        return os.path.join(outdir, name)

    try:
        spec.run(inputs, out, terminations)
        status, kind, error = "ok", None, None
    except (StepFailure, OutOfRangeError) as exc:
        status, kind, error = "partial", "numerical", f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        del outputs[-1:]    # a run step names each file just before it writes it
        status, kind, error = "partial", "output", f"{type(exc).__name__}: {exc}"
    manifest = lio.manifest_dict(cfg, outputs, status=status,
                                 terminations=terminations)
    if error is not None:
        manifest["error"] = error
    try:
        lio.write_json(manifest, os.path.join(outdir, "manifest.json"))
    except OSError as exc:
        kind, error = "output", "; ".join(filter(None, (error, f"{type(exc).__name__}: {exc}")))
    if error is not None:
        print(_error_report(kind, error), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _error_report(kind, message):
    return json.dumps({"error": {"kind": kind, "message": message}},
                      sort_keys=True)


COMMANDS = (*TASKS, "validate")
USAGE = ("usage: leafout [-h] [--version] COMMAND --config FILE [--out DIR] "
         "[--set KEY.PATH=VALUE ...]")
HELP = f"""{USAGE}

Leaf-out origami grasping simulations (batch).

COMMAND is a task ({', '.join(TASKS)}) or validate.
  --config FILE          JSON config file (required)
  --out DIR              output directory
  --set KEY.PATH=VALUE   override a config key (repeatable)
  --version              print the version and exit"""


def _usage_error(message):
    print(USAGE, file=sys.stderr)
    print(f"leafout: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _parse_args(argv):
    """The command line ``[opts] COMMAND [opts]``: COMMAND is a task or
    validate; the options --config FILE, --out DIR and repeated --set
    KEY.PATH=VALUE are given as ``--opt value`` or ``--opt=value``, and the
    last --config and --out win.  A value that begins with "-" needs the
    ``=`` form.  --version and -h/--help print and exit 0; anything else
    is a usage error (exit 2).  Options are never abbreviated.  Returns
    the command, the config file, the output directory (None unless
    given) and the --set pairs in order."""
    command, values, overrides = None, {"--config": None, "--out": None}, []
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(HELP)
            raise SystemExit(EXIT_OK)
        if arg == "--version":
            print(__version__)
            raise SystemExit(EXIT_OK)
        name, eq, value = arg.partition("=")
        if name in ("--config", "--out", "--set"):
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-"):
                    _usage_error(f"{name} expects a value")
            if name == "--set":
                overrides.append(value)
            else:
                values[name] = value
        elif arg.startswith("-"):
            _usage_error(f"unknown option {arg!r}")
        elif command is not None:
            _usage_error(f"unexpected argument {arg!r} after the command {command!r}")
        elif arg not in COMMANDS:
            _usage_error(f"unknown command {arg!r}; choose from {', '.join(COMMANDS)}")
        else:
            command = arg
    missing = [what for what, v in (("COMMAND", command),
                                    ("--config", values["--config"])) if v is None]
    if missing:
        _usage_error(f"missing {' and '.join(missing)}")
    return command, values["--config"], values["--out"], overrides


def main(argv=None):
    command, config, out_dir, overrides = _parse_args(
        sys.argv[1:] if argv is None else argv)
    try:
        cfg = apply_overrides(load_config(config), overrides)
        if command == "validate":
            validate_config(cfg)
            print(json.dumps({"valid": True, "config_sha256":
                              lio.config_hash(cfg)}, sort_keys=True))
            return EXIT_OK
        return run_task(cfg, command, out_dir)
    except ConfigError as exc:
        print(_error_report("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
