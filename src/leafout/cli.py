"""Batch command line: one task per invocation, driven by a JSON config.

The command names the task, or `validate`; `--config` supplies a nested JSON
file, individual keys can be overridden with `--set a.b.c=value`, and
`--out` overrides the output directory.  Angles in configs are degrees;
everything internal is radians.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure (partial outputs are flagged in the
manifest).

Each task is one entry of ``TASKS``: the task keys it accepts, a build
step that checks the config and returns the task's inputs (all that
`validate` runs), and a run step that computes and writes the outputs
from those inputs and reports how each path ended.
"""
import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .droptest import DropScenario, trigger_map
from .energy import (DEFAULT_PSI_STEP, SpringModel, characterize_bistability,
                     landscape_over_psi, path_energies, ratio_surface,
                     uniform_path_arrays)
from .explore import GraspProgram, run_programs
from .geometry import build_geometry, mesh_to_obj, reconstruct_mesh
from .kinematics import FoldState, StepFailure
from .uniform import (OutOfRangeError, clip_psi_range, psi_samples,
                      uniform_path, uniform_state)
from . import io as lio

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _deg(x):
    return np.radians(float(x))


def _milli(x):
    return float(x) * 1e-3


# [lo, hi] task keys: (default, conversion of each end to SI units)
_RANGES = {"psi_range_deg": ((-60.0, 60.0), _deg),
           "h_range_mm": ((50.0, 800.0), _milli),
           "rest_range_deg": ((40.0, 100.0), _deg),
           "rest_main_range_deg": ((2.0, 178.0), _deg),
           "rest_boundary_range_deg": ((-178.0, -2.0), _deg)}

MAX_SURFACE_POINTS = 10 ** 6    # ratio-surface grid points

# drop block keys: (DropScenario field, conversion to SI units); a key
# left out takes the scenario's prototype default
_DROP_KEYS = {"m_ball_g": ("m_ball", _milli), "R_ball_mm": ("R_ball", _milli),
              "h_mm": ("h", _milli), "g": ("g", float),
              "kappa_pet": ("kappa_pet", float),
              "kappa_pet_unit": ("kappa_pet_unit", str),
              "effective_width_mm": ("effective_width_mm", float),
              "rest_angle_deg": ("rest_angle", _deg)}


def _require(cfg, key, kind=None):
    if not isinstance(cfg, dict) or key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    v = cfg[key]
    if kind is not None:
        try:
            v = kind(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {v!r}") from exc
    return v


def build_geometry_from_config(cfg):
    g = _require(cfg, "geometry")
    try:
        return build_geometry(_require(g, "n_cell"),
                              _require(g, "L1", float),
                              _require(g, "L2", float))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_springs_from_config(geom, cfg):
    s = _require(cfg, "springs")
    rest = _require(s, "rest_deg")
    rho_m, rho_b = _require(rest, "rho_m", _deg), _require(rest, "rho_b", _deg)
    rho_s = _require(rest, "rho_s", _deg) if "rho_s" in rest else None
    model, keys = ((SpringModel.uniform, ("kappa",)) if "kappa" in s else
                   (SpringModel.per_kind, ("kappa_m", "kappa_s", "kappa_b")))
    kappas = [_require(s, k, float) if k in s else 0.0 for k in keys]
    try:
        return model(geom, *kappas, rho_m, rho_b, rho_s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    """The task's table entry and its inputs, built once from ``cfg``;
    any fault in the config raises ConfigError."""
    task = cfg.get("task")
    if not isinstance(task, dict) or "name" not in task:
        raise ConfigError("config needs a task object with a name")
    spec = TASKS.get(task["name"])
    if spec is None:
        raise ConfigError(f"unknown task {task['name']!r}; expected one of "
                          f"{tuple(TASKS)}")
    unknown = sorted(set(task) - {"name", *spec.keys})
    if unknown:
        raise ConfigError(f"unknown {task['name']} task keys {unknown}; "
                          f"expected some of {list(spec.keys)}")
    output = cfg.get("output", {})
    if not isinstance(output, dict) or not isinstance(output.get("dir", ""), str):
        raise ConfigError(f"output must be an object whose dir is a string, got {output!r}")
    return spec, spec.build(cfg, build_geometry_from_config(cfg), task)


def _count(task, key, default, least):
    """Integer task setting, checked against its least accepted value; a
    None default leaves the key optional."""
    v = task.get(key, default)
    if v is None and default is None:     # an optional count left unset
        return v
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {v!r}")
    return v


def _positive(task, key, default):
    """Finite task setting > 0."""
    v = task.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < np.inf:
        raise ConfigError(f"{key} must be a finite number > 0, got {v!r}")
    return v


def _range(task, key):
    """[lo, hi] task setting in SI units."""
    default, conv = _RANGES[key]
    rng = task.get(key, list(default))
    try:
        lo, hi = (conv(x) for x in rng)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be [lo, hi], got {rng!r}") from exc
    return lo, hi


def _drop_scenario(task):
    d = task.get("drop", {})
    if not isinstance(d, dict):
        raise ConfigError(f"drop must be an object, got {d!r}")
    unknown = sorted(set(d) - set(_DROP_KEYS))
    if unknown:
        raise ConfigError(f"unknown drop keys {unknown}; expected some of "
                          f"{list(_DROP_KEYS)}")
    try:
        return DropScenario(**{name: conv(d[key])
                               for key, (name, conv) in _DROP_KEYS.items()
                               if key in d})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad drop settings: {exc}") from exc


def _uniform_path_inputs(cfg, geom, task):
    """Springs (when given), psi range and sample count of a uniform-path
    task."""
    springs = build_springs_from_config(geom, cfg) if "springs" in cfg else None
    psi_range, n = _range(task, "psi_range_deg"), _count(task, "n_samples", 241, 2)
    try:
        psi_samples(geom.alpha, psi_range, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return geom, springs, psi_range, n


def _uniform_path_outputs(inputs, out, terminations):
    geom, springs, psi_range, n = inputs
    path = uniform_path(geom, psi_range, n)
    energies = None if springs is None else path_energies(geom, springs, path)
    lio.write_path_csv(geom, path, out("uniform_path.csv"), energies)
    terminations["uniform-path"] = path.termination
    lio.write_json(lio.path_to_json_dict(geom, path, energies),
                   out("uniform_path.json"))


def _landscape_inputs(cfg, geom, task):
    """Springs, psi range and sample count of an energy-landscape task; the
    classifier is checked at the default 0.5 deg spacing."""
    springs = build_springs_from_config(geom, cfg)
    n, rng = _count(task, "n_samples", None, 2), _range(task, "psi_range_deg")
    lo, hi, _ = clip_psi_range(geom.alpha, rng)   # a NaN end never spans
    spacing = 0.0 if n is None or not lo < 0.0 < hi else np.max(
        np.diff(uniform_path_arrays(geom, rng, n)[0]))
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


def _surface_inputs(cfg, geom, task):
    """Rest-main and rest-boundary grids of a ratio-surface task, each end
    included only when it sits on the grid; their size (np.arange's own
    length) is checked before anything is allocated."""
    step = _deg(_positive(task, "grid_step_deg", 2.0))
    ends = [_range(task, "rest_main_range_deg"),
            _range(task, "rest_boundary_range_deg")]
    (m_lo, m_hi), (b_lo, b_hi) = ends
    if not (step > 0 and 0 <= m_lo <= m_hi <= np.pi
            and -np.pi <= b_lo <= b_hi <= 0):
        raise ConfigError("rest ranges must be [lo, hi] with lo <= hi, inside "
                          "[0, 180] deg (main) and [-180, 0] deg (boundary); "
                          "the grid step > 0 in radians")
    # in Python floats, so that a huge grid is an inf, not a numpy overflow
    size = 1.0
    for lo, hi in ends:
        size *= float(np.ceil((hi + 1e-9 - lo) / step))
    if not 1 <= size <= MAX_SURFACE_POINTS:
        raise ConfigError(f"ratio-surface grid of {size:.6g} points; at most "
                          f"{MAX_SURFACE_POINTS} accepted")
    return geom, *(np.arange(lo, hi + 1e-9, step) for lo, hi in ends)


def _surface_outputs(inputs, out, terminations):
    surface = ratio_surface(*inputs)
    lio.write_surface_csv(surface, out("ratio_surface.csv"))
    lio.write_json(lio.contours_to_json_dict(surface), out("xi_zero_contour.json"))


def _drop_inputs(cfg, geom, task):
    """Drop-test decision map with its observation overlay, every rest
    angle checked against the bistable band."""
    scenario, fname = _drop_scenario(task), task.get("observations_csv")
    if fname and not isinstance(fname, str):
        raise ConfigError(f"observations_csv must be a file name, got {fname!r}")
    try:
        obs = lio.read_observations_csv(fname) if fname else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read observations {fname}: {exc}") from exc
    h_rng, r_rng = _range(task, "h_range_mm"), _range(task, "rest_range_deg")
    n_h, n_rest = _count(task, "n_h", 25, 1), _count(task, "n_rest", 25, 1)
    try:
        return trigger_map(geom, scenario, h_rng, r_rng, n_h, n_rest,
                           observations=obs)
    except ValueError as exc:
        raise ConfigError(f"bad drop-test ranges: {exc}") from exc


def _drop_outputs(tmap, out, terminations):
    lio.write_trigger_map_csv(tmap, out("trigger_map.csv"))
    lio.write_json(lio.trigger_contour_json_dict(tmap), out("egap_zero_contour.json"))


def _grasp_inputs(cfg, geom, task):
    """Springs and programs of a multi-grasp task; a step GraspProgram
    refuses is a config error."""
    springs = build_springs_from_config(geom, cfg)
    if geom.n_cell < 5:
        raise ConfigError("multi-grasp needs n_cell >= 5 for its configuration-"
                          f"space coordinates, got {geom.n_cell}")
    progs = task.get("programs")
    if not isinstance(progs, list) or not progs:
        raise ConfigError("multi-grasp task needs a non-empty programs list")
    seen = set()
    for p in progs:
        if not isinstance(p, list) or not p:
            raise ConfigError("each program is a non-empty list of unit indices")
        if any(not isinstance(u, int) or u < 1 or u > geom.n_cell for u in p):
            raise ConfigError(f"program {p} has unit indices outside 1..n_cell")
        units = frozenset(p)
        if units in seen:
            raise ConfigError(f"program {p} drives the same units as an "
                              "earlier program")
        seen.add(units)
    delta = _deg(_positive(task, "delta_rho_c_deg", 0.5))
    max_steps = _count(task, "max_steps", 400, 1)
    try:
        programs = [GraspProgram(tuple(units), delta_rho_c=delta, max_steps=max_steps)
                    for units in progs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return geom, springs, programs


def _grasp_outputs(inputs, out, terminations):
    """One trace per program, then the bundle; when a program fails, the
    traces of the programs before it are written and its failure raised."""
    geom, springs, programs = inputs
    try:
        results, failure = run_programs(geom, programs, springs=springs), None
    except StepFailure as exc:
        results, failure = exc.completed, exc
    bundle = {"geometry": geom.to_dict(), "programs": []}
    for res in results:
        prog = res.program
        lio.write_path_csv(geom, res.path, out(f"trace_{prog.label()}.csv"),
                           res.trace.energy)
        terminations[prog.label()] = res.path.termination
        bundle["programs"].append(lio.path_to_json_dict(
            geom, res.path, res.trace.energy,
            extra={"label": prog.label(),
                   "controlled_units": list(prog.controlled_units),
                   "config_space": {k: getattr(res.trace, k).tolist()
                                    for k in "xyz"}}))
    if failure is not None:
        raise failure
    lio.write_json(bundle, out("multigrasp_bundle.json"))


def _mesh_inputs(cfg, geom, task):
    """Fold state and tilt of an export-mesh task."""
    spec = task.get("state", {"type": "flat"})
    if not isinstance(spec, dict):
        raise ConfigError(f"state must be an object, got {spec!r}")
    kind, tilt = spec.get("type"), 0.0
    try:
        if kind == "flat":
            state = FoldState.flat(geom)
        elif kind == "uniform":
            tilt = _require(spec, "psi_deg", _deg)
            state = uniform_state(geom, tilt)
        elif kind == "angles":
            state = FoldState.from_angles(geom, np.radians(np.asarray(
                _require(spec, "rho_o_deg"), dtype=float)))
        else:
            raise ConfigError("state.type must be flat | uniform | angles")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if "tilt_deg" in spec:
        tilt = _require(spec, "tilt_deg", _deg)
        if not np.isfinite(tilt):
            raise ConfigError(f"tilt_deg must be finite, got {spec['tilt_deg']!r}")
    return geom, state, tilt


def _mesh_outputs(inputs, out, terminations):
    geom, state, tilt = inputs
    mesh = reconstruct_mesh(geom, state, tilt=tilt)
    with open(out("mesh.obj"), "w") as fh:
        fh.write(mesh_to_obj(mesh))
    lio.write_json(geom.to_dict(), out("geometry.json"))


class Task(NamedTuple):
    """One CLI task: the task keys it accepts besides ``name``;
    ``build(cfg, geom, task)``, which checks the config and returns the
    task's inputs or raises ConfigError; and ``run(inputs, out,
    terminations)``, which computes and writes the outputs, each to the
    path ``out(file_name)``, and records how each path ended."""
    keys: tuple
    build: Callable
    run: Callable


TASKS = {
    "uniform-path": Task(("psi_range_deg", "n_samples"),
                         _uniform_path_inputs, _uniform_path_outputs),
    "energy-landscape": Task(("psi_range_deg", "n_samples"),
                             _landscape_inputs, _landscape_outputs),
    "ratio-surface": Task(("grid_step_deg", "rest_main_range_deg",
                           "rest_boundary_range_deg"),
                          _surface_inputs, _surface_outputs),
    "drop-test": Task(("drop", "h_range_mm", "rest_range_deg", "n_h", "n_rest",
                       "observations_csv"), _drop_inputs, _drop_outputs),
    "multi-grasp": Task(("programs", "delta_rho_c_deg", "max_steps"),
                        _grasp_inputs, _grasp_outputs),
    "export-mesh": Task(("state",), _mesh_inputs, _mesh_outputs),
}


def _outdir(cfg, args):
    out = args.out or cfg.get("output", {}).get("dir") \
        or os.environ.get("LEAFOUT_OUTDIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def run_task(cfg, args):
    spec, inputs = validate_config(cfg)
    if cfg["task"]["name"] != args.command:
        raise ConfigError(f"config task {cfg['task']['name']!r} does not match "
                          f"subcommand {args.command!r}")
    outdir = _outdir(cfg, args)
    outputs, terminations = [], {}

    def out(name):
        outputs.append(name)
        return os.path.join(outdir, name)

    try:
        spec.run(inputs, out, terminations)
        status, error = "ok", None
    except (StepFailure, OutOfRangeError) as exc:
        status, error = "partial", f"{type(exc).__name__}: {exc}"
    manifest = lio.manifest_dict(cfg, outputs, status=status,
                                 terminations=terminations)
    if error is not None:
        manifest["error"] = error
    lio.write_json(manifest, os.path.join(outdir, "manifest.json"))
    if error is not None:
        print(_error_report("numerical", error), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _error_report(kind, message):
    return json.dumps({"error": {"kind": kind, "message": message}},
                      sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="leafout",
        description="Leaf-out origami grasping simulations (batch).")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=(*TASKS, "validate"),
                        help="task to run, or validate to check the config")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--set", action="append", dest="overrides", default=[],
                        metavar="KEY.PATH=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.overrides)
        if args.command == "validate":
            validate_config(cfg)
            print(json.dumps({"valid": True, "config_sha256":
                              lio.config_hash(cfg)}, sort_keys=True))
            return EXIT_OK
        return run_task(cfg, args)
    except ConfigError as exc:
        print(_error_report("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
