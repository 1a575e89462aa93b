"""Seeded inputs of the benchmark workloads.

A workload is a fixed list of CLI invocations; running them once, one
after another, is one pass.  The seed changes the values in the configs
but never the amount of work: grid sizes, sample counts, program sets
and step sizes are constants, and every drawn value stays inside the
range where the task runs to completion without truncation.
"""
from dataclasses import dataclass

import numpy as np

GEOMETRY = {"n_cell": 5, "L1": 70.0, "L2": 30.0}

#: the default six-program multi-grasp exploration set
GRASP_PROGRAMS = [[1], [1, 2], [1, 3], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5]]

XI_GRID_STEP_DEG = 1.0
XI_MAIN_RANGE_DEG = (2.0, 178.0)
XI_BOUNDARY_RANGE_DEG = (-178.0, -2.0)

DROP_N_H = 76
DROP_N_REST = 121
DROP_H_RANGE_MM = (50.0, 800.0)
DROP_REST_RANGE_DEG = (40.0, 100.0)
# The PET prototype landscape is bistable for rest angles in (0, 108) deg
# (the closed minimum at psi = rest / 2 must stay below the 54 deg fold
# limit); the drawn offset keeps the whole rest range well inside that band.
DROP_REST_OFFSET_DEG = (-20.0, 4.0)
DROP_KAPPA_PET = 0.76                 # N*mm/rad/mm
DROP_EFFECTIVE_WIDTH_MM = 23.0        # two complete 11.5 mm comb teeth

PATH_SAMPLES = 721


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the subcommand and the config it reads."""
    task: str
    config: dict


def _draw(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def _uniform_springs(rng, rho_m, rho_b):
    return {"kappa": 1.0,
            "rest_deg": {"rho_m": _draw(rng, *rho_m), "rho_b": _draw(rng, *rho_b)}}


def grasp(rng):
    """Multi-grasp stepping; the drawn rest angles change energies only."""
    return [Invocation("multi-grasp", {
        "task": {"name": "multi-grasp", "programs": GRASP_PROGRAMS,
                 "delta_rho_c_deg": 0.5, "max_steps": 400},
        "geometry": GEOMETRY,
        "springs": _uniform_springs(rng, (40.0, 80.0), (-140.0, -100.0)),
    })]


def xi_surface(rng):
    """Ratio surface on a 177 x 177 grid, both ranges shifted below 1 deg."""
    dm, db = _draw(rng, -0.9, 0.9), _draw(rng, -0.9, 0.9)
    return [Invocation("ratio-surface", {
        "task": {"name": "ratio-surface", "grid_step_deg": XI_GRID_STEP_DEG,
                 "rest_main_range_deg": [x + dm for x in XI_MAIN_RANGE_DEG],
                 "rest_boundary_range_deg": [x + db for x in XI_BOUNDARY_RANGE_DEG]},
        "geometry": GEOMETRY,
    })]


def drop_map(rng):
    """Trigger map over 76 heights x 121 rest angles."""
    off = _draw(rng, *DROP_REST_OFFSET_DEG)
    return [Invocation("drop-test", {
        "task": {"name": "drop-test", "n_h": DROP_N_H, "n_rest": DROP_N_REST,
                 "h_range_mm": list(DROP_H_RANGE_MM),
                 "rest_range_deg": [x + off for x in DROP_REST_RANGE_DEG],
                 "drop": {"m_ball_g": _draw(rng, 15.0, 30.0), "R_ball_mm": 35.0,
                          "kappa_pet": DROP_KAPPA_PET,
                          "kappa_pet_unit": "N*mm/rad/mm",
                          "effective_width_mm": DROP_EFFECTIVE_WIDTH_MM}},
        "geometry": GEOMETRY,
    })]


def path_export(rng):
    """Uniform path, landscape and mesh of one design.

    The psi endpoints stay inside the motion range (-90, 54) deg, so no
    sample is clipped away.
    """
    lo, hi = _draw(rng, -80.0, -40.0), _draw(rng, 30.0, 50.0)
    springs = _uniform_springs(rng, (110.0, 130.0), (-40.0, -20.0))
    return [
        Invocation("uniform-path", {
            "task": {"name": "uniform-path", "n_samples": PATH_SAMPLES,
                     "psi_range_deg": [lo, hi]},
            "geometry": GEOMETRY, "springs": springs}),
        Invocation("energy-landscape", {
            "task": {"name": "energy-landscape", "n_samples": PATH_SAMPLES,
                     "psi_range_deg": [lo, hi]},
            "geometry": GEOMETRY, "springs": springs}),
        Invocation("export-mesh", {
            "task": {"name": "export-mesh",
                     "state": {"type": "uniform", "psi_deg": _draw(rng, lo, hi)}},
            "geometry": GEOMETRY}),
    ]


WORKLOADS = {"grasp": grasp, "xi-surface": xi_surface, "drop-map": drop_map,
             "path-export": path_export}


def generate(workload, seed):
    """The invocations of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](np.random.default_rng(seed))
