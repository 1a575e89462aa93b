"""Non-uniform multi-grasp exploration by selective crease driving.

Selected unit cells receive an identical controlled increment on their
main-crease angles each step; the remaining angles follow the projected
kinematics.  Folding modes are compared in a configuration space spanned
by the main-angle differences (rho_M2 - rho_M4, rho_M3 - rho_M5) against
the cumulative controlled angle.  A set of programs is stepped together
(``run_programs``); each program's trace is the one it has alone.

Paths start from a slightly folded uniform state rather than the exact
flat state, which is a branch point where the mountain/valley assignment
is ambiguous.  When an uncontrolled angle reaches its mountain/valley
limit it is pinned there and the drive continues, which keeps the crease
assignments and matches how the energy minima along grasping paths are
reached well past the first boundary contact.
"""
from dataclasses import dataclass

import numpy as np

from .energy import path_energies
from .kinematics import (FoldState, FoldingPath, StepFailure, StepRequest,
                         constraint_matrix, pseudo_inverse, residual, trace_paths)

NEAR_FLAT_MAIN = np.radians(7.1)
NEAR_FLAT_BOUNDARY = np.radians(-3.6)
DEFAULT_DELTA_RHO_C = np.radians(0.5)
DEFAULT_MAX_STEPS = 400


@dataclass
class GraspProgram:
    """One driving program: which units are controlled and by how much."""
    controlled_units: tuple
    delta_rho_c: float = DEFAULT_DELTA_RHO_C
    start_main: float = NEAR_FLAT_MAIN
    start_boundary: float = NEAR_FLAT_BOUNDARY
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        self.controlled_units = tuple(sorted(set(int(u) for u in
                                                 self.controlled_units)))
        if not self.controlled_units:
            raise ValueError("controlled_units must be non-empty")
        if self.delta_rho_c <= 0:
            raise ValueError("delta_rho_c must be positive")

    def label(self):
        return "units-" + "-".join(str(u) for u in self.controlled_units)


def near_flat_start(geom, rho_m=NEAR_FLAT_MAIN, rho_b_seed=NEAR_FLAT_BOUNDARY,
                    tol=1e-12):
    """Closed uniform start state with the given main angle.

    The seed boundary angle is Newton-projected onto the closure manifold:
    the nominal pair is only quoted to 0.1 deg and is not closed to solver
    tolerance as given.
    """
    rho = np.empty(geom.n_vertex_creases)
    rho[0::2] = rho_m
    rho[1::2] = rho_b_seed
    bnd = np.arange(1, geom.n_vertex_creases, 2)
    for _ in range(60):
        r = residual(geom, rho).as_array()
        if np.max(np.abs(r)) < tol:
            break
        Cb = constraint_matrix(geom, rho)[:, bnd]
        rho[bnd] -= pseudo_inverse(Cb) @ r
    else:
        raise RuntimeError("start-state projection did not converge")
    return FoldState.from_angles(geom, rho, tol=max(tol, 1e-10))


@dataclass
class ConfigSpaceTrace:
    """Configuration-space coordinates along one program."""
    x: np.ndarray            # rho_M2 - rho_M4
    y: np.ndarray            # rho_M3 - rho_M5
    z: np.ndarray            # cumulative controlled angle
    energy: np.ndarray | None = None


@dataclass
class GraspResult:
    program: GraspProgram
    path: FoldingPath
    trace: ConfigSpaceTrace


def config_space_trace(path, energies=None):
    rho = path.angles()
    if rho.shape[1] < 10:
        raise ValueError("configuration-space coordinates need n_cell >= 5")
    x = rho[:, 2] - rho[:, 6]
    y = rho[:, 4] - rho[:, 8]
    return ConfigSpaceTrace(x=x, y=y, z=path.params.copy(), energy=energies)


def run_programs(geom, programs, springs=None, tol=1e-10):
    """Trace grasping programs together from their near-flat starts.

    Controlled units must exist in the pattern; each trace drives toward
    the closed phase (increasing main angles).  Returns one result per
    program: the folding path plus the configuration-space trace, with
    energies when a spring model is supplied.  The programs are stepped
    in lockstep, and each result equals that of the program traced alone.
    If a program fails, the raised StepFailure's ``completed`` holds the
    results of the programs listed before it.
    """
    if geom.n_cell < 5:
        raise ValueError("configuration-space coordinates need n_cell >= 5")
    for program in programs:
        if (max(program.controlled_units) > geom.n_cell
                or min(program.controlled_units) < 1):
            raise ValueError("controlled unit index outside 1..n_cell")
    starts = [near_flat_start(geom, p.start_main, p.start_boundary)
              for p in programs]
    drivers = [_constant_driver(geom, p) for p in programs]
    try:
        paths = trace_paths(geom, starts, drivers, [p.max_steps for p in programs],
                            on_boundary="freeze", param_name="delta_rho_c", tol=tol)
    except StepFailure as exc:
        done = [_grasp_result(geom, p, path, springs)
                for p, path in zip(programs, exc.completed)]
        raise StepFailure(f"{programs[len(done)].label()}: {exc}",
                          completed=done) from exc
    return [_grasp_result(geom, p, path, springs)
            for p, path in zip(programs, paths)]


def _constant_driver(geom, program):
    """The same controlled increment on every selected main crease, each step."""
    ctrl = tuple(2 * (u - 1) for u in program.controlled_units)
    d0 = np.zeros(geom.n_vertex_creases)
    d0[list(ctrl)] = program.delta_rho_c
    req = StepRequest(d0, controlled_indices=ctrl, step_scale=program.delta_rho_c)
    return lambda k, rho_o: req


def _grasp_result(geom, program, path, springs):
    energies = path_energies(geom, springs, path) if springs is not None else None
    return GraspResult(program=program, path=path,
                       trace=config_space_trace(path, energies))


def run_program(geom, program, springs=None, tol=1e-10):
    """Trace one grasping program; the one-program case of run_programs."""
    return run_programs(geom, [program], springs=springs, tol=tol)[0]


def default_program_set(n_cell=5):
    """Ships the exploration set: single, pairs, triples, a quadruple and
    the uniform all-unit drive, chosen so that every trace is distinct in
    the (x, y) projection (subsets like {1, 2, 4} are mirror-symmetric and
    collapse onto the uniform axis).
    """
    if n_cell < 5:
        raise ValueError("default program set assumes n_cell >= 5")
    return [
        GraspProgram((1,)),
        GraspProgram((1, 2)),
        GraspProgram((1, 3)),
        GraspProgram((1, 2, 3)),
        GraspProgram((1, 2, 3, 4)),
        GraspProgram(tuple(range(1, n_cell + 1))),
    ]


def compare_programs(geom, programs, springs=None):
    """Run several programs on shared axes; needs at least two."""
    if len(programs) < 2:
        raise ValueError("need at least two programs to compare")
    return run_programs(geom, programs, springs=springs)
