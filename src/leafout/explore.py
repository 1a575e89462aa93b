"""Non-uniform multi-grasp exploration by selective crease driving.

Selected unit cells receive an identical controlled increment on their
main-crease angles each step, one constant StepRequest per program; the
remaining angles follow the projected kinematics.  Folding modes are
compared in a configuration space spanned by the main-angle differences
(rho_M2 - rho_M4, rho_M3 - rho_M5) against the cumulative controlled
angle.  A set of programs is stepped together (``run_programs``); each
program's trace is the one it has alone.

Paths start from a slightly folded uniform state rather than the exact
flat state, which is a branch point where the mountain/valley assignment
is ambiguous.  The start is the closed-phase uniform state with
rho_M = 7.1 deg, exact through ``psi_from_main``.  When an uncontrolled
angle reaches its mountain/valley limit it is pinned there and the drive
continues, which keeps the crease assignments and matches how the energy
minima along grasping paths are reached well past the first boundary
contact.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import path_energies
from .kinematics import MIN_STEP, FoldingPath, StepFailure, StepRequest, trace_paths
from .uniform import psi_from_main, uniform_state

NEAR_FLAT_MAIN = np.radians(7.1)
DEFAULT_DELTA_RHO_C = np.radians(0.5)
DEFAULT_MAX_STEPS = 400


@dataclass
class GraspProgram:
    """One driving program: which units are controlled and by how much."""
    controlled_units: tuple
    delta_rho_c: float = DEFAULT_DELTA_RHO_C
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        self.controlled_units = tuple(sorted(set(int(u) for u in
                                                 self.controlled_units)))
        if not self.controlled_units:
            raise ValueError("controlled_units must be non-empty")
        if not MIN_STEP <= self.delta_rho_c <= np.pi:   # halving floor to half turn
            raise ValueError(f"delta_rho_c must be in [MIN_STEP, pi] = [{MIN_STEP:g}, "
                             f"{np.pi:g}] rad, got {float(self.delta_rho_c)!r}")
        if (isinstance(self.max_steps, bool)
                or not isinstance(self.max_steps, numbers.Integral) or self.max_steps < 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")

    def label(self):
        return "units-" + "-".join(str(u) for u in self.controlled_units)


def near_flat_start(geom):
    """The closed-phase uniform state with main angles NEAR_FLAT_MAIN; its
    boundary angles, rho_B = -2 psi (about -3.6 deg at n_cell 5), follow
    exactly."""
    return uniform_state(geom, psi_from_main(geom.alpha, NEAR_FLAT_MAIN))


@dataclass
class ConfigSpaceTrace:
    """Configuration-space coordinates along one program."""
    x: np.ndarray            # rho_M2 - rho_M4
    y: np.ndarray            # rho_M3 - rho_M5
    z: np.ndarray            # cumulative controlled angle
    energy: np.ndarray | None


@dataclass
class GraspResult:
    program: GraspProgram
    path: FoldingPath
    trace: ConfigSpaceTrace


def config_space_trace(path, energies):
    rho = path.rho_o
    x = rho[:, 2] - rho[:, 6]
    y = rho[:, 4] - rho[:, 8]
    return ConfigSpaceTrace(x=x, y=y, z=path.params.copy(), energy=energies)


def run_programs(geom, programs, springs=None):
    """Trace grasping programs together from the near-flat start.

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
    starts = [near_flat_start(geom)] * len(programs)
    try:
        paths = trace_paths(geom, starts, [_request(geom, p) for p in programs],
                            [p.max_steps for p in programs])
    except StepFailure as exc:
        done = [_grasp_result(geom, p, path, springs)
                for p, path in zip(programs, exc.completed)]
        raise StepFailure(f"{programs[len(done)].label()}: {exc}",
                          completed=done) from exc
    return [_grasp_result(geom, p, path, springs)
            for p, path in zip(programs, paths)]


def _request(geom, program):
    """A program's step: the same controlled increment on its main creases."""
    ctrl = tuple(2 * (u - 1) for u in program.controlled_units)
    d0 = np.zeros(geom.n_vertex_creases)
    d0[list(ctrl)] = program.delta_rho_c
    return StepRequest(d0, controlled_indices=ctrl, step_scale=program.delta_rho_c)


def _grasp_result(geom, program, path, springs):
    energies = path_energies(geom, springs, path) if springs is not None else None
    return GraspResult(program=program, path=path,
                       trace=config_space_trace(path, energies))

