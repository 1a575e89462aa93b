"""Non-uniform multi-grasp exploration by selective crease driving.

Selected unit cells receive an identical controlled increment on their
main-crease angles each step, one constant drive per program; the
remaining angles follow the projected kinematics.  Folding modes are
compared in a configuration space spanned by the main-angle differences
(rho_M2 - rho_M4, rho_M3 - rho_M5) against the cumulative controlled
angle (``config_space``).  A set of programs is stepped together
(``run_programs``); each program's path is the one it has alone.

Paths start from a slightly folded uniform state rather than the exact
flat state, which is a branch point where the mountain/valley assignment
is ambiguous.  The start is the closed-phase uniform state with
rho_M = 7.1 deg, exact through ``psi_from_main``: one row of fold angles,
repeated as the start row of every program.  When an uncontrolled
angle reaches its mountain/valley limit it is pinned there and the drive
continues, which keeps the crease assignments and matches how the energy
minima along grasping paths are reached well past the first boundary
contact.
"""
import numpy as np

from .kinematics import MIN_STEP, StepFailure, _Record, _count, _read, trace_paths
from .uniform import psi_from_main, uniform_state

NEAR_FLAT_MAIN = np.radians(7.1)
DEFAULT_DELTA_RHO_C = np.radians(0.5)
DEFAULT_MAX_STEPS = 400
# drive increments a substep may span: the fifth-order predictor keeps such
# substeps closer to the continuous motion than two-step substeps of one
# increment were
SUBSTEP_SPAN = 4


class GraspProgram(_Record):
    """One driving program: which units are controlled and by how much."""
    controlled_units: tuple
    delta_rho_c: float = DEFAULT_DELTA_RHO_C
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        units = _read("controlled_units", self.controlled_units, 1, np.inf, "iu", (None,))
        self.controlled_units = tuple(sorted(set(units.tolist())))
        _count("len(controlled_units)", len(self.controlled_units), 1)
        # from the halving floor to a half turn
        _read("delta_rho_c", self.delta_rho_c, MIN_STEP, np.pi)
        _count("max_steps", self.max_steps, 1)

    def label(self):
        return "units-" + "-".join(str(u) for u in self.controlled_units)


def near_flat_start(geom):
    """The row of the closed-phase uniform state with main angles
    NEAR_FLAT_MAIN; its boundary angles, rho_B = -2 psi (about -3.6 deg
    at n_cell 5), follow exactly."""
    return uniform_state(geom, psi_from_main(geom.alpha, NEAR_FLAT_MAIN))


def config_space(path):
    """Configuration-space coordinates (x, y, z) of a grasp path's states:
    rho_M2 - rho_M4, rho_M3 - rho_M5 and the cumulative controlled angle.
    They need units 2 to 5, so a path of fewer than 5 cells is refused."""
    rho = path.rho_o
    if rho.shape[1] < 10:
        raise ValueError(f"config_space needs n_cell >= 5, got n_cell "
                         f"{rho.shape[1] // 2}")
    return rho[:, 2] - rho[:, 6], rho[:, 4] - rho[:, 8], path.params


def controlled_creases(geom, programs):
    """The (len(programs), 2 n_cell) mask of the main creases each program
    drives; a controlled unit outside 1..n_cell is refused by ``_read``."""
    ctrl = np.zeros((len(programs), geom.n_vertex_creases), dtype=bool)
    for b, program in enumerate(programs):
        units = _read("controlled_units", program.controlled_units, 1, geom.n_cell, "iu", (None,))
        ctrl[b, 2 * (units - 1)] = True
    return ctrl


def run_programs(geom, programs):
    """Trace grasping programs together from the near-flat start.

    Controlled units must exist in the pattern; each path drives toward
    the closed phase (increasing main angles) by its ``delta_rho_c`` per
    step, and a substep may span SUBSTEP_SPAN of them, which the
    fifth-order predictor keeps within 8e-6 rad of the continuous motion
    on the default programs.  Returns one FoldingPath
    per program.  The programs are stepped in lockstep, and each path
    equals that of the program traced alone.  If a program fails, the
    raised StepFailure's ``completed`` holds the paths of the programs
    listed before it.
    """
    ctrl = controlled_creases(geom, programs)
    rate = np.array([p.delta_rho_c for p in programs], dtype=float)
    starts = np.tile(near_flat_start(geom), (len(programs), 1))
    try:
        return trace_paths(geom, starts, np.where(ctrl, rate[:, None], 0.0), ctrl,
                           SUBSTEP_SPAN * rate,
                           np.array([p.max_steps for p in programs], dtype=int))
    except StepFailure as exc:
        failed = programs[len(exc.completed)].label()
        raise StepFailure(f"{failed}: {exc}", completed=exc.completed) from exc
