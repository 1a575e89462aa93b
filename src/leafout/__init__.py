"""Leaf-out origami grasping toolkit.

Rigid-origami kinematics of the leaf-out pattern, tailorable bistable
energy landscapes, drop-impact trigger prediction and exploration of
non-uniform multi-grasp folding modes, with a batch command line.
"""

__version__ = "0.1.0"

from .geometry import (CreaseId, CreaseKind, FoldedMesh, LeafOutGeometry,
                       build_geometry, mesh_to_obj, reconstruct_mesh)
from .kinematics import FoldingPath, NotClosedError, StepFailure, trace_paths
from .unitcell import sub_angle_from_main
from .uniform import (OutOfRangeError, psi_from_main, psi_motion_range,
                      uniform_motion, uniform_path, uniform_state)
from .energy import (BistabilityReport, LandscapeCurve, RatioSurface,
                     SpringModel, characterize_bistability,
                     landscape_over_psi, path_energies, ratio_surface)
from .droptest import (DropScenario, TriggerMap, default_effective_width,
                       prototype_spring_model, trigger_map)
from .explore import GraspProgram, config_space, near_flat_start, run_programs
