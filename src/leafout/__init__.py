"""Leaf-out origami grasping toolkit.

Rigid-origami kinematics of the leaf-out pattern, tailorable bistable
energy landscapes, drop-impact trigger prediction and exploration of
non-uniform multi-grasp folding modes, with a batch command line.

Each public name is imported from its module on first use (PEP 562), so
``import leafout.cli`` compiles the command line, the largest source,
before numpy and the library are loaded, and the compiler's temporary
memory does not stack on theirs.
"""
import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in (
    ("geometry", "FoldedMesh LeafOutGeometry mesh_to_obj reconstruct_mesh"),
    ("kinematics", "FoldingPath NotClosedError StepFailure sub_angle_from_main trace_paths"),
    ("uniform", "OutOfRangeError psi_from_main psi_motion_range uniform_motion "
                "uniform_path uniform_state"),
    ("energy", "BistabilityReport LandscapeCurve RatioSurface SpringModel "
               "characterize_bistability landscape_over_psi path_energies ratio_surface"),
    ("droptest", "DropScenario TriggerMap default_effective_width prototype_spring_model "
                 "trigger_map"),
    ("explore", "GraspProgram config_space near_flat_start run_programs"),
) for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return globals()[name]
