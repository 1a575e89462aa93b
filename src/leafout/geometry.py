"""Leaf-out crease pattern and 3D folded-shape reconstruction.

The pattern joins ``n_cell`` Miura-ori unit cells around a central vertex.
Each cell is a fan of four parallelogram panels: two near panels between
the main crease and the boundary creases shared with the neighbours, and
two outer panels beyond the sub creases.  The outward midline fold line
of each cell (from the interior vertex to the tip) is required for rigid
foldability but carries no torsion spring and is not part of the crease
enumeration; it is exposed on the mesh as ``tip_edges``.

Canonical pose: the central vertex at the origin, unit 1's main crease
along +i2, the flat pattern in the i1-i2 plane.  ``reconstruct_mesh``
accepts a ``tilt`` angle rotating unit 1 about i1, which reproduces the
Euler-angle pose of uniform states when set to psi.
"""
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .rotations import axis_angle, rot_x
from .unitcell import boundary_direction, sub_angle_from_main


class CreaseKind(Enum):
    MAIN = "main"
    SUB = "sub"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class CreaseId:
    """Identifier of one spring-bearing crease.

    ``unit_index`` is 1-based and counterclockwise.  ``sub_side`` is
    "left"/"right" for sub creases and None otherwise.  Boundary crease n
    connects unit n to unit n+1 (wrapping).
    """
    kind: CreaseKind
    unit_index: int
    sub_side: str | None = None

    def __post_init__(self):
        if self.kind is CreaseKind.SUB:
            if self.sub_side not in ("left", "right"):
                raise ValueError("sub crease needs sub_side left/right")
        elif self.sub_side is not None:
            raise ValueError(f"{self.kind} crease takes no sub_side")


@dataclass(frozen=True)
class LeafOutGeometry:
    """Pattern definition: cell count, central angle and panel lengths."""
    n_cell: int
    alpha: float
    L1: float
    L2: float

    @property
    def n_vertex_creases(self):
        """Creases incident to the central vertex (N = 2 n_cell)."""
        return 2 * self.n_cell

    @property
    def n_total_creases(self):
        """Spring-bearing creases: main + 2 sub + boundary per unit."""
        return 4 * self.n_cell

    def to_dict(self):
        return {
            "n_cell": self.n_cell,
            "alpha_rad": self.alpha,
            "alpha_deg": np.degrees(self.alpha),
            "L1": self.L1,
            "L2": self.L2,
            "n_vertex_creases": self.n_vertex_creases,
            "n_total_creases": self.n_total_creases,
        }


def build_geometry(n_cell, L1, L2):
    """Validated constructor; alpha = pi / n_cell by definition.

    The pattern only closes around the central vertex for n_cell >= 3.
    """
    if isinstance(n_cell, bool) or not isinstance(n_cell, Integral) or n_cell < 3:
        raise ValueError(f"n_cell must be an integer >= 3 to tile the plane, "
                         f"got {n_cell!r}")
    if not (0 < L1 < np.inf and 0 < L2 < np.inf):
        raise ValueError("panel lengths L1, L2 must be finite and positive")
    return LeafOutGeometry(n_cell=int(n_cell), alpha=np.pi / n_cell, L1=float(L1),
                           L2=float(L2))


@dataclass
class Frame:
    """Orthonormal local triad of one unit cell in the global frame.

    ``psi`` is the elevation angle of the main-crease axis e2 out of the
    base plane; for uniform states it coincides with the Euler angle of
    the unit-cell rotation.
    """
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    psi: float

    def __post_init__(self):
        R = np.column_stack([self.e1, self.e2, self.e3])
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-12:
            raise ValueError("frame axes are not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("frame is left-handed")


@dataclass
class FoldedMesh:
    """Rigid-panel mesh of a folded state.

    ``faces`` are quads indexing into ``vertices``; ``crease_edges`` maps
    every spring-bearing crease to its vertex pair; ``tip_edges`` are the
    per-unit outward midline fold lines (no spring).
    """
    vertices: np.ndarray
    faces: list
    crease_edges: dict
    tip_edges: list
    unit_frames: list
    closure_error: float


def _unit_local_points(geom, rho_m):
    """Folded panel corners of one cell in its local frame; the outer
    panels reach L1 along the midline."""
    rho_s = sub_angle_from_main(geom.alpha, rho_m)
    e2 = np.array([0.0, 1.0, 0.0])
    bl = boundary_direction(geom.alpha, rho_m)
    br = bl * np.array([-1.0, 1.0, 1.0])
    # outer panel hinges about the sub crease; the fold branch carries the
    # midline back into the mirror plane
    if rho_m <= 1e-15:
        t = e2.copy()
    else:
        t = axis_angle(bl, -rho_s) @ e2
    A = geom.L1 * e2
    pts = {
        "O": np.zeros(3),
        "A": A,
        "Bl": geom.L2 * bl,
        "Br": geom.L2 * br,
        "Dl": A + geom.L2 * bl,
        "Dr": A + geom.L2 * br,
        "T": A + geom.L1 * t,
        "Fl": A + geom.L2 * bl + geom.L1 * t,
        "Fr": A + geom.L2 * br + geom.L1 * t,
    }
    return pts


def _perp_unit(v, axis):
    w = v - np.dot(v, axis) * axis
    n = np.linalg.norm(w)
    if n < 1e-14:
        raise ValueError("degenerate in-panel direction")
    return w / n


def unit_placements(geom, rho_o, tilt):
    """Rotation of each unit-local frame into the global frame.

    Unit 1 is posed by ``tilt`` about i1; each following unit is attached
    across the shared boundary crease with its fold angle.  Returns the
    list of rotations plus the wrap-around closure error of the last
    boundary crease back to unit 1.
    """
    n = geom.n_cell
    e2 = np.array([0.0, 1.0, 0.0])
    A_loc = geom.L1 * e2
    Gs = [rot_x(tilt)]
    for k in range(n - 1):
        rm_k = rho_o[2 * k]
        rb_k = rho_o[2 * k + 1]
        rm_next = rho_o[2 * (k + 1)]
        g = Gs[k] @ boundary_direction(geom.alpha, rm_k)
        p_hat = _perp_unit(Gs[k] @ A_loc, g)
        br_next = boundary_direction(geom.alpha, rm_next) * np.array([-1.0, 1.0, 1.0])
        q_hat = _perp_unit(A_loc, br_next)
        # mountain boundary fold: dihedral pi + rho_b, opened about +g
        p_target = axis_angle(g, np.pi + rb_k) @ p_hat
        M_t = np.column_stack([g, p_target, np.cross(g, p_target)])
        M_l = np.column_stack([br_next, q_hat, np.cross(br_next, q_hat)])
        Gs.append(M_t @ M_l.T)

    # wrap-around: unit n's left boundary must coincide with unit 1's right
    g_last = Gs[-1] @ boundary_direction(geom.alpha, rho_o[-2])
    g_first = Gs[0] @ (boundary_direction(geom.alpha, rho_o[0])
                       * np.array([-1.0, 1.0, 1.0]))
    p_last = _perp_unit(Gs[-1] @ A_loc, g_last)
    p_first = _perp_unit(Gs[0] @ A_loc, g_first)
    p_expect = axis_angle(g_last, np.pi + rho_o[-1]) @ p_last
    err = max(float(np.linalg.norm(g_last - g_first)),
              float(np.linalg.norm(p_expect - p_first)))
    return Gs, err


def reconstruct_mesh(geom, state, tilt=0.0):
    """Build the rigid-panel mesh of a closed fold state.

    ``state`` is a FoldState (or anything with .rho_o).  States that do
    not satisfy the loop closure are rejected via the wrap-around check.
    The outer panels reach L1 along the midline; their extent affects
    neither kinematics nor energy.
    """
    rho_o = np.asarray(getattr(state, "rho_o", state), dtype=float)
    if rho_o.shape != (2 * geom.n_cell,):
        raise ValueError("state angle vector has wrong length")
    Gs, err = unit_placements(geom, rho_o, tilt)
    # err compares unit direction vectors, so the tolerance is relative
    if err > 1e-8:
        raise ValueError(f"state is not closed: boundary mismatch {err:.3e}")

    verts = [np.zeros(3)]       # 0: central vertex, tilt-invariant
    vid = {"O": 0}
    faces = []
    crease_edges = {}
    tip_edges = []
    frames = []
    b_ids = []
    per_unit = []
    for k in range(geom.n_cell):
        pts = _unit_local_points(geom, rho_o[2 * k])
        G = Gs[k]
        ids = {}
        for name in ("A", "Dl", "Dr", "T", "Fl", "Fr", "Bl"):
            verts.append(G @ pts[name])
            ids[name] = len(verts) - 1
        per_unit.append(ids)
        b_ids.append(ids["Bl"])
        e1, e2v, e3 = G[:, 0], G[:, 1], G[:, 2]
        frames.append(Frame(e1, e2v, e3, float(np.arcsin(np.clip(e2v[2], -1, 1)))))

    for k in range(geom.n_cell):
        ids = per_unit[k]
        n_unit = k + 1
        # unit k's right boundary vertex is the previous unit's left one
        br_id = b_ids[k - 1]
        faces.append((vid["O"], br_id, ids["Dr"], ids["A"]))
        faces.append((vid["O"], ids["A"], ids["Dl"], ids["Bl"]))
        faces.append((ids["A"], ids["Dr"], ids["Fr"], ids["T"]))
        faces.append((ids["A"], ids["T"], ids["Fl"], ids["Dl"]))
        crease_edges[CreaseId(CreaseKind.MAIN, n_unit)] = (vid["O"], ids["A"])
        crease_edges[CreaseId(CreaseKind.SUB, n_unit, "left")] = (ids["A"], ids["Dl"])
        crease_edges[CreaseId(CreaseKind.SUB, n_unit, "right")] = (ids["A"], ids["Dr"])
        crease_edges[CreaseId(CreaseKind.BOUNDARY, n_unit)] = (vid["O"], ids["Bl"])
        tip_edges.append((ids["A"], ids["T"]))

    return FoldedMesh(np.array(verts), faces, crease_edges, tip_edges,
                      frames, float(err))


def _split_quad(vertices, quad):
    """Two triangles per quad, split along the shorter diagonal (ties go
    to the (0, 2) diagonal) so exports are deterministic."""
    a, b, c, d = quad
    if (np.linalg.norm(vertices[a] - vertices[c])
            <= np.linalg.norm(vertices[b] - vertices[d]) + 1e-15):
        return [(a, b, c), (a, c, d)]
    return [(a, b, d), (b, c, d)]


def mesh_to_obj(mesh):
    """ASCII OBJ text: vertices then triangulated faces, 1-based indices."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for quad in mesh.faces:
        for tri in _split_quad(mesh.vertices, quad):
            lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    return "\n".join(lines) + "\n"
