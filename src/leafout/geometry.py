"""Leaf-out crease pattern and 3D folded-shape reconstruction.

The pattern joins ``n_cell`` identical Miura-ori unit cells around a
central vertex, so ``LeafOutGeometry(n_cell, L1, L2)`` describes it whole:
the sector angle alpha = pi / n_cell follows from the cell count.  Each
cell is a fan of four parallelogram panels: two near panels between the
main crease and the boundary creases shared with the neighbours, and two
outer panels beyond the sub creases.  Its four spring-bearing creases are
numbered once, in ``SpringModel``'s canonical order (main, sub left, sub
right, boundary, per unit counterclockwise), and the mesh's
``crease_edges`` follow that order.  The outward midline fold line of each
cell (from the interior vertex to the tip) is required for rigid
foldability but carries no torsion spring and is not one of those creases;
it is exposed on the mesh as ``tip_edges``.

Canonical pose: the central vertex at the origin, unit 1's main crease
along +i2, the flat pattern in the i1-i2 plane.  ``reconstruct_mesh``
accepts a ``tilt`` angle rotating unit 1 about i1, which reproduces the
Euler-angle pose of uniform states when set to psi.
"""
from dataclasses import dataclass

import numpy as np

from .kinematics import (_HUGE, _TINY, _chain_matrices, _count, _read, check_states,
                         sub_angles)


@dataclass(frozen=True)
class LeafOutGeometry:
    """Pattern definition: ``n_cell`` identical unit cells around the
    central vertex, so the sector angle is alpha = pi / n_cell, and the
    panel lengths L1 (main crease) and L2 (boundary crease).

    The pattern only closes around the central vertex for n_cell >= 3.
    Each field is read on construction, n_cell by ``kinematics._count`` and
    the lengths by ``kinematics._read`` as finite positive numbers.
    """
    n_cell: int
    L1: float
    L2: float

    def __post_init__(self):
        object.__setattr__(self, "n_cell", _count("n_cell", self.n_cell, 3))
        for name in ("L1", "L2"):
            object.__setattr__(self, name, float(_read(name, getattr(self, name), _TINY, _HUGE)))

    @property
    def alpha(self):
        """Sector angle of each unit cell."""
        return np.pi / self.n_cell

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


@dataclass
class FoldedMesh:
    """Rigid-panel mesh of a folded state.

    Per unit counterclockwise: ``faces`` (4 n_cell, 4) are its four quads
    indexing into ``vertices``; ``crease_edges`` (n_cell, 4, 2) holds the
    vertex pairs of its spring-bearing creases in ``SpringModel``'s
    canonical order (main, sub left, sub right, boundary), so that
    ``crease_edges.reshape(-1, 2)[j]`` is crease j; ``tip_edges``
    (n_cell, 2) is its outward midline fold line (no spring).
    ``unit_frames`` (n_cell, 3, 3) holds the rotation of each unit-local
    frame into the global frame; its columns are the unit's axes e1, e2, e3.
    """
    vertices: np.ndarray
    faces: np.ndarray
    crease_edges: np.ndarray
    tip_edges: np.ndarray
    unit_frames: np.ndarray


def _rot_x(angle):
    """Rotations about the first axis, for angles of any shape."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros(np.shape(angle) + (3, 3))
    R[..., 0, 0] = 1.0
    R[..., 1, 1] = R[..., 2, 2] = c
    R[..., 2, 1], R[..., 1, 2] = s, -s
    return R


# unit axes e1, e2, e3 as columns in the chain frame: -y, x, z (the main
# crease e2 is the chain's crease axis x)
_UNIT_AXES = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _unit_frames(geom, rho_o, tilt):
    """Rotation of each unit-local frame into the global frame.

    Unit k's main crease is crease 2k - 1 of the closure chain, so its
    frame is the chain's prefix product P up to that crease turned by half
    the main fold angle, which puts the unit's mirror plane on the chain's
    x-z plane: G_k = rot_x(tilt) U^T rot_x(-rho_M1 / 2) P_{2k-2}
    rot_x(rho_Mk / 2) U with U = _UNIT_AXES, so that G_1 = rot_x(tilt).
    """
    X = _chain_matrices(geom, rho_o)
    P = np.empty((geom.n_cell, 3, 3))
    P[0] = np.eye(3)
    for k in range(1, geom.n_cell):
        P[k] = P[k - 1] @ X[2 * k - 2] @ X[2 * k - 1]
    rho_m = rho_o[0::2]
    pose = _rot_x(tilt) @ _UNIT_AXES.T @ _rot_x(-rho_m[0] / 2)
    return pose @ P @ _rot_x(rho_m / 2) @ _UNIT_AXES


def _boundary_direction(alpha, rho_m):
    """Unit vectors along each cell's left boundary crease, which its sub
    crease parallels (the near panels are parallelograms), in the unit frame:
    main crease along the second axis, mirror plane spanned by axes 2 and 3."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    return np.stack([-sa * np.cos(rho_m / 2) + 0.0 * rho_m, ca + 0.0 * rho_m,
                     sa * np.sin(rho_m / 2)], axis=-1)


def reconstruct_mesh(geom, rho_o, tilt=0.0):
    """Build the rigid-panel mesh of a closed fold state.

    ``rho_o`` is the state's (N,) row of fold angles.  It is accepted
    exactly when ``check_states`` accepts it, and ``tilt`` when it is a
    finite number.  The outer panels reach L1 along the midline; their extent
    affects neither kinematics nor energy.
    """
    rho_o = _read("rho_o", rho_o, shape=(geom.n_vertex_creases,))
    check_states(geom, rho_o[None], "rho_o row")
    tilt = _read("tilt", tilt, -_HUGE, _HUGE)
    n = geom.n_cell
    G = _unit_frames(geom, rho_o, tilt)

    # panel corners in each unit's frame: the outer panels hinge about the
    # sub crease bl by -rho_s, which carries the midline e2 to t (Rodrigues)
    rho_m = rho_o[0::2]
    rho_s = sub_angles(geom, rho_o)[:, None]
    bl = _boundary_direction(geom.alpha, rho_m)
    br = bl * np.array([-1.0, 1.0, 1.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e2_cross_bl = np.stack([bl[:, 2], np.zeros(n), -bl[:, 0]], axis=-1)
    t = (np.cos(rho_s) * e2 + np.sin(rho_s) * e2_cross_bl
         + (1.0 - np.cos(rho_s)) * bl[:, 1:2] * bl)
    A = geom.L1 * e2
    Dl, Dr = A + geom.L2 * bl, A + geom.L2 * br
    # per unit, in vertex order: A, Dl, Dr, T, Fl, Fr, Bl
    local = np.stack([np.broadcast_to(A, (n, 3)), Dl, Dr, A + geom.L1 * t,
                      Dl + geom.L1 * t, Dr + geom.L1 * t, geom.L2 * bl], axis=1)
    verts = np.concatenate([np.zeros((1, 3)),       # 0: central vertex
                            (local @ G.transpose(0, 2, 1)).reshape(-1, 3)])

    # per unit, the indices of the central vertex, its A, Dl, Dr, T, Fl, Fr,
    # Bl and the previous unit's Bl (its right boundary crease's end); the
    # faces are its near right, near left, outer right and outer left quads
    ids = np.zeros((n, 9), dtype=np.intp)
    ids[:, 1:8] = np.arange(1, 1 + 7 * n).reshape(n, 7)
    ids[:, 8] = np.roll(ids[:, 7], 1)
    faces = ids[:, [[0, 8, 3, 1], [0, 1, 2, 7], [1, 3, 6, 4], [1, 4, 5, 2]]].reshape(-1, 4)
    crease_edges = ids[:, [[0, 1], [1, 2], [1, 3], [0, 7]]]
    return FoldedMesh(verts, faces, crease_edges, ids[:, [1, 4]], G)


def _split_quads(vertices, quads):
    """Two triangles per quad, (F, 4) -> (2F, 3), each quad split along its
    shorter diagonal (ties go to the (0, 2) diagonal) so exports are
    deterministic."""
    q = np.asarray(quads).reshape(-1, 4)
    # squared lengths by (1, 3) @ (3, 1) products: the dot product that
    # np.linalg.norm takes of one vector, so near-ties split as before
    d = vertices[q[:, [0, 1]]] - vertices[q[:, [2, 3]]]
    sq = (d[..., None, :] @ d[..., None])[..., 0, 0]
    first = np.sqrt(sq[:, 0]) <= np.sqrt(sq[:, 1]) + 1e-15
    return np.where(first[:, None, None], q[:, [[0, 1, 2], [0, 2, 3]]],
                    q[:, [[0, 1, 3], [1, 2, 3]]]).reshape(-1, 3)


def mesh_to_obj(mesh):
    """ASCII OBJ text: vertices then triangulated faces, 1-based indices.
    ``mesh.vertices`` must be a finite (V, 3) array and ``mesh.faces``
    quads of indices into it, or ``_read`` refuses them by name."""
    vertices = _read("mesh.vertices", mesh.vertices, -_HUGE, _HUGE, shape=(None, 3))
    faces = _read("mesh.faces", mesh.faces, 0, len(vertices) - 1, "iu", (None, 4))
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices.tolist()]
    lines += [f"f {a} {b} {c}" for a, b, c in (_split_quads(vertices, faces) + 1).tolist()]
    return "\n".join(lines) + "\n"
