import json

import numpy as np
import pytest

import leafout as lf
from leafout.geometry import _split_quads, mesh_to_obj
from leafout.kinematics import check_states

# cell counts the mesh invariants are checked at: the prototype, and two
# counts whose glued unit frames once drifted off orthonormal
CELL_COUNTS = (5, 12, 60)


def face_planarity(mesh):
    """Max distance of any face vertex from the face best plane."""
    worst = 0.0
    for f in mesh.faces:
        q = mesh.vertices[list(f)]
        q = q - q.mean(axis=0)
        # smallest singular direction spans the normal
        s = np.linalg.svd(q, compute_uv=False)
        worst = max(worst, s[-1] / np.sqrt(len(f)))
    return worst


def edge_length_error(mesh, flat_vertices):
    """Max deviation of face edge lengths from the flat pattern."""
    worst = 0.0
    for f in mesh.faces:
        for a, b in zip(f, np.roll(f, -1)):
            l1 = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
            l0 = np.linalg.norm(flat_vertices[a] - flat_vertices[b])
            worst = max(worst, abs(l1 - l0))
    return worst


def flat_mesh_vertices(geom):
    """Vertices of the flat pattern in the canonical pose, indexed as every
    folded mesh of the geometry."""
    return lf.reconstruct_mesh(geom, np.zeros(2 * geom.n_cell)).vertices


def test_build_geometry_prototype(geom5):
    assert np.isclose(np.degrees(geom5.alpha), 36.0)
    assert geom5.n_vertex_creases == 10
    assert geom5.n_total_creases == 20


def test_build_geometry_square(geom4):
    assert np.isclose(np.degrees(geom4.alpha), 45.0)
    assert geom4.n_vertex_creases == 8


def test_geometry_rejects_degenerate():
    for n_cell in (2, 5.5, 5.0, True, "5"):
        with pytest.raises(ValueError, match=r"n_cell must be an integer in \[3, 2\*\*63\), got"):
            lf.LeafOutGeometry(n_cell, 1.0, 1.0)
    for L1, L2, name in ((0.0, 1.0, "L1"), (1.0, -3.0, "L2"), (np.inf, 1.0, "L1"),
                         (1.0, np.nan, "L2")):
        with pytest.raises(ValueError, match=rf"{name} must be a number in \(0, inf\), got"):
            lf.LeafOutGeometry(5, L1, L2)
    assert lf.LeafOutGeometry(np.int64(5), 1.0, 1.0).n_cell == 5
    # alpha is no field: a sector angle apart from the cell count is refused
    with pytest.raises(TypeError):
        lf.LeafOutGeometry(5, 0.3, 70.0, 30.0)
    with pytest.raises(TypeError):
        lf.LeafOutGeometry(n_cell=5, alpha=0.3, L1=70.0, L2=30.0)
    for n in range(3, 361):
        assert lf.LeafOutGeometry(n, 1.0, 1.0).alpha == np.pi / n


def test_crease_enumeration(geom5):
    # crease_edges.reshape(-1, 2)[j] is crease j of SpringModel's canonical
    # order: main, sub left, sub right, boundary, per unit
    edges = lf.reconstruct_mesh(geom5, np.zeros(10)).crease_edges
    assert edges.shape == (5, 4, 2)
    assert len({tuple(e) for e in edges.reshape(-1, 2)}) == 20
    # main and boundary creases leave the central vertex, sub creases the
    # unit's interior vertex, the far end of its main crease
    main, sub_l, sub_r, boundary = edges.transpose(1, 0, 2)
    assert np.all(main[:, 0] == 0) and np.all(boundary[:, 0] == 0)
    assert np.array_equal(sub_l[:, 0], main[:, 1])
    assert np.array_equal(sub_r[:, 0], main[:, 1])
    # boundary crease n joins unit n to unit n + 1: both units' quads hold it
    faces = lf.reconstruct_mesh(geom5, np.zeros(10)).faces.reshape(5, 4, 4)
    for k, (_, b) in enumerate(boundary):
        assert b in faces[k, 1] and b in faces[(k + 1) % 5, 0]


def test_flat_mesh_is_planar():
    for n_cell in CELL_COUNTS:
        geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
        mesh = lf.reconstruct_mesh(geom, np.zeros(2 * n_cell))
        assert np.max(np.abs(mesh.vertices[:, 2])) < 1e-12, n_cell


def test_uniform_open_tips_equal_and_below(geom5, uniform_minus30):
    # pose with the unit-1 Euler tilt so the symmetry axis is vertical
    mesh = lf.reconstruct_mesh(geom5, uniform_minus30, tilt=np.radians(-30))
    tip_z = np.array([mesh.vertices[b][2] for _, b in mesh.tip_edges])
    assert np.all(tip_z < 0.0)
    assert np.ptp(tip_z) < 1e-9


def test_closed_phase_tips_converge(geom5):
    radii = []
    for psi_deg in (10, 20, 30, 40, 50):
        psi = np.radians(psi_deg)
        st = lf.uniform_state(geom5, psi)
        mesh = lf.reconstruct_mesh(geom5, st, tilt=psi)
        tips = np.array([mesh.vertices[b] for _, b in mesh.tip_edges])
        radii.append(np.hypot(tips[:, 0], tips[:, 1]).mean())
    assert np.all(np.diff(radii) < 0.0)


@pytest.mark.parametrize("psi_deg", [-60, -30, -5, 15, 45])
def test_panel_planarity_and_isometry(psi_deg):
    psi = np.radians(psi_deg)
    for n_cell in CELL_COUNTS:
        geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
        mesh = lf.reconstruct_mesh(geom, lf.uniform_state(geom, psi), tilt=psi)
        tol = 1e-8 * geom.L1
        assert face_planarity(mesh) < tol, n_cell
        assert edge_length_error(mesh, flat_mesh_vertices(geom)) < tol, n_cell


def test_nonuniform_state_mesh_invariants(geom5):
    # rigid-panel invariants hold on asymmetric multi-grasp states too
    (path,) = lf.run_programs(geom5, [lf.GraspProgram((1, 3), max_steps=120)])
    flat = flat_mesh_vertices(geom5)
    tol = 1e-8 * geom5.L1
    for rho in path.rho_o[:: len(path) // 4]:
        mesh = lf.reconstruct_mesh(geom5, rho)
        assert face_planarity(mesh) < tol
        assert edge_length_error(mesh, flat) < tol


def _face_normal(mesh, face):
    a, b, c = (mesh.vertices[face[0]], mesh.vertices[face[1]],
               mesh.vertices[face[2]])
    n = np.cross(b - a, c - a)
    return n / np.linalg.norm(n)


def _fold_angle(mesh, edge, f1, f2):
    a, b = edge
    e = mesh.vertices[b] - mesh.vertices[a]
    e = e / np.linalg.norm(e)
    n1, n2 = _face_normal(mesh, f1), _face_normal(mesh, f2)
    return np.arctan2(np.dot(np.cross(n1, n2), e), np.dot(n1, n2))


def test_mesh_dihedrals_round_trip_fold_angles():
    # fold angles measured back from panel normals reproduce the state, and
    # the dihedral at crease_edges.reshape(-1, 2)[j] is the angle that
    # path_energies charges crease j
    for n_cell in CELL_COUNTS:
        geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
        (path,) = lf.run_programs(geom, [lf.GraspProgram((1, 3), max_steps=100)])
        state, rho_s = path.rho_o[-1], path.rho_s[-1]
        mesh = lf.reconstruct_mesh(geom, state)
        measured = np.empty((n_cell, 4))
        for k in range(n_cell):
            NR, NL, OR, OL = mesh.faces[4 * k: 4 * k + 4]
            NR_next = mesh.faces[4 * ((k + 1) % n_cell)]
            # the quads each crease hinges, in canonical order; the left sub
            # crease's edge runs the other way, so its quads swap
            hinged = ((NR, NL), (OL, NL), (NR, OR), (NL, NR_next))
            measured[k] = [_fold_angle(mesh, edge, *faces)
                           for edge, faces in zip(mesh.crease_edges[k], hinged)]
            # the tip fold mirrors the main crease (collinear midline pair)
            rt = _fold_angle(mesh, mesh.tip_edges[k], OR, OL)
            assert abs(rt + state[2 * k]) < 1e-9, (n_cell, k)
        rm, rsl, rsr, rb = measured.T
        assert np.max(np.abs(rm - state[0::2])) < 1e-9, n_cell
        assert np.max(np.abs(rsl - rho_s)) < 1e-9, n_cell
        assert np.max(np.abs(rsr - rho_s)) < 1e-9, n_cell
        assert np.max(np.abs(rb - state[1::2])) < 1e-9, n_cell
        # springs resting at the measured dihedrals store (1e-9)^2 / 2 at
        # most, which bounds every crease's term of the sum
        springs = lf.SpringModel(np.ones(4 * n_cell), measured.ravel())
        assert lf.path_energies(geom, springs, state) < 0.5e-18, n_cell


def test_cyclic_relabel_preserves_validity_and_energy(geom5, springs_bistable):
    st = lf.uniform_state(geom5, np.radians(-25))
    # perturb into a non-uniform closed state first
    prog = lf.GraspProgram((1, 2), max_steps=10)
    (path,) = lf.run_programs(geom5, [prog])
    rho = path.rho_o[-1]
    rolled = np.roll(rho, 2)
    check_states(geom5, np.stack([rho, rolled]))
    e1 = lf.path_energies(geom5, springs_bistable, rho)
    e2 = lf.path_energies(geom5, springs_bistable, rolled)
    assert np.isclose(e1, e2, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tilt", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_tilt(geom5, uniform_minus30, tilt):
    # a NaN tilt would pose every panel at NaN coordinates
    with pytest.raises(ValueError, match="tilt"):
        lf.reconstruct_mesh(geom5, uniform_minus30, tilt=tilt)


def test_mesh_rejects_open_state(geom5):
    rho = lf.uniform_state(geom5, np.radians(-30))
    rho[0] += 1e-3
    with pytest.raises(ValueError):
        lf.reconstruct_mesh(geom5, rho)


def test_mesh_counts(geom5, uniform_minus30):
    mesh = lf.reconstruct_mesh(geom5, uniform_minus30)
    assert len(mesh.vertices) == 1 + 7 * geom5.n_cell
    assert mesh.faces.shape == (4 * geom5.n_cell, 4)
    assert mesh.crease_edges.reshape(-1, 2).shape == (geom5.n_total_creases, 2)
    assert mesh.tip_edges.shape == (geom5.n_cell, 2)


def test_unit_frames_orthonormal_and_psi(geom5):
    psi = np.radians(-20)
    mesh = lf.reconstruct_mesh(geom5, lf.uniform_state(geom5, psi), tilt=psi)
    G = mesh.unit_frames
    assert G.shape == (geom5.n_cell, 3, 3)
    assert np.max(np.abs(G @ G.transpose(0, 2, 1) - np.eye(3))) < 1e-12
    assert np.all(np.linalg.det(G) > 0.0)
    # each unit's main-crease axis e2 rises out of the base plane by psi
    assert np.allclose(np.arcsin(G[:, 2, 1]), psi, rtol=0, atol=1e-12)


def test_obj_export_structure(geom5, uniform_minus30):
    mesh = lf.reconstruct_mesh(geom5, uniform_minus30)
    text = mesh_to_obj(mesh)
    lines = text.strip().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == 2 * len(mesh.faces)      # quads triangulated
    for l in f_lines:
        idx = [int(tok) for tok in l.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(mesh.vertices) for i in idx)


def test_quad_split_uses_shorter_diagonal():
    verts = np.array([[0, 0, 0], [4, 0, 0], [4.5, 1, 0], [0, 1, 0.0]])
    tris = _split_quads(verts, [(0, 1, 2, 3)])
    # diagonal 1-3 is shorter than 0-2 for this skewed slab
    assert tris.tolist() == [[0, 1, 3], [1, 2, 3]]
    # ties go to the first diagonal, deterministically
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]])
    assert _split_quads(square, [(0, 1, 2, 3)]).tolist() == [[0, 1, 2], [0, 2, 3]]
    # one array pass splits every quad on its own
    both = _split_quads(np.concatenate([verts, square]), [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert both.tolist() == [[0, 1, 3], [1, 2, 3], [4, 5, 6], [4, 6, 7]]


def test_geometry_json_round_trip(geom5):
    d = json.loads(json.dumps(geom5.to_dict()))
    assert d["n_cell"] == 5
    assert np.isclose(d["alpha_deg"], 36.0)
    assert d["n_total_creases"] == 20
