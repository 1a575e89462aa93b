from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import leafout as lf
from leafout import kinematics
from leafout.kinematics import (StepFailure, _closure, _masked_solve, _tangent,
                                angle_bounds, trace_paths)
from oracles import (chain_closure_norm, fd_constraint_matrix, matrix_exp_rotation,
                     min_norm_solve_exact, rot_x, rot_z)


def jacobian(geom, rho):
    """The 3 x N closure Jacobian C of one angle vector."""
    return _closure(geom, np.asarray(rho, dtype=float)[None])[1][0]


def max_residual(geom, rho):
    return np.max(np.abs(_closure(geom, np.asarray(rho, dtype=float)[None])[0]))


def drive(d0, ctrl, step_scale=np.radians(0.5)):
    """One path's drive as trace_paths takes it: the increment row, the
    mask of the controlled entries ``ctrl`` and the step scale."""
    d0 = np.asarray(d0, dtype=float)
    mask = np.zeros(d0.shape, dtype=bool)
    mask[list(ctrl)] = True
    return d0, mask, step_scale


def trace_all(geom, starts, drives, n_steps):
    """The paths of start states and their drives, traced together."""
    d0, ctrl, scale = (np.array(part) for part in zip(*drives))
    return trace_paths(geom, starts, d0, ctrl, scale, n_steps)


def trace(geom, start, drv, n_steps):
    """The path of one start state and its drive."""
    return trace_all(geom, [start], [drv], n_steps)[0]


def step(geom, start, drv):
    """The state one step of the drive ``drv`` reaches from ``start``."""
    return trace(geom, start, drv, 1).rho_o[-1]


def test_flat_chain_is_identity(geom5):
    assert chain_closure_norm(geom5.alpha, np.zeros(10)) < 1e-14
    assert max_residual(geom5, np.zeros(10)) < 1e-14


def test_uniform_closed_form_closes(geom5):
    # cross-validation between the closed-form motion and the chain
    for psi_deg in (-50, -30, -5, 10, 40):
        st_ = lf.uniform_state(geom5, np.radians(psi_deg))
        assert chain_closure_norm(geom5.alpha, st_) < 1e-10


def test_perturbed_state_does_not_close(geom5, uniform_minus30):
    rho = uniform_minus30.copy()
    rho[3] += 1e-3
    assert max_residual(geom5, rho) > 1e-5
    assert chain_closure_norm(geom5.alpha, rho) > 1e-5


def test_residual_of_identity_is_zero(geom5):
    r, C = _closure(geom5, np.zeros((1, 10)))
    assert r.shape == (1, 3) and C.shape == (1, 3, 10)
    assert np.max(np.abs(r)) < 1e-14


# four-crease chains whose product is a rotation by THETA about one axis:
# quarter-turn sectors close the flat chain; folding crease 1 turns it
# about x, folding crease 2 about y (crease 1's axis after a quarter
# turn), and widening every sector by THETA / 4 about z
THETA = 1e-4
TWISTED_CHAINS = {"r_a": ((2 * np.pi + THETA) / 4, (0.0, 0.0, 0.0, 0.0)),
                  "r_b": (np.pi / 2, (THETA, 0.0, 0.0, 0.0)),
                  "r_c": (np.pi / 2, (0.0, THETA, 0.0, 0.0))}


@pytest.mark.parametrize("axis,component", [
    ((0.0, 0.0, 1.0), "r_a"),
    ((1.0, 0.0, 0.0), "r_b"),
    ((0.0, 1.0, 0.0), "r_c"),
])
def test_residual_extraction_linearization(axis, component):
    # small rotations map onto single residual components
    sector, rho = TWISTED_CHAINS[component]
    F = np.eye(3)
    for r in rho:
        F = F @ rot_x(r) @ rot_z(sector)
    assert np.max(np.abs(F - matrix_exp_rotation(np.array(axis), THETA))) < 1e-15
    res = _closure(SimpleNamespace(alpha=sector), np.array([rho]))[0][0]
    r = dict(zip(("r_a", "r_b", "r_c"), res))
    assert np.isclose(r[component], THETA, rtol=1e-7)
    others = {"r_a", "r_b", "r_c"} - {component}
    for o in others:
        assert abs(r[o]) < 1e-11


def test_constraint_matrix_matches_finite_differences(geom5, uniform_minus30):
    C = jacobian(geom5, uniform_minus30)
    Cfd = fd_constraint_matrix(geom5.alpha, uniform_minus30)
    assert np.max(np.abs(C - Cfd)) < 1e-5


def test_constraint_rank_three_when_folded(geom5, uniform_minus30):
    C = jacobian(geom5, uniform_minus30)
    s = np.linalg.svd(C, compute_uv=False)
    assert np.sum(s > 1e-10) == 3
    # the twist residual row couples the chain away from flat; only the
    # first and last creases are structurally silent (they set the chain's
    # in-plane reference axis)
    assert np.all(np.abs(C[0, 1:-1]) > 1e-6)
    assert np.linalg.norm(C[0]) > 0.1


def test_constraint_degenerates_at_exact_flat(geom5):
    # the flat state is a branch point: in-plane crease axes produce no
    # twist residual, so the constraint drops to rank two there
    C = jacobian(geom5, np.zeros(10))
    s = np.linalg.svd(C, compute_uv=False)
    assert np.sum(s > 1e-10) == 2
    assert np.max(np.abs(C[0])) < 1e-14


def test_uniform_tangent_in_null_space(geom5):
    # h large enough that root-solve tolerance does not dominate the FD
    h = 1e-4
    psi = np.radians(-30)
    tang = (lf.uniform_state(geom5, psi + h)
            - lf.uniform_state(geom5, psi - h)) / (2 * h)
    C = jacobian(geom5, lf.uniform_state(geom5, psi))
    assert np.max(np.abs(C @ tang)) < 1e-8


def test_column_conjugation_between_adjacent_units(geom5, uniform_minus30):
    # shifting one unit conjugates the residual derivative by the
    # two-crease chain block (the folded analogue of the 2 alpha turn)
    rho = uniform_minus30
    C = jacobian(geom5, rho)
    V = np.vstack([C[1], C[2], C[0]])      # residual components as x, y, z
    A = rot_x(rho[0]) @ rot_z(geom5.alpha) @ rot_x(rho[1]) @ rot_z(geom5.alpha)
    assert np.max(np.abs(V[:, 2:] - A @ V[:, :-2])) < 1e-12
    # at flat, the block is exactly the 2 alpha turn about the vertical
    assert np.allclose(
        rot_x(0) @ rot_z(geom5.alpha) @ rot_x(0) @ rot_z(geom5.alpha),
        rot_z(2 * geom5.alpha))


def tangent_projector(C):
    """Matrix of the unconstrained tangent step: ``_tangent`` applied to
    every unit increment (every entry free)."""
    n = C.shape[1]
    t, unmet = _tangent(np.broadcast_to(C, (n, *C.shape)), np.eye(n),
                        np.ones((n, n), dtype=bool))
    assert np.max(unmet) < 1e-14
    return t.T


def masked_pinv(C, free):
    """Matrix of ``_masked_solve`` with the ``free`` columns of C."""
    m, n = C.shape
    return _masked_solve(np.broadcast_to(C, (m, m, n)),
                         np.broadcast_to(free, (m, n)), np.eye(m)).T


def test_projector_idempotent(geom5, uniform_minus30):
    C = jacobian(geom5, uniform_minus30)
    P = tangent_projector(C)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.T)) < 1e-12
    assert np.max(np.abs(C @ P)) < 1e-12


def test_null_basis_projection_equals_pseudo_inverse_form(geom5, uniform_minus30):
    # the tangent step and I - C+ C (numpy's pinv) agree on arbitrary increments
    rho = uniform_minus30
    C = jacobian(geom5, rho)
    P = tangent_projector(C)
    P_direct = np.eye(10) - np.linalg.pinv(C) @ C
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = rng.uniform(-0.05, 0.05, 10)
        assert np.max(np.abs(P @ d - P_direct @ d)) < 1e-12


def test_pseudo_inverse_moore_penrose(geom5, uniform_minus30):
    C = jacobian(geom5, uniform_minus30)
    Cp = masked_pinv(C, np.ones(10, dtype=bool))
    assert np.max(np.abs(Cp - np.linalg.pinv(C))) < 1e-12
    free = np.arange(10) % 3 != 0         # creases 1, 4, 7 and 10 fixed
    assert np.max(np.abs(masked_pinv(C, free)
                         - np.linalg.pinv(np.where(free, C, 0.0)))) < 1e-12
    assert np.max(np.abs(C @ Cp @ C - C)) < 1e-10
    assert np.max(np.abs(Cp @ C @ Cp - Cp)) < 1e-10
    assert np.max(np.abs((C @ Cp).T - C @ Cp)) < 1e-10
    assert np.max(np.abs((Cp @ C).T - Cp @ C)) < 1e-10


# column patterns of a random 3 x N Jacobian: generic, a twin column, every
# column along one of two directions, a dependent row, or the flat limit's
# vanishing twist row
SOLVE_KINDS = ("random", "duplicate", "parallel", "rank-2", "near-flat")


@st.composite
def solve_stacks(draw):
    """A stack of (C, free, v) rows sharing N, each of a drawn kind."""
    n = draw(st.integers(3, 12))

    def grid(shape):            # multiples of 2**-20 in [-1, 1]
        k = draw(arrays(np.int64, shape, elements=st.integers(-2**20, 2**20)))
        return k / 2.0**20

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        C, kind = grid((3, n)), draw(st.sampled_from(SOLVE_KINDS))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "duplicate":
            C[:, j] = C[:, i]
        elif kind == "parallel":
            C = np.where(np.arange(n) % 2, C[:, [i]], C[:, [j]]) * grid(n)
        elif kind == "rank-2":
            C[2] = 0.5 * C[0] - 0.75 * C[1]
        elif kind == "near-flat":
            C[0] *= 10.0 ** -draw(st.integers(1, 14))
        rows.append((C, draw(arrays(bool, n)), grid(3)))
    return [np.array(a) for a in zip(*rows)]


@settings(max_examples=80, deadline=None)
@given(solve_stacks())
def test_masked_solve_matches_exact_and_svd_oracles(stack):
    # rows passing the Gram guard agree with the exact rational solve to
    # 1e-15 kappa relative; on the others the free entries are numpy's pinv
    # at SVD_CUTOFF to 1e-12 of the operator's scale (the pinv's own SVD
    # leaks rounding into the zeroed columns, which the solve keeps exactly
    # zero); every row is the one it gets alone
    C, free, v = stack
    with mock.patch.object(kinematics, "_svd_solve",
                           wraps=kinematics._svd_solve) as svd:
        x = _masked_solve(C, free, v)
    svd_rows = [c for call in svd.call_args_list for c in call.args[0]]
    for b in range(len(C)):
        Cf = np.where(free[b], C[b], 0.0)
        assert np.array_equal(x[b], _masked_solve(C[b:b + 1], free[b:b + 1],
                                                  v[b:b + 1])[0])
        assert np.all(x[b][~free[b]] == 0.0)
        if any(np.array_equal(Cf, c) for c in svd_rows) or not free[b].any():
            P = np.linalg.pinv(Cf, rcond=kinematics.SVD_CUTOFF)
            tol = 1e-12 * np.linalg.norm(P, 2) * np.linalg.norm(v[b])
            assert np.linalg.norm((x[b] - P @ v[b])[free[b]]) <= tol
        else:
            s = np.linalg.svd(Cf, compute_uv=False)
            exact = min_norm_solve_exact(Cf, v[b])
            assert (np.linalg.norm(x[b] - exact)
                    <= 1e-15 * s[0] / s[-1] * np.linalg.norm(exact))


def test_zero_request_is_fixed_point(geom5, uniform_minus30, monkeypatch):
    # a request of no increment on the controlled angles takes no step
    monkeypatch.setattr(kinematics, "_project", None)
    rho = step(geom5, uniform_minus30, drive(np.zeros(10), (0, 3)))
    assert np.array_equal(rho, uniform_minus30)


def test_newton_iterates_once_on_a_closed_row(geom5, uniform_minus30, monkeypatch):
    # a row with a free angle takes one iteration even when it already
    # closes, so a good prediction is closed as tightly as a poor one; a
    # row with no free angle takes none
    steps = []

    def recording_solve(C, free, v):
        steps.append(free.copy())
        return _masked_solve(C, free, v)

    monkeypatch.setattr(kinematics, "_masked_solve", recording_solve)
    assert max_residual(geom5, uniform_minus30) < kinematics.NEWTON_TOL
    free = np.array([[True] * 10, [False] * 10])
    closed = kinematics._newton(geom5, np.array([uniform_minus30] * 2), free)[2]
    assert closed.all()
    assert len(steps) == 1 and np.array_equal(steps[0], free)


def test_uniform_drive_stays_uniform(geom5):
    # start from the slightly folded uniform state, drive every main equally
    start = lf.near_flat_start(geom5)
    assert np.isclose(np.degrees(start[0]), 7.1)
    d0 = np.zeros(10)
    ctrl = (0, 2, 4, 6, 8)
    d0[list(ctrl)] = np.radians(0.5)
    rho = step(geom5, start, drive(d0, ctrl))
    assert np.ptp(rho[0::2]) < 1e-12
    assert np.ptp(rho[1::2]) < 1e-12
    assert np.isclose(np.degrees(rho[0]), 7.6)


def test_pinch_drive_breaks_symmetry(geom5):
    start = lf.near_flat_start(geom5)
    d0 = np.zeros(10)
    ctrl = (0, 2)
    d0[list(ctrl)] = np.radians(0.5)
    rho = trace(geom5, start, drive(d0, ctrl), 10).rho_o[-1]
    assert np.isclose(rho[0], rho[2], atol=1e-12)
    assert rho[0] - rho[6] > np.radians(1.0)


def test_locked_configuration_detected(geom5, uniform_minus30):
    # a pure row-space request with every angle prescribed is infeasible
    C = jacobian(geom5, uniform_minus30)
    d0 = C.T @ np.array([1.0, 2.0, 3.0]) * 1e-3
    path = trace(geom5, uniform_minus30, drive(d0, range(10)), 5)
    assert path.termination == "locked"
    assert np.array_equal(path.rho_o, uniform_minus30[None])


def test_controlled_increments_exact(geom5):
    start = lf.near_flat_start(geom5)
    d0 = np.zeros(10)
    d0[0] = np.radians(1.25)
    rho = step(geom5, start, drive(d0, (0,)))
    assert abs(rho[0] - start[0] - np.radians(1.25)) < 1e-14


def test_trace_zero_driver(geom5, uniform_minus30):
    # a drive just over the 1e-12 at-face tolerance steps without drift
    path = trace(geom5, uniform_minus30, _drive((0,), 2e-12), 5)
    assert len(path) == 6
    assert np.max(np.abs(path.rho_o - uniform_minus30)) < 1e-10


def test_no_paths_trace_to_no_paths(geom5):
    none = np.zeros((0, 10))
    assert trace_paths(geom5, none, none, none.astype(bool), 0.01, 5) == []
    assert lf.run_programs(geom5, []) == []


def test_trace_requires_closed_start(geom5):
    # the shape is checked first: 8 or 12 angles would fail as not closed,
    # a flat row or a 3-D stack inside numpy; two rows need two drives
    d0, ctrl, scale = (np.array([part]) for part in drive(np.zeros(10), (0,)))
    for starts, error, match in (
            ([[0.3] + [0.0] * 9], lf.NotClosedError, "starts row 0: closure residual"),
            (np.zeros((1, 8)), ValueError,
             r"starts must be a \(n, 10\) array of numbers, got shape \(1, 8\)"),
            (np.zeros((1, 12)), ValueError, r"starts must .*, got shape \(1, 12\)"),
            (np.zeros(10), ValueError, r"starts must .*, got shape \(10,\)"),
            (np.zeros((1, 1, 10)), ValueError, r"starts must .*, got shape \(1, 1, 10\)"),
            (np.zeros((2, 10)), ValueError,
             r"delta_rho_0 must be a \(2, 10\) array of numbers in \(-inf, inf\), got shape \(1, 10\)"),
            ([], ValueError, r"starts must .*, got shape \(0,\)")):
        with pytest.raises(error, match=match):
            trace_paths(geom5, starts, d0, ctrl, scale, 2)


def test_row_without_controlled_angle_refused_before_closure(geom5, monkeypatch):
    # every path is steered: a row that marks no angle is refused by its
    # index, before the open start could fail its closure check
    monkeypatch.setattr(kinematics, "_chain", None)
    with pytest.raises(ValueError,
                       match=r"^controlled\[1\] must mark at least one angle, got none$"):
        trace_paths(geom5, [[0.3] + [0.0] * 9] * 2, np.zeros((2, 10)),
                    [[True] + [False] * 9, [False] * 10], 0.01, 5)


def test_nan_start_rejected_before_stepping(geom5, uniform_minus30, monkeypatch):
    # starts are checked like every state: a NaN angle fails the box check
    monkeypatch.setattr(kinematics, "_project", None)
    rho = uniform_minus30.copy()
    rho[3] = np.nan
    with pytest.raises(ValueError, match="starts row 0: angles violate"):
        trace(geom5, rho, drive(np.zeros(10), (0,)), 2)


def _drive(ctrl, amount, step_scale=np.radians(0.5), n=10):
    d0 = np.zeros(n)
    d0[list(ctrl)] = amount
    return drive(d0, ctrl, step_scale)


def test_failed_path_keeps_earlier_paths(geom5, monkeypatch):
    # a 2.7 rad unsplit step on units 1 and 4 cannot be closed inside the
    # boxes; with no halved retries it fails at once, while small steps on
    # units 1 and 2 trace normally beside it
    monkeypatch.setattr(kinematics, "MAX_HALVINGS", 0)
    start = lf.near_flat_start(geom5)
    good = _drive((0, 2), np.radians(0.5), 4.0)
    bad = _drive((0, 6), 2.7, 4.0)
    alone = trace(geom5, start, good, 5)
    with pytest.raises(StepFailure, match="inside the boxes") as info:
        trace_all(geom5, [start, start, start], [good, bad, good], 5)
    (first,) = info.value.completed
    assert np.array_equal(first.rho_o, alone.rho_o)
    assert first.termination == alone.termination == "max-steps"


# per cell count, unsplit steps whose first tries cannot be closed inside
# the boxes: they close only after halved retries
UNSPLIT_RETRIED = {4: ((0, 2, 4), 2.6), 5: ((0, 4, 8), 2.85), 6: ((0, 6), 2.85)}


@pytest.mark.parametrize("n_cell", [4, 5, 6])
def test_halved_steps_trace_alike_alone_and_in_lockstep(n_cell, monkeypatch):
    # in one batch: halved retries run beside the other paths' next steps,
    # the paths split their steps into 3, 1 and 10 substeps of different
    # sizes and so different Newton iteration counts, the first freezes an
    # angle mid-trace, the fourth locks at once, the fifth closes unit 1's
    # main crease to its face and ends there, and the last, driven from
    # the exact flat state where the Jacobian is rank-deficient, is solved
    # by the SVD in solves whose other rows take the closed form
    failed_tries, svd_rows, svd_alone = [], [], []

    def counting_project(*args):
        out = project(*args)
        status = out[-1]
        failed_tries.extend(status[status > kinematics._LOCKED])
        return out

    def recording_svd(C, v):
        svd_rows.extend(C)
        return svd_solve(C, v)

    def spying_solve(C, free, v):
        svd_rows.clear()
        x = masked_solve(C, free, v)
        if len(C) == len(drives) and free[:-1].any():
            Cf = np.where(free[:, None, :], C, 0.0)
            took = [any(np.array_equal(c, row) for row in svd_rows) for c in Cf]
            svd_alone.append(took == [False] * (len(drives) - 1) + [True])
        return x

    project, svd_solve, masked_solve = (kinematics._project, kinematics._svd_solve,
                                        kinematics._masked_solve)
    monkeypatch.setattr(kinematics, "_project", counting_project)
    monkeypatch.setattr(kinematics, "_svd_solve", recording_svd)
    monkeypatch.setattr(kinematics, "_masked_solve", spying_solve)
    geom = lf.LeafOutGeometry(n_cell, 70.0, 30.0)
    n = geom.n_vertex_creases
    start = lf.near_flat_start(geom)
    starts = [start] * 4 + [lf.uniform_state(geom, np.radians(3.0)), np.zeros(n)]
    drives = [_drive((0,), np.radians(3.0), np.radians(1.0), n),
              _drive(*UNSPLIT_RETRIED[n_cell], 4.0, n),
              _drive(tuple(range(0, n, 2)), np.radians(5.0), n=n),
              _drive(tuple(range(n)), 0.01, n=n),
              _drive((0,), np.radians(-1.0), n=n),
              _drive((0,), np.radians(0.5), n=n)]
    together = trace_all(geom, starts, drives, 30)
    assert failed_tries
    assert any(svd_alone)
    assert not together[0].frozen[0].any() and together[0].frozen[-1].any()
    assert together[3].termination == "locked"
    assert together[4].termination == "controlled-at-boundary" and len(together[4]) < 31
    assert len(together[5]) == 31
    for begin, drv, path in zip(starts, drives, together):
        alone = trace(geom, begin, drv, 30)
        assert np.array_equal(alone.rho_o, path.rho_o)
        assert np.array_equal(alone.rho_s, path.rho_s)
        assert np.array_equal(alone.params, path.params)
        assert alone.termination == path.termination
        assert np.array_equal(alone.frozen, path.frozen)


def test_paths_going_idle_at_different_passes_trace_alike_alone(geom5):
    # no path fails, but they stop at different passes: two at their own
    # step counts, one at its controlled face ahead of its count, while a
    # fourth runs on; the passes in which only some paths step
    # apply their masks, and no argument is written to
    start = lf.near_flat_start(geom5)
    starts = np.array([start, start, start, lf.uniform_state(geom5, np.radians(3.0))])
    drives = [_drive((0, 2), np.radians(0.5)), _drive((0, 4), np.radians(2.0)),
              _drive((0, 2, 4, 6, 8), np.radians(20.0), np.radians(5.0)),
              _drive((4,), np.radians(1.0))]
    d0, ctrl, scale = (np.array(part) for part in zip(*drives))
    n_steps = np.array([4, 11, 100, 25])
    for arg in (starts, d0, ctrl, scale, n_steps):
        arg.flags.writeable = False
    together = trace_paths(geom5, starts, d0, ctrl, scale, n_steps)
    assert [path.termination for path in together] == [
        "max-steps", "max-steps", "controlled-at-boundary", "max-steps"]
    assert [len(together[b]) for b in (0, 1, 3)] == [5, 12, 26] and len(together[2]) < 11
    for b, path in enumerate(together):
        (alone,) = trace_paths(geom5, starts[b:b + 1], d0[b:b + 1], ctrl[b:b + 1],
                               scale[b:b + 1], n_steps[b:b + 1])
        assert np.array_equal(alone.rho_o, path.rho_o)
        assert np.array_equal(alone.rho_s, path.rho_s)
        assert np.array_equal(alone.params, path.params)
        assert alone.termination == path.termination
        assert np.array_equal(alone.frozen, path.frozen)


def test_failing_step_gives_up_after_max_halvings(geom5, monkeypatch):
    # a half-turn step of units 1 and 2 cannot be closed inside the boxes
    # at any scale; it is tried once and retried MAX_HALVINGS times, not
    # halved down to MIN_STEP (about 2**28 substeps)
    tries = []

    def counting_project(*args):
        out = project(*args)
        tries.append(out[-1][0])
        return out

    project = kinematics._project
    monkeypatch.setattr(kinematics, "_project", counting_project)
    drv = _drive((0, 2), np.pi, np.pi)
    with pytest.raises(StepFailure, match="inside the boxes") as info:
        trace(geom5, lf.near_flat_start(geom5), drv, 5)
    assert info.value.completed == []
    assert tries == [kinematics._OUTSIDE_BOX] * (kinematics.MAX_HALVINGS + 1)


def test_requests_under_face_tolerance_end_before_stepping(geom5, monkeypatch):
    # every clipped increment is under the 1e-12 at-face tolerance, so the
    # first pass ends every path and no step is tried
    monkeypatch.setattr(kinematics, "_project", None)
    start = lf.near_flat_start(geom5)
    drives = [_drive((0,), 1e-15), _drive((0, 2), 1e-15)]
    for path in trace_all(geom5, [start, start], drives, 5):
        assert path.termination == "controlled-at-boundary"
        assert np.array_equal(path.rho_o, start[None])


def test_trace_terminates_at_controlled_box(geom5):
    start = lf.near_flat_start(geom5)
    drv = _drive((0, 2, 4, 6, 8), np.radians(5.0), np.radians(5.0))
    path = trace(geom5, start, drv, 100)
    assert path.termination == "controlled-at-boundary"
    assert np.isclose(path.rho_o[-1, 0], np.pi, atol=1e-9)
    # the face ends a path ahead of its step limit: on the step that reaches
    # it, and at a start already there with no step allowed (once max-steps)
    last = trace(geom5, start, drv, len(path) - 1)
    assert last.termination == "controlled-at-boundary"
    assert np.array_equal(last.rho_o, path.rho_o)
    at_face = trace(geom5, path.rho_o[-1], drv, 0)
    assert at_face.termination == "controlled-at-boundary"
    assert np.array_equal(at_face.rho_o, path.rho_o[-1:])


def test_trace_boundary_stop_vs_freeze(geom5, monkeypatch):
    # an uncontrolled angle reaching its box face does not stop the path:
    # it is pinned there and the drive continues to the controlled face
    clamped_rows = []       # per accepted step: did it clamp an angle

    def recording_project(*args):
        out = project(*args)
        clamped, status = out[-2:]
        if status[0] == kinematics._OK:
            clamped_rows.append(clamped[0].any())
        return out

    project = kinematics._project
    monkeypatch.setattr(kinematics, "_project", recording_project)
    start = lf.near_flat_start(geom5)
    path = trace(geom5, start, _drive((0, 2), np.radians(0.5)), 400)
    changed = np.flatnonzero((path.frozen[1:] != path.frozen[:-1]).any(axis=-1))
    # row k + 1 is the state of accepted step k
    first_pin = changed[0] + 1
    assert first_pin == clamped_rows.index(True) + 1
    assert 0 < first_pin < len(path) - 1
    assert path.termination == "controlled-at-boundary"
    assert path.frozen[-1].any()


@pytest.fixture(scope="module")
def pinning_paths(geom5):
    """Grasp-like paths of three drives that pin angles on the way."""
    start = lf.near_flat_start(geom5)
    drives = [_drive(ctrl, np.radians(0.5)) for ctrl in ((0, 2), (0, 4), (0, 2, 4))]
    paths = trace_all(geom5, [start] * 3, drives, 400)
    assert all(p.frozen[-1].any() for p in paths)
    return paths


def test_frozen_mask_never_unpins(pinning_paths):
    for path in pinning_paths:
        assert path.frozen.shape == path.rho_o.shape
        assert not path.frozen[0].any()
        assert not (path.frozen[:-1] & ~path.frozen[1:]).any()


def test_pinned_angles_sit_on_their_face_bitwise(pinning_paths, geom5):
    lo, hi = angle_bounds(geom5)
    for path in pinning_paths:
        on_face = (path.rho_o == lo) | (path.rho_o == hi)
        assert on_face[path.frozen].all()


def test_first_row_sub_angles_follow_its_main_angles(geom5, springs_grasp):
    # row 0 takes its sub angles from its main angles like every other row,
    # so the start row and the path's first row have the same energy
    start = lf.near_flat_start(geom5)
    path = trace(geom5, start, _drive((0, 2), np.radians(0.5)), 3)
    assert np.array_equal(path.rho_s[0], kinematics.sub_angles(geom5, start))
    assert lf.path_energies(geom5, springs_grasp, path.rho_o)[0] \
        == lf.path_energies(geom5, springs_grasp, start)


def test_emitted_states_closed_and_boxed(geom5):
    start = lf.near_flat_start(geom5)
    path = trace(geom5, start, _drive((0, 2), np.radians(0.5)), 80)
    lo, hi = angle_bounds(geom5)
    for rho in path.rho_o:
        assert chain_closure_norm(geom5.alpha, rho) < 1e-10
        assert np.all(rho >= lo - 1e-9) and np.all(rho <= hi + 1e-9)


def test_reversibility(geom5, uniform_minus30):
    ctrl = (0, 2, 4, 6, 8)
    fwd = trace(geom5, uniform_minus30, _drive(ctrl, np.radians(0.5)), 20)
    back = trace(geom5, fwd.rho_o[-1], _drive(ctrl, -np.radians(0.5)), 20)
    assert np.max(np.abs(back.rho_o[-1] - uniform_minus30)) < 1e-6


def test_step_scale_substepping_equivalence(geom5):
    # a large request split internally lands near the single-shot result
    start = lf.near_flat_start(geom5)
    d0 = np.zeros(10)
    ctrl = (0, 2, 4, 6, 8)
    d0[list(ctrl)] = np.radians(4.0)
    coarse = step(geom5, start, drive(d0, ctrl, np.radians(8.0)))
    fine = step(geom5, start, drive(d0, ctrl, np.radians(0.5)))
    assert np.isclose(coarse[0], fine[0], atol=1e-14)
    assert np.max(np.abs(coarse - fine)) < 1e-4


@settings(max_examples=20, deadline=None)
@given(arrays(float, 10, elements=st.floats(min_value=-0.01, max_value=0.01)))
def test_projection_keeps_states_closed(geom5, d0):
    state = lf.uniform_state(geom5, np.radians(-35.0))
    assert max_residual(geom5, step(geom5, state, drive(d0, (0, 3)))) < 1e-10


def test_fold_state_validation(geom5, uniform_minus30):
    open_ = np.tile([0.3, -0.3], 5)
    mountain = uniform_minus30.copy()
    mountain[1] = 0.5      # boundary crease must stay mountain
    for rows, name in ((open_, "rho_o row 0: closure residual"),
                       (mountain, "rho_o row 0: angles violate"),
                       (np.zeros(8), r"rho_o must .*, got shape \(8,\)")):
        with pytest.raises(ValueError, match=name):
            lf.reconstruct_mesh(geom5, rows)
        with pytest.raises(ValueError, match=name.replace("rho_o", "starts")
                           .replace(r"\(8,\)", r"\(1, 8\)")):
            trace(geom5, rows, drive(np.zeros(10), (0,)), 2)
    with pytest.raises(lf.NotClosedError):
        lf.reconstruct_mesh(geom5, open_)


MIN_STEP_ERROR = r"step_scale must be a number in \[1e-08, inf\), got"


@pytest.mark.parametrize("arg, value, match", [
    ("delta_rho_0", [[np.nan] + [0.0] * 9] * 2,
     r"delta_rho_0\[0, 0\] must be a number in \(-inf, inf\), got nan"),
    ("delta_rho_0", np.full((2, 4), 0.01), r"delta_rho_0 must .*, got shape \(2, 4\)"),
    ("controlled", [[0, 2], [0, 2]],
     r"controlled must be a \(2, 10\) array of booleans, got an array of dtype int"),
    ("controlled", np.zeros((2, 4), dtype=bool), r"controlled must .*, got shape \(2, 4\)"),
    ("step_scale", 0.0, MIN_STEP_ERROR),
    ("step_scale", np.nan, MIN_STEP_ERROR),
    ("step_scale", 1e-9, MIN_STEP_ERROR),
    ("step_scale", np.nextafter(kinematics.MIN_STEP, 0.0), MIN_STEP_ERROR),
    ("step_scale", -1.0, MIN_STEP_ERROR),
    ("step_scale", np.inf, MIN_STEP_ERROR),
    ("step_scale", kinematics.MIN_STEP, None),
    ("n_steps", -1, "n_steps"),
    ("n_steps", [5, -1], "n_steps"),
    ("n_steps", 2.5, "n_steps"),
], ids=["increment-nan", "increment-short", "mask-index-list", "mask-short",
        "scale-zero", "scale-nan", "scale-1e-9", "scale-under-min-step",
        "scale-negative", "scale-inf", "scale-min-step", "steps-negative",
        "steps-one-negative", "steps-fraction"])
def test_trace_entry_checks_each_drive_argument(geom5, uniform_minus30, arg, value,
                                                match):
    # an index list read as a mask would control the wrong creases, short
    # rows would fail inside numpy, a negative step count would give a
    # one-row max-steps path, one 0.1 rad step at a 1e-9 scale would ask
    # for about 1e8 substeps, and a failing step at an infinite scale would
    # be halved forever; no step is taken, so MIN_STEP costs none
    args = {"starts": [uniform_minus30] * 2, "delta_rho_0": np.full((2, 10), 0.1),
            "controlled": np.eye(2, 10, dtype=bool), "step_scale": np.radians(0.5),
            "n_steps": 0, arg: value}
    if match is None:
        assert [len(path) for path in trace_paths(geom5, **args)] == [1, 1]
    else:
        with pytest.raises(ValueError, match=match):
            trace_paths(geom5, **args)


def test_listed_bool_or_wide_int_refused_by_index(geom5):
    # numpy reads a bool among numbers as a number, and an int past int64
    # among ints as a float; either is refused at its index
    springs = lf.SpringModel.uniform(geom5, 1.0, 1.0, -0.5)
    for call, match in (
            (lambda: lf.trigger_map(geom5, lf.DropScenario(), (0.1, True), (0.7, 1.2), 3, 2),
             r"h_range\[1\] must be a number in \[0, inf\), got True"),
            (lambda: lf.landscape_over_psi(geom5, springs, [-0.5, True], 5),
             r"psi_range\[1\] must be a number in \(-inf, inf\), got True"),
            (lambda: lf.GraspProgram((True, 2)),
             r"controlled_units\[0\] must be an integer in \[1, inf\), got True"),
            (lambda: lf.GraspProgram((2 ** 63, 2)),
             r"controlled_units\[0\] must be an integer in \[1, 2\*\*63\), "
             r"got 9223372036854775808"),
            (lambda: lf.path_energies(geom5, springs, [[0.0] * 9 + [np.False_]]),
             r"rho_o\[0, 9\] must be a number, got False")):
        with pytest.raises(ValueError, match=f"^{match}$"):
            call()


def test_check_states_names_first_failing_row(geom5):
    path = lf.uniform_path(geom5, (np.radians(-60), np.radians(40)), 9)
    rho = path.rho_o.copy()
    kinematics.check_states(geom5, rho)
    rho[6, 0] += 1e-3
    rho[7, 0] += 1e-3
    with pytest.raises(lf.NotClosedError, match="state 6: closure residual"):
        kinematics.check_states(geom5, rho)
    rho[4, 1] = 0.5              # boundary crease must stay mountain
    with pytest.raises(ValueError, match="state 4: angles violate"):
        kinematics.check_states(geom5, rho)
    rho[2, 3] = np.nan
    with pytest.raises(ValueError, match="state 2"):
        kinematics.check_states(geom5, rho)


def test_records_take_fields_by_position_or_keyword():
    # a record's annotations are its fields, in order: given by position
    # or keyword, a class attribute the default, __post_init__ last
    assert lf.DropScenario(0.03, 0.04, 0.5) == lf.DropScenario(h=0.5, R_ball=0.04, m_ball=0.03)
    assert lf.DropScenario() == lf.DropScenario(22.3e-3, 35e-3, 0.360, 9.81, 0.76)
    assert lf.DropScenario().effective_width_mm is None
    assert lf.GraspProgram((3, 2, 3)) == lf.GraspProgram(controlled_units=[2, 3])
    assert repr(lf.GraspProgram((3, 2), 0.5, 7)) == (
        "GraspProgram(controlled_units=(2, 3), delta_rho_c=0.5, max_steps=7)")
    # a list default is each instance's own
    reports = [lf.BistabilityReport("monostable") for _ in range(2)]
    maps = [lf.TriggerMap(*[np.zeros(1)] * 6) for _ in range(2)]
    reports[0].minima.append((0.0, 0.0))
    maps[0].observations.append((0.1, 1.2, "grasp"))
    assert reports[1].minima == [] and maps[1].observations == []
    for call in (lambda: lf.DropScenario(mass=1.0), lambda: lf.GraspProgram(),
                 lambda: lf.GraspProgram((2,), controlled_units=(3,)),
                 lambda: lf.GraspProgram((2,), 0.5, 7, 1)):
        with pytest.raises(TypeError):
            call()
