"""Loop closure around the central vertex and constrained fold stepping.

The N = 2 n_cell creases at the central vertex alternate between main and
boundary creases with a uniform flat sector angle alpha between
neighbours.  A fold state is valid when the chained crease rotations
compose to the identity.

Stepping traces a stack of paths in lockstep, each repeating one constant
StepRequest: the increments, masks and box bounds are arrays built once
per trace, and the accepted rows are logged per step and grouped by path
at the end.  One prefix pass over the chain gives every path's closure
residual and its 3 x N Jacobian C.  The tangent increment prescribes the
fixed (controlled or frozen) entries exactly and moves the free ones by
the minimum-norm amount that keeps C t = 0: t_fixed = d,
t_free = -pinv(C_free) C_fixed d.  C_free is C with the fixed columns
zeroed, so one batched SVD serves every path whatever its fixed set;
Newton corrects the free angles through the same masked pseudo-inverse.
Each path keeps its own masks, substeps, retries and termination, and
every array operation acts on each path's rows alone, so a path's trace
is the same whichever paths are stepped beside it.
"""
from dataclasses import dataclass, field

import numpy as np

from .unitcell import sub_angle_from_main

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SVD_CUTOFF = 1e-10      # relative singular-value cutoff of the pseudo-inverse
MIN_STEP = 1e-8         # radians; step halving gives up below this
LOCK_TOL = 1e-8         # unmet tangent constraint that counts as locked


class StepFailure(RuntimeError):
    """A step could not be closed, even after halving it down to MIN_STEP.

    When a batch of paths is traced, ``completed`` holds the results of
    the paths listed before the failing one.
    """

    def __init__(self, message, completed=()):
        super().__init__(message)
        self.completed = list(completed)


class LockedConfiguration(RuntimeError):
    """The prescribed controlled increments are infeasible at this state."""


class NotClosedError(ValueError):
    """A state violated the loop-closure tolerance."""


def angle_bounds(geom):
    """(lo, hi) per vertex crease: main in [0, pi], boundary in [-pi, 0]."""
    lo = np.tile([0.0, -np.pi], geom.n_cell)
    hi = np.tile([np.pi, 0.0], geom.n_cell)
    return lo, hi


@dataclass
class FoldState:
    """Fold angles at the central vertex plus derived sub-crease angles.

    ``rho_o`` is ordered [rho_M1, rho_B1, ..., rho_Mn, rho_Bn].  States
    are built by the solver or the exact parametrizations; the factory
    checks closure and the mountain/valley angle boxes.
    """
    rho_o: np.ndarray
    rho_s: np.ndarray

    @classmethod
    def from_angles(cls, geom, rho_o, check=True, tol=NEWTON_TOL, box_tol=1e-9):
        rho_o = np.asarray(rho_o, dtype=float).copy()
        if rho_o.shape != (geom.n_vertex_creases,):
            raise ValueError("angle vector has wrong length")
        if check:
            check_states(geom, rho_o[None], tol=tol, box_tol=box_tol)
        rho_s = sub_angle_from_main(geom.alpha, np.clip(rho_o[0::2], 0.0, np.pi))
        return cls(rho_o=rho_o, rho_s=np.asarray(rho_s, dtype=float))

    @classmethod
    def flat(cls, geom):
        n = geom.n_cell
        return cls(rho_o=np.zeros(2 * n), rho_s=np.zeros(n))

    @property
    def rho_m(self):
        return self.rho_o[0::2]

    @property
    def rho_b(self):
        return self.rho_o[1::2]


@dataclass
class StepRequest:
    """One requested increment.

    ``delta_rho_0`` is the arbitrary seed increment; entries listed in
    ``controlled_indices`` (0-based positions into rho_o) are prescribed
    exactly.  ``step_scale`` caps the infinity norm of each projected
    substep; larger requests are split internally.
    """
    delta_rho_0: np.ndarray
    controlled_indices: tuple = ()
    step_scale: float = np.radians(0.5)

    def __post_init__(self):
        self.delta_rho_0 = np.asarray(self.delta_rho_0, dtype=float)
        self.controlled_indices = tuple(int(i) for i in self.controlled_indices)
        if not np.all(np.isfinite(self.delta_rho_0)):
            raise ValueError("non-finite increment")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")


def _chain_matrices(geom, rho_o):
    """chi_j = rot_x(rho_j) rot_z(alpha) for angles of any shape (..., N)."""
    c, s = np.cos(rho_o), np.sin(rho_o)
    ca, sa = np.cos(geom.alpha), np.sin(geom.alpha)
    X = np.empty(np.shape(rho_o) + (3, 3))
    # rot_x(rho) @ rot_z(alpha), written out once
    X[..., 0, 0] = ca
    X[..., 0, 1] = -sa
    X[..., 0, 2] = 0.0
    X[..., 1, 0] = sa * c
    X[..., 1, 1] = ca * c
    X[..., 1, 2] = -s
    X[..., 2, 0] = sa * s
    X[..., 2, 1] = ca * s
    X[..., 2, 2] = c
    return X


# flat indices of F10, F21, F02 and F01, F12, F20; the (x, y, z) rows in
# the residual's (z, x, y) order
_SKEW_LOWER, _SKEW_UPPER = np.array([3, 7, 2]), np.array([1, 5, 6])
_XYZ, _ZXY = np.arange(3), np.array([2, 0, 1])


def _closure(geom, rho):
    """Residuals (B, 3) and Jacobians (B, 3, N) of a stack of angle rows;
    the residual is the skew part (r_a, r_b, r_c) of the chain product F.

    One prefix pass gives both.  With a_j the first column of the prefix
    product chi_1 ... chi_{j-1} (crease j's axis in the base frame),
    dF/drho_j = skew(a_j) F, whose skew components are (tr F I - F) a_j / 2
    in (x, y, z) order; the rows of tr F I - F are taken in the residual's
    (r_a, r_b, r_c) = (z, x, y) order.  This is the single-vertex result of
    Belcastro & Hull (2002) and Tachi (2009).
    """
    X = _chain_matrices(geom, rho)
    n_path, n = rho.shape
    A = np.empty((n_path, 3, n))
    A[:, :, 0] = (1.0, 0.0, 0.0)
    F = X[:, 0]
    for j in range(1, n):
        A[:, :, j] = F[:, :, 0]
        F = F @ X[:, j]
    f = F.reshape(n_path, 9)
    r = 0.5 * (f[:, _SKEW_LOWER] - f[:, _SKEW_UPPER])
    T = -F[:, _ZXY]
    T[:, _XYZ, _ZXY] += f[:, ::4].sum(axis=-1)[:, None]
    return r, 0.5 * (T @ A)


def constraint_matrix(geom, rho_o):
    """Analytic 3 x N Jacobian of the residual w.r.t. the fold angles."""
    return _closure(geom, np.asarray(rho_o, dtype=float)[None])[1][0]


def _masked_solve(C, free, v, rcond=SVD_CUTOFF):
    """pinv(C_free) v per row, with C_free = C with non-free columns zeroed.

    The result is the minimum-norm x with x = 0 off the free entries that
    best solves C x = v; singular values below ``rcond`` times the largest
    are dropped.
    """
    U, s, Vt = np.linalg.svd(np.where(free[:, None, :], C, 0.0),
                             full_matrices=False)
    keep = s > rcond * s[:, :1]
    w = np.divide((U * v[:, :, None]).sum(axis=1), s,
                  out=np.zeros(s.shape), where=keep)
    return np.where(free, (Vt * w[:, :, None]).sum(axis=1), 0.0)


def _tangent(C, seed, fixed):
    """Tangent increments per row and their unmet constraint max |C t|.

    Fixed entries of ``seed`` are kept exactly; the free entries move by
    the least amount that makes C t = 0.  A row with nothing fixed thus
    projects its whole seed onto the tangent space.
    """
    t = seed - _masked_solve(C, ~fixed, (C * seed[:, None, :]).sum(axis=-1))
    return t, np.abs((C * t[:, None, :]).sum(axis=-1)).max(axis=-1)


def _newton(geom, rho, free, tol):
    """Min-norm Newton updates of the free angles until each row closes.

    Updates ``rho`` in place; returns the residuals and Jacobians at the
    final iterates and which rows closed to below ``tol``.
    """
    r, C = _closure(geom, rho)
    rows = free.any(axis=-1).nonzero()[0]
    for _ in range(NEWTON_MAX_ITER):
        rows = rows[~(np.abs(r[rows]).max(axis=-1) < tol)]
        if rows.size == 0:
            break
        rho[rows] -= _masked_solve(C[rows], free[rows], r[rows])
        r[rows], C[rows] = _closure(geom, rho[rows])
    return r, C, np.abs(r).max(axis=-1) < tol


_OK, _LOCKED, _NOT_CONVERGED, _OUTSIDE_BOX, _NOT_CLOSED = range(5)
_FAILURES = {
    _NOT_CONVERGED: "Newton correction did not converge",
    _OUTSIDE_BOX: "clamped state cannot be closed inside the boxes",
    _NOT_CLOSED: "residual above tolerance after step",
}


def _project(geom, rho, r, C, d0, fixed, step_scale, tol, bounds):
    """One constrained step of each row of a stack of closed states.

    ``rho`` (B, N) holds the states, ``r`` and ``C`` their residuals and
    Jacobians, ``d0`` the requested increments (zero at frozen entries),
    ``fixed`` the controlled-or-frozen mask, ``step_scale`` (B,) the
    substep caps and ``bounds`` the ``angle_bounds`` boxes.  ``rho``, ``r``
    and ``C`` are updated in place.  Returns the (B, N) mask of clamped
    angles and a status code per row.
    """
    lo, hi = bounds
    free = ~fixed
    # without fixed entries the whole request seeds the tangent
    seed = np.where(fixed | ~fixed.any(axis=-1, keepdims=True), d0, 0.0)
    lock_tol = LOCK_TOL * np.maximum(1.0, np.abs(seed).max(axis=-1))
    t, unmet = _tangent(C, seed, fixed)
    status = np.where(unmet > lock_tol, _LOCKED, _OK)
    n_sub = np.maximum(1, np.ceil(np.abs(t).max(axis=-1) / step_scale)).astype(int)
    t /= n_sub[:, None]
    for k in range(n_sub.max()):
        rows = ((status == _OK) & (n_sub > k)).nonzero()[0]
        if k > 0:
            t[rows], unmet = _tangent(C[rows], seed[rows] / n_sub[rows, None],
                                      fixed[rows])
            locked = unmet > lock_tol[rows]
            status[rows[locked]] = _LOCKED
            rows = rows[~locked]
        if rows.size == 0:
            break
        moved = rho[rows] + t[rows]
        r[rows], C[rows], closed = _newton(geom, moved, free[rows], tol)
        rho[rows] = moved
        status[rows[~closed]] = _NOT_CONVERGED

    clamped = ((rho < lo - 1e-12) | (rho > hi + 1e-12)) & (status == _OK)[:, None]
    rows = clamped.any(axis=-1).nonzero()[0]
    if rows.size:
        moved = np.clip(rho[rows], lo, hi)
        r[rows], C[rows], closed = _newton(geom, moved, free[rows] & ~clamped[rows],
                                           tol)
        rho[rows] = moved
        status[rows[~closed]] = _NOT_CONVERGED
        outside = np.any((moved < lo - 1e-9) | (moved > hi + 1e-9), axis=-1)
        status[rows[outside & closed]] = _OUTSIDE_BOX
    # written so that a NaN residual fails the check
    status[(status == _OK) & ~(np.abs(r).max(axis=-1) <= tol)] = _NOT_CLOSED
    return clamped, status


def _require_closed(r, tol, what):
    """Raise NotClosedError naming the first row of residuals ``r`` above
    ``tol``; written so that a NaN residual fails."""
    res = np.abs(r).max(axis=-1)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        raise NotClosedError(f"{what} {bad[0]}: closure residual "
                             f"{res[bad[0]]:.3e} > {tol:.1e}")


def check_states(geom, rho_o, tol=NEWTON_TOL, box_tol=1e-9):
    """Check a stack of fold states (M, N) against the mountain/valley
    boxes and the closure tolerance, all rows in one closure pass.

    The error names the first failing row; NaN angles fail both checks.
    """
    lo, hi = angle_bounds(geom)
    inside = np.all((rho_o >= lo - box_tol) & (rho_o <= hi + box_tol), axis=-1)
    if not inside.all():
        raise ValueError(f"state {np.flatnonzero(~inside)[0]}: angles violate "
                         "mountain/valley boxes")
    _require_closed(_closure(geom, rho_o)[0], tol, "state")


@dataclass
class StepResult:
    state: "FoldState"
    clamped: tuple = ()


def project_step(geom, state, req, tol=NEWTON_TOL):
    """One constrained step from a closed state.

    The increment is the minimum-norm tangent vector matching the
    controlled components of ``delta_rho_0`` exactly (without controlled
    entries, the whole ``delta_rho_0`` is projected onto the tangent
    space), then a Newton correction over the uncontrolled angles restores
    closure.  Requests larger than ``step_scale`` are split into equal
    substeps.  Angles that leave their box after correction are clamped
    and reported.
    """
    rho = np.array([state.rho_o], dtype=float)
    r, C = _closure(geom, rho)
    _require_closed(r, tol, "start state")
    fixed = np.zeros(rho.shape, dtype=bool)
    fixed[0, list(req.controlled_indices)] = True
    clamped, status = _project(geom, rho, r, C, req.delta_rho_0[None], fixed,
                               np.array([req.step_scale]), tol, angle_bounds(geom))
    if status[0] == _LOCKED:
        raise LockedConfiguration(
            "prescribed increments lie outside the feasible tangent space")
    if status[0] != _OK:
        raise StepFailure(_FAILURES[status[0]])
    return StepResult(state=FoldState.from_angles(geom, rho[0], check=False),
                      clamped=tuple(np.flatnonzero(clamped[0]).tolist()))


@dataclass
class FoldingPath:
    """Ordered closed states as arrays: fold angles ``rho_o`` (M, N) and
    sub angles ``rho_s`` (M, n_cell), with the driving parameter of each
    state and the termination."""
    rho_o: np.ndarray
    rho_s: np.ndarray
    params: np.ndarray
    param_name: str = "step"
    termination: str = "completed"
    frozen_history: list = field(default_factory=list)

    @property
    def states(self):
        """The rows as FoldState objects, for callers that want them."""
        return [FoldState(rho_o=a, rho_s=s)
                for a, s in zip(self.angles(), self.sub_angles())]

    def angles(self):
        return self.rho_o.copy()

    def sub_angles(self):
        return self.rho_s.copy()

    def __len__(self):
        return len(self.rho_o)


def trace_paths(geom, starts, requests, n_steps, on_boundary="stop",
                param_name="step", tol=NEWTON_TOL):
    """Trace one folding path per closed start state, all in lockstep.

    Path b repeats the constant StepRequest ``requests[b]`` every step,
    its controlled angles cut to reach at most their box face; ``n_steps``
    caps the steps, one number for all paths or one per path.  Failed
    steps are retried with halved step_scale down to MIN_STEP.  When an
    uncontrolled angle reaches its box face the path either terminates
    (``on_boundary='stop'``) or pins that angle to the face for the
    remainder of the path and continues (``'freeze'``, which preserves the
    mountain/valley assignment of every crease); controlled angles
    reaching their box always terminate the path.

    Every path is traced exactly as it would be alone.  If a path fails
    even at MIN_STEP, the other paths still run to their end, then the
    first failing path's StepFailure is raised with ``completed`` holding
    the paths listed before it.
    """
    if on_boundary not in ("stop", "freeze"):
        raise ValueError("on_boundary must be 'stop' or 'freeze'")
    if len(starts) != len(requests):
        raise ValueError("need one request per start state")
    if not starts:
        return []
    n_path = len(starts)
    n_steps = np.broadcast_to(np.asarray(n_steps, dtype=int), (n_path,))
    rho = np.array([s.rho_o for s in starts], dtype=float).reshape(n_path, -1)
    r, C = _closure(geom, rho)
    _require_closed(r, tol, "start state")
    bounds = lo, hi = angle_bounds(geom)
    req_d0 = np.array([req.delta_rho_0 for req in requests]).reshape(rho.shape)
    ctrl = np.zeros(rho.shape, dtype=bool)
    for b, req in enumerate(requests):
        ctrl[b, list(req.controlled_indices)] = True
    req_scale = np.array([req.step_scale for req in requests], dtype=float)
    scale = req_scale.copy()        # halved on each failed try of a step
    n_done = np.zeros(n_path, dtype=int)
    frozen = np.zeros(rho.shape, dtype=bool)
    frozen_sets = [[()] for _ in range(n_path)]     # each path's, in order
    frozen_now = np.zeros(n_path, dtype=int)        # index into frozen_sets[b]
    termination = ["max-steps"] * n_path
    failures = {}
    done = np.zeros(n_path, dtype=bool)
    # path, angles, parameter increment and frozen set of every row, the
    # start rows first
    accepted = [(np.arange(n_path), rho.copy(), np.zeros(n_path), frozen_now.copy())]

    def finish(paths, reason):
        for b in paths:
            termination[b] = reason
        done[paths] = True

    # each pass tries the next step of every running path
    while (rows := (~done & (n_done < n_steps)).nonzero()[0]).size:
        d0, c, new_rho = req_d0[rows], ctrl[rows], rho[rows]
        # controlled angles may at most reach their box face
        d0 = np.where(c, np.clip(d0, lo - new_rho, hi - new_rho), d0)
        at_face = c.any(axis=-1) & (~c | (np.abs(d0) <= 1e-14)).all(axis=-1)
        finish(rows[at_face], "controlled-at-boundary")
        keep = ~at_face
        rows, d0, c, new_rho = rows[keep], d0[keep], c[keep], new_rho[keep]
        # the largest controlled increment, or the largest of all without any
        dparam = np.abs(np.where(c | ~c.any(axis=-1, keepdims=True), d0, 0.0)).max(axis=-1)
        f = frozen[rows]
        d0[f] = 0.0
        new_r, new_C = r[rows], C[rows]
        clamped, status = _project(geom, new_rho, new_r, new_C, d0, c | f, scale[rows],
                                   tol, bounds)
        ok = status == _OK
        finish(rows[status == _LOCKED], "locked")
        failed = ~ok & (status != _LOCKED)
        scale[rows[failed]] /= 2
        given_up = failed & (scale[rows] < MIN_STEP)
        for i in np.flatnonzero(given_up):
            failures[rows[i]] = _FAILURES[status[i]]
        finish(rows[given_up], "failed")
        hit = ok & clamped.any(axis=-1)
        if on_boundary == "freeze":
            frozen[rows[hit]] |= clamped[hit]
            frozen_now[rows[hit]] += 1
            for b in rows[hit]:
                frozen_sets[b].append(tuple(np.flatnonzero(frozen[b]).tolist()))
        accepted.append((rows[ok], new_rho[ok], dparam[ok], frozen_now[rows[ok]]))
        if on_boundary == "stop":
            finish(rows[hit], "boundary")
            ok &= ~hit
        moved, c = rows[ok], c[ok]
        rho[moved], r[moved], C[moved] = new_rho[ok], new_r[ok], new_C[ok]
        n_done[moved] += 1
        scale[moved] = req_scale[moved]
        # controlled angles pinned at their face end the sweep
        pinned = c.any(axis=-1) & (
            ~c | (rho[moved] >= hi - 1e-12) | (rho[moved] <= lo + 1e-12)).all(axis=-1)
        finish(moved[pinned], "controlled-at-boundary")

    # each path's rows, in step order; its first row is the start state
    path_of, angles, increments, sets = (np.concatenate(a) for a in zip(*accepted))
    subs = sub_angle_from_main(geom.alpha, np.clip(angles[:, 0::2], 0.0, np.pi))
    paths = []
    for b, start in enumerate(starts):
        if b in failures:
            raise StepFailure(failures[b], completed=paths)
        mine = path_of == b
        rho_s = subs[mine]
        rho_s[0] = start.rho_s
        paths.append(FoldingPath(
            rho_o=angles[mine], rho_s=rho_s,
            params=np.cumsum(increments[mine]), param_name=param_name,
            termination=termination[b],
            frozen_history=[frozen_sets[b][v] for v in sets[mine].tolist()]))
    return paths


def trace_path(geom, start, request, n_steps, on_boundary="stop",
               param_name="step", tol=NEWTON_TOL):
    """Trace a folding path from a closed start state, repeating the
    constant StepRequest ``request``; the one-path case of ``trace_paths``."""
    return trace_paths(geom, [start], [request], n_steps, on_boundary=on_boundary,
                       param_name=param_name, tol=tol)[0]
