"""Loop closure around the central vertex and constrained fold stepping.

The N = 2 n_cell creases at the central vertex alternate between main and
boundary creases with a uniform flat sector angle alpha between
neighbours.  A fold state is valid when the chained crease rotations
compose to the identity; stepping projects a requested increment onto the
tangent space of that constraint and Newton-corrects the residual, with
prescribed (controlled) increments honoured exactly.
"""
from dataclasses import dataclass, field

import numpy as np

from .unitcell import sub_angle_from_main

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SVD_CUTOFF = 1e-10      # relative singular-value cutoff of the pseudo-inverse
MIN_STEP = 1e-8         # radians; step halving gives up below this

class StepFailure(RuntimeError):
    """Newton correction did not converge for this step."""


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
            lo, hi = angle_bounds(geom)
            # written so that NaN angles fail both checks
            if not np.all((rho_o >= lo - box_tol) & (rho_o <= hi + box_tol)):
                raise ValueError("angles violate mountain/valley boxes")
            res = residual(geom, rho_o).max_abs()
            if not res <= tol:
                raise NotClosedError(f"closure residual {res:.3e} > {tol:.1e}")
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


@dataclass
class ClosureResidual:
    r_a: float
    r_b: float
    r_c: float

    def as_array(self):
        return np.array([self.r_a, self.r_b, self.r_c])

    def max_abs(self):
        return float(np.max(np.abs(self.as_array())))


def _chain_matrices(geom, rho_o):
    c, s = np.cos(rho_o), np.sin(rho_o)
    ca, sa = np.cos(geom.alpha), np.sin(geom.alpha)
    X = np.empty((len(rho_o), 3, 3))
    # rot_x(rho) @ rot_z(alpha), written out once
    X[:, 0, 0] = ca
    X[:, 0, 1] = -sa
    X[:, 0, 2] = 0.0
    X[:, 1, 0] = sa * c
    X[:, 1, 1] = ca * c
    X[:, 1, 2] = -s
    X[:, 2, 0] = sa * s
    X[:, 2, 1] = ca * s
    X[:, 2, 2] = c
    return X


def chain_product(geom, rho_o):
    """F = chi_1 chi_2 ... chi_N with chi_j = rot_x(rho_j) rot_z(alpha)."""
    rho_o = np.asarray(rho_o, dtype=float)
    F = np.eye(3)
    for Xj in _chain_matrices(geom, rho_o):
        F = F @ Xj
    return F


def _extract_residual(F):
    return ClosureResidual(
        r_a=0.5 * (F[1, 0] - F[0, 1]),
        r_b=0.5 * (F[2, 1] - F[1, 2]),
        r_c=0.5 * (F[0, 2] - F[2, 0]),
    )


def residual(geom, rho_o):
    """Skew components of the closure deviation, antisymmetrized."""
    return _extract_residual(chain_product(geom, rho_o))


def constraint_matrix(geom, rho_o):
    """Analytic 3 x N Jacobian of the residual w.r.t. the fold angles.

    With a_j the first column of the prefix product chi_1 ... chi_{j-1}
    (crease j's axis in the base frame), dF/drho_j = skew(a_j) F, whose
    skew components are (tr F I - F) a_j / 2 in (x, y, z) order; the rows
    are reordered to the residual's (r_a, r_b, r_c) = (z, x, y).  This is
    the single-vertex result of Belcastro & Hull (2002) and Tachi (2009).
    """
    X = _chain_matrices(geom, np.asarray(rho_o, dtype=float))
    A = np.empty((3, len(X)))
    F = np.eye(3)
    for j, Xj in enumerate(X):
        A[:, j] = F[:, 0]
        F = F @ Xj
    C = 0.5 * (np.trace(F) * np.eye(3) - F) @ A
    return C[[2, 0, 1]]


def pseudo_inverse(C, rcond=SVD_CUTOFF):
    """Moore-Penrose inverse with a relative singular-value cutoff."""
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    keep = s > rcond * s[0]
    return (Vt[keep].T / s[keep]) @ U[:, keep].T


def null_space(C, rcond=SVD_CUTOFF):
    """Orthonormal basis of the constraint null space (columns)."""
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > rcond * s[0]))
    return Vt[rank:].T


def _newton_correct(geom, rho, free_idx, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Drive the residual to tol by min-norm updates of the free angles."""
    rho = rho.copy()
    if len(free_idx) == 0:
        if residual(geom, rho).max_abs() > tol:
            raise StepFailure("no free angles left to correct the residual")
        return rho
    for _ in range(max_iter):
        r = residual(geom, rho).as_array()
        if np.max(np.abs(r)) < tol:
            return rho
        Cu = constraint_matrix(geom, rho)[:, free_idx]
        rho[free_idx] -= pseudo_inverse(Cu) @ r
    raise StepFailure("Newton correction did not converge")


def _tangent_step(geom, rho, d0, fixed_idx, lock_tol=1e-8):
    """Min-norm tangent increment with exact values at fixed indices."""
    C = constraint_matrix(geom, rho)
    Z = null_space(C)
    if len(fixed_idx) == 0:
        return Z @ (Z.T @ d0)
    d = d0[fixed_idx]
    y, *_ = np.linalg.lstsq(Z[fixed_idx, :], d, rcond=None)
    t = Z @ y
    if np.max(np.abs(t[fixed_idx] - d)) > lock_tol * max(1.0, np.max(np.abs(d))):
        raise LockedConfiguration(
            "prescribed increments lie outside the feasible tangent space")
    t[fixed_idx] = d
    return t


@dataclass
class StepResult:
    state: "FoldState"
    clamped: tuple = ()
    frozen: tuple = ()


def project_step(geom, state, req, frozen=(), tol=NEWTON_TOL):
    """One constrained step from a closed state.

    The increment is the minimum-norm tangent vector matching the
    controlled components of ``delta_rho_0`` exactly (the uncontrolled
    entries of ``delta_rho_0`` seed the remaining tangent freedom), then a
    Newton correction over the uncontrolled angles restores closure.
    Requests larger than ``step_scale`` are split into equal substeps.

    ``frozen`` indices are held at their current value (used by path
    tracers to pin angles at a mountain/valley box face).  Angles that
    leave their box after correction are clamped and reported; the caller
    decides whether that terminates or freezes.
    """
    rho = state.rho_o.copy()
    ctrl = tuple(req.controlled_indices)
    frozen = tuple(int(i) for i in frozen)
    fixed = sorted(set(ctrl) | set(frozen))
    d0 = req.delta_rho_0.copy()
    d0[list(frozen)] = 0.0
    free_idx = np.array([i for i in range(len(rho)) if i not in set(fixed)],
                        dtype=int)

    t_probe = _tangent_step(geom, rho, d0, fixed)
    n_sub = max(1, int(np.ceil(np.max(np.abs(t_probe)) / req.step_scale)))
    d_sub = d0 / n_sub
    for k in range(n_sub):
        t = t_probe if n_sub == 1 else _tangent_step(geom, rho, d_sub, fixed)
        rho = rho + t
        rho = _newton_correct(geom, rho, free_idx, tol=tol)

    lo, hi = angle_bounds(geom)
    viol = np.where((rho < lo - 1e-12) | (rho > hi + 1e-12))[0]
    clamped = tuple(int(i) for i in viol)
    if clamped:
        rho = np.clip(rho, lo, hi)
        still_free = np.array([i for i in free_idx if i not in set(clamped)],
                              dtype=int)
        rho = _newton_correct(geom, rho, still_free, tol=tol)
        if np.any(rho < lo - 1e-9) or np.any(rho > hi + 1e-9):
            raise StepFailure("clamped state cannot be closed inside the boxes")
    new = FoldState.from_angles(geom, rho, check=False)
    new_res = residual(geom, rho).max_abs()
    if new_res > tol:
        raise StepFailure(f"residual {new_res:.2e} after step")
    return StepResult(state=new, clamped=clamped, frozen=frozen)


@dataclass
class FoldingPath:
    """Ordered closed states with the driving parameter and termination."""
    states: list
    params: np.ndarray
    param_name: str = "step"
    termination: str = "completed"
    frozen_history: list = field(default_factory=list)

    def angles(self):
        return np.array([s.rho_o for s in self.states])

    def sub_angles(self):
        return np.array([s.rho_s for s in self.states])

    def __len__(self):
        return len(self.states)


def trace_path(geom, start, driver, n_steps, on_boundary="stop",
               param_name="step", tol=NEWTON_TOL):
    """Trace a folding path from a closed start state.

    ``driver(k, state)`` returns the StepRequest for step k, or None to
    stop.  Failed steps are retried with halved step_scale down to
    MIN_STEP.  When an uncontrolled angle reaches its box face the path
    either terminates (``on_boundary='stop'``) or pins that angle to the
    face for the remainder of the path and continues (``'freeze'``, which
    preserves the mountain/valley assignment of every crease); controlled
    angles reaching their box always terminate the path.
    """
    if on_boundary not in ("stop", "freeze"):
        raise ValueError("on_boundary must be 'stop' or 'freeze'")
    res0 = residual(geom, start.rho_o).max_abs()
    if res0 > tol:
        raise NotClosedError(f"start state residual {res0:.3e}")
    lo, hi = angle_bounds(geom)
    states = [start]
    params = [0.0]
    frozen = set()
    frozen_hist = [tuple()]
    termination = "completed"
    state = start
    for k in range(n_steps):
        req = driver(k, state)
        if req is None:
            break
        # controlled angles may at most reach their box face
        d0 = req.delta_rho_0.copy()
        at_face = True
        for c in req.controlled_indices:
            room_lo = lo[c] - state.rho_o[c]
            room_hi = hi[c] - state.rho_o[c]
            d0[c] = np.clip(d0[c], room_lo, room_hi)
            if abs(d0[c]) > 1e-14:
                at_face = False
        if req.controlled_indices and at_face:
            termination = "controlled-at-boundary"
            break
        req_k = StepRequest(d0, req.controlled_indices, req.step_scale)
        scale = req_k.step_scale
        while True:
            try:
                out = project_step(geom, state, req_k, frozen=tuple(frozen), tol=tol)
                break
            except StepFailure:
                scale = scale / 2
                if scale < MIN_STEP:
                    raise
                req_k = StepRequest(req_k.delta_rho_0, req_k.controlled_indices,
                                    scale)
            except LockedConfiguration:
                termination = "locked"
                out = None
                break
        if out is None:
            break
        if out.clamped:
            if on_boundary == "stop":
                states.append(out.state)
                params.append(params[-1] + _param_increment(req_k))
                frozen_hist.append(tuple(sorted(frozen)))
                termination = "boundary"
                break
            frozen |= set(out.clamped)
        state = out.state
        states.append(state)
        params.append(params[-1] + _param_increment(req_k))
        frozen_hist.append(tuple(sorted(frozen)))
        # controlled angles pinned at their face end the sweep
        if req.controlled_indices and all(
                state.rho_o[c] >= hi[c] - 1e-12 or state.rho_o[c] <= lo[c] + 1e-12
                for c in req.controlled_indices):
            termination = "controlled-at-boundary"
            break
    else:
        termination = "max-steps" if termination == "completed" else termination
    return FoldingPath(states=states, params=np.array(params),
                       param_name=param_name, termination=termination,
                       frozen_history=frozen_hist)


def _param_increment(req):
    if req.controlled_indices:
        return float(np.max(np.abs(req.delta_rho_0[list(req.controlled_indices)])))
    return float(np.max(np.abs(req.delta_rho_0))) if req.delta_rho_0.size else 0.0
