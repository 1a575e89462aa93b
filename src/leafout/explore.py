"""Non-uniform multi-grasp exploration by selective crease driving.

Selected unit cells receive an identical controlled increment on their
main-crease angles each step, one constant drive per program; the
remaining angles follow the projected kinematics.  Folding modes are
compared in a configuration space spanned by the main-angle differences
(rho_M2 - rho_M4, rho_M3 - rho_M5) against the cumulative controlled
angle (``config_space``).  A set of programs is stepped together
(``run_programs``).

Paths start from a slightly folded uniform state rather than the exact
flat state, which is a branch point where the mountain/valley assignment
is ambiguous.  The start is the closed-phase uniform state with
rho_M = 7.1 deg, exact through ``psi_from_main``: one row of fold angles,
repeated as the start row of every program.  When an uncontrolled
angle reaches its mountain/valley limit it is pinned there and the drive
continues, which keeps the crease assignments and matches how the energy
minima along grasping paths are reached well past the first boundary
contact.

Stepping traces a stack of paths in lockstep, each repeating one constant
drive: a row of increments, a mask of the controlled ones and a substep
cap, given as arrays with one row or value per path and checked once, at
``trace_paths``' entry.  The accepted rows are logged per step, beside
the mask of angles pinned at their box face, and grouped by path at the
end.  One prefix pass over the chain gives every path's closure residual
and its 3 x N Jacobian C.  The tangent increment prescribes the fixed
(controlled or frozen) entries exactly and moves the free ones by the
minimum-norm amount that keeps C t = 0: t_fixed = d,
t_free = -pinv(C_free) C_fixed d.  C_free is C with the fixed columns
zeroed, so one batched solve serves every path whatever its fixed set:
a row whose 3 x 3 Gram matrix is well conditioned is solved in closed
form through its adjugate, and only the rest take an SVD.  Newton
corrects the free angles through the same masked pseudo-inverse.

The predictor is an Adams-Bashforth rule on the tangent increments (see
Allgower & Georg, Introduction to Numerical Continuation Methods, 2003,
and Hairer, Norsett & Wanner, Solving ODEs I, III.1).  A substep whose
parameter increment h equals the previous one's bit for bit takes the
equal-step rule of the highest order its last four tangent increments
allow, up to five; one whose h changed takes the variable-step two-step
rule t_k + (w / 2)(t_k - w t_{k-1}), w = h_k / h_{k-1}.  A path's first
substep, and the first after a clamp or a failed try, restarts with
Heun's rule, the mean of t_k and the tangent at the Euler point, at one
more closure and solve of the stack.  The fixed angles move by t_k
exactly, and Newton takes at least one iteration on every stepping row.
The reused tangents cost nothing, and the predictor is accurate enough
for a grasp substep to span four drive increments: on the default
programs the traces lie within 8e-6 rad of the continuous motion.

Each pass steps the whole stack.  ``trace_paths`` gives ``_project``
each row's seed: the increments of its controlled angles (every path is
steered), and no increment for an ended path, which rides along with
every angle fixed.  A row that needs no further substep or Newton
iteration has no free angle, so its update is exactly zero.  The rows
are selected by masks only in a pass where they differ: one where a path
ends, locks, fails a try, clamps, restarts the predictor or splits its
step into more substeps than another.  One
reduction over the stack tells each such event; without it the masks
would select every row, so the pass skips them and every row's
arithmetic stays the same.  A failed step is retried in the next pass
with step_scale halved, at most MAX_HALVINGS times and not below
MIN_STEP, which bounds its work to 2**(MAX_HALVINGS + 1) - 1 times the
substeps of its first try.  Every array operation acts on each path's
row alone, so a path's trace is the same whichever paths are stepped
beside it.
"""
# kinematics is imported before numpy, as explore is in cli, so that its
# compile does not stack on numpy's memory
from .kinematics import (_HUGE, NEWTON_TOL, FoldingPath, _Record, _closure, _count, _read,
                         angle_bounds, check_states, sub_angles)

import numpy as np

from .uniform import psi_from_main, uniform_state

NEWTON_MAX_ITER = 50
SVD_CUTOFF = 1e-10      # relative singular-value cutoff of the pseudo-inverse
GRAM_GUARD = 1e-6       # det G > GRAM_GUARD (tr G)**3: s_min / s_max > 1e-3
MIN_STEP = 1e-8         # radians; step halving gives up below this
MAX_HALVINGS = 10       # halved retries of one failed step
LOCK_TOL = 1e-8         # unmet tangent constraint that counts as locked
NEAR_FLAT_MAIN = np.radians(7.1)
DEFAULT_DELTA_RHO_C = np.radians(0.5)
DEFAULT_MAX_STEPS = 400
# drive increments a substep may span: the fifth-order predictor keeps such
# substeps closer to the continuous motion than two-step substeps of one
# increment were
SUBSTEP_SPAN = 4


class StepFailure(RuntimeError):
    """A step could not be closed, even on its halved retries.

    When a batch of paths is traced, ``completed`` holds the results of
    the paths listed before the failing one.
    """

    def __init__(self, message, completed=()):
        super().__init__(message)
        self.completed = list(completed)


# the reductions of the stepping loop as ufunc methods, without the Python
# wrappers of the ndarray methods (axis 0 unless given, None for all)
_any, _all, _max, _sum = (np.logical_or.reduce, np.logical_and.reduce, np.maximum.reduce,
                          np.add.reduce)
# flat indices [[a, b], [c, d]] of adj(G) = G[a] G[b] - G[c] G[d] for a 3 x 3
# G: adj_ij = G_j1i1 G_j2i2 - G_j1i2 G_j2i1 with k1, k2 = k + 1, k + 2 mod 3,
# entry ij at flat index f = 3 i + j; built from lists, as kinematics._TAIL is
_ADJ = np.array([[[3 * ((f + b) % 3) + (f // 3 + c) % 3 for f in range(9)]
                  for b, c in pair] for pair in (((1, 1), (2, 2)), ((1, 2), (2, 1)))])


def _svd_solve(C, v):
    """pinv(C) v per row of a stack, singular values below SVD_CUTOFF times
    the largest dropped."""
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    keep = s > SVD_CUTOFF * s[:, :1]
    w = np.divide((U * v[:, :, None]).sum(axis=1), s,
                  out=np.zeros(s.shape), where=keep)
    return (Vt * w[:, :, None]).sum(axis=1)


def _masked_solve(C, free, v):
    """pinv(C_free) v per row, with C_free = C with non-free columns zeroed.

    The result is the minimum-norm x with x = 0 off the free entries that
    best solves C x = v; singular values below SVD_CUTOFF times the largest
    are dropped.  A row whose Gram matrix G = C_free C_free^T passes
    det G > GRAM_GUARD (tr G)**3 has s_min / s_max > 1e-3, so all three
    singular values are kept: it is solved as x = C_free^T G^-1 v, G^-1
    the adjugate over det G, plus one step of iterative refinement on
    v - C_free x.  Only the other rows with a free column (rank-deficient,
    near-flat or locked Jacobians, fewer than three free columns) take an
    SVD; a row without a free column is exactly zero.  When every row
    passes, the guarded division and the SVD fallback are skipped.
    """
    Cf = np.where(free[:, None, :], C, 0.0)
    g = (Cf @ Cf.transpose(0, 2, 1)).reshape(-1, 9)
    q = g[:, _ADJ]
    q = q[:, :, 0] * q[:, :, 1]             # G[a] G[b] and G[c] G[d]
    adj = q[:, 0] - q[:, 1]
    det = _sum(g[:, :3] * adj[:, ::3], -1)
    ok = det > GRAM_GUARD * _sum(g[:, ::4], -1) ** 3
    every = _all(ok)
    inverse = (adj / det[:, None] if every else
               np.divide(adj, det[:, None], out=np.zeros(adj.shape), where=ok[:, None]))
    W = Cf.transpose(0, 2, 1) @ inverse.reshape(-1, 3, 3)
    x = (W @ v[:, :, None])[..., 0]
    x += (W @ (v - (Cf @ x[:, :, None])[..., 0])[:, :, None])[..., 0]
    if not every:
        rest = ~ok & free.any(axis=-1)
        if rest.any():
            x[rest] = _svd_solve(Cf[rest], v[rest])
    return np.where(free, x, 0.0)


def _tangent(C, seed, free):
    """Tangent increments per row and their unmet constraint max |C t|.

    Entries of ``seed`` off the ``free`` mask are kept exactly; the free
    entries move by the least amount that makes C t = 0.
    """
    t = seed - _masked_solve(C, free, _sum(C * seed[:, None, :], -1))
    return t, _max(np.abs(_sum(C * t[:, None, :], -1)), -1)


def _newton(geom, rho, free):
    """Min-norm Newton updates of the free angles until each row closes.

    Updates ``rho`` in place; returns the Jacobians at the final iterates
    and which rows closed to below NEWTON_TOL.  Every row with a free angle
    takes at least one iteration, even one that already closes, so a good
    prediction is closed as tightly as a poor one.  Each iteration solves
    the whole stack: a closed row has no free column left, so its update
    is exactly zero and its residual is recomputed unchanged.  The loop
    ends as soon as every row closes.
    """
    r, C = _closure(geom, rho)
    step = free
    for _ in range(NEWTON_MAX_ITER):
        if not _any(step, None):
            break
        rho -= _masked_solve(C, step, r)
        r, C = _closure(geom, rho)
        closed = _max(np.abs(r), -1) < NEWTON_TOL
        if _all(closed):
            return C, closed
        step = free & ~closed[:, None]
    return C, _max(np.abs(r), -1) < NEWTON_TOL


# step outcomes, and _AT_FACE; a path's ending is one of them (_OK while
# it runs), and every code above _LOCKED is a failed try
_OK, _AT_FACE, _LOCKED, _NOT_CONVERGED, _OUTSIDE_BOX = range(5)
# by code: a traced path's termination, or the message of its StepFailure
_ENDINGS = ("max-steps", "controlled-at-boundary", "locked",
            "Newton correction did not converge",
            "clamped state cannot be closed inside the boxes")


# weights of the equal-step Adams-Bashforth rules on the tangent increments
# t_k, t_{k-1}, ..., t_{k-4}, by the number of earlier increments taken at
# the same h (Hairer, Norsett & Wanner, Solving ODEs I, III.1); a list, as
# a numpy call at import raises every task's peak RSS
_AB = [[1.0, 0.0, 0.0, 0.0, 0.0],
       [3 / 2, -1 / 2, 0.0, 0.0, 0.0],
       [23 / 12, -16 / 12, 5 / 12, 0.0, 0.0],
       [55 / 24, -59 / 24, 37 / 24, -9 / 24, 0.0],
       [1901 / 720, -2774 / 720, 2616 / 720, -1274 / 720, 251 / 720]]


def _pick(rows, new, old):
    """Per row of a stack, ``new`` where the (B,) mask ``rows`` is set and
    ``old`` elsewhere; ``new`` itself when ``rows`` is None, for every row."""
    if rows is None:
        return new
    return np.where(rows.reshape(-1, *(1,) * (np.ndim(new) - 1)), new, old)


def _project(geom, rho, C, seed, seed_max, free, step_scale, bounds, weights, history):
    """One constrained step of each row of a stack of closed states.

    ``rho`` (B, N) holds the states, ``C`` their Jacobians, ``seed`` the
    increments that seed the tangent (exact at the fixed entries, projected
    at the free ones, zero at every angle that takes no part) and
    ``seed_max`` (B,) its largest magnitude per row, ``free`` the mask of
    the angles that are neither controlled nor frozen nor in a row taking
    no part, ``step_scale`` (B,) the substep caps, ``bounds`` the
    ``angle_bounds`` boxes followed by the same boxes widened by the
    clamp's 1e-12, and ``weights`` the Adams-Bashforth table _AB as an
    array.  ``history`` holds each row's earlier substeps: its last four
    tangent increments (B, 4, N), newest first, the parameter increment
    h = seed_max / n_sub (B,) of the last one, 0 where the row has none,
    and how many of them (B,), up to four, were taken at that same h.

    A substep whose h equals the last one bit for bit moves the free
    angles by the equal-step Adams-Bashforth rule of the highest order
    its history allows, up to five; one whose h changed falls back to the
    variable-step two-step rule t_k + (w / 2)(t_k - w t_{k-1}), w the
    ratio of the two h.  A row without history restarts with Heun's rule,
    the mean of t_k and the tangent at the Euler point rho + t_k, which
    costs one more closure and tangent solve of the stack, in passes where
    some row restarts.  The fixed angles move by t_k exactly.

    Returns the stepped states with their Jacobians, the history for the
    next step (none where a row was clamped or its status is not ok), the
    (B, N) mask of clamped angles and a status code per row; the inputs
    are not changed.  Substeps and corrections act on the whole stack; a
    row taking no part keeps its angles, as does one with every angle
    fixed and no increment.

    Each rare event is told by one reduction over the stack: a lock or a
    failed correction (any status), a split step (an n_sub above 1), a
    changed h (which a restart, with h_prev = 0, needs) and a clamp.  Only
    then does its masked bookkeeping run: selecting with a mask that holds
    for every row is the identity, so each row's arithmetic is the same
    either way.  A pass without these events takes one tangent solve, the
    predictor sum, Newton and the clamp test.
    """
    lo, hi, below, above = bounds
    lock_tol = LOCK_TOL * np.maximum(1.0, seed_max)
    t, unmet = _tangent(C, seed, free)
    status = np.where(unmet > lock_tol, _LOCKED, _OK)
    sub_seed, h = seed, seed_max
    n_sub = _max(np.abs(t), -1) / step_scale
    n_max = 1
    if _max(n_sub) > 1:     # split into n_sub equal substeps, at least one
        n_sub = np.maximum(1.0, np.ceil(n_sub))
        n_max = int(n_sub.max())
        t /= n_sub[:, None]
        sub_seed = seed / n_sub[:, None]
        h = seed_max / n_sub
    past, h_prev, n_same = history
    for k in range(n_max):
        # the rows that take this substep; None while all of them do
        go = ((status == _OK) & (n_sub > k) if k else
              status == _OK if _any(status) else None)
        if k > 0:
            t, unmet = _tangent(C, sub_seed, free & go[:, None])
            locked = go & (unmet > lock_tol)
            status[locked] = _LOCKED
            go &= ~locked
        # an equal h takes the table's rule of order n_same + 1; a changed
        # one its first row, plain t_k, plus the two-step term
        # (w / 2)(t_k - w t_{k-1}), which is 0 without history (w = 0)
        same = h == h_prev
        recent = np.concatenate((t[:, None], past), axis=1)     # t_k, ..., t_{k-4}
        if _all(same):          # so no row restarts: h_prev = 0 means h = 0
            n_same_next = np.minimum(n_same + 1, 4)
            move = _sum(weights[n_same][:, :, None] * recent, 1)
        else:
            n_same_next = np.minimum(n_same * same + 1, 4)
            move = _sum(weights[n_same * same][:, :, None] * recent, 1)
            w = np.divide(h, h_prev, out=np.zeros(h.shape),
                          where=~same & (h_prev > 0))[:, None]
            move += w / 2 * (t - w * past[:, 0])
            heun = (h_prev == 0) & (h > 0)
            if go is not None:
                heun &= go
            if heun.any():
                t_euler = _tangent(_closure(geom, rho + t)[1], sub_seed, free)[0]
                move = np.where(heun[:, None], (t + t_euler) / 2, move)
        rho = _pick(go, rho + np.where(free, move, t), rho)
        C, closed = _newton(geom, rho, free if go is None else free & go[:, None])
        if not _all(closed):
            status[~closed if go is None else go & ~closed] = _NOT_CONVERGED
        past = _pick(go, recent[:, :4], past)
        n_same = _pick(go, n_same_next, n_same)
        h_prev = _pick(go, h, h_prev)

    clamped = (rho < below) | (rho > above)
    not_ok = _any(status)
    if not_ok:
        clamped &= (status == _OK)[:, None]
    # a clamped row, or one whose status is not ok, starts its next step afresh
    if _any(clamped, None):
        hit = clamped.any(axis=-1)
        rho = np.where(hit[:, None], np.clip(rho, lo, hi), rho)
        C, closed = _newton(geom, rho, free & ~clamped & hit[:, None])
        status[hit & ~closed] = _NOT_CONVERGED
        outside = np.any((rho < lo - 1e-9) | (rho > hi + 1e-9), axis=-1)
        status[hit & closed & outside] = _OUTSIDE_BOX
        h_prev = np.where(hit | (status != _OK), 0.0, h_prev)
    elif not_ok:
        h_prev = np.where(status != _OK, 0.0, h_prev)
    return rho, C, (past, h_prev, n_same), clamped, status


def trace_paths(geom, starts, delta_rho_0, controlled, step_scale, n_steps):
    """Trace one folding path per start row (B, N), all in lockstep; each
    start must pass ``check_states``.

    Path b repeats one drive every step: the increments ``delta_rho_0[b]``,
    exact at the entries the bool mask ``controlled[b]`` marks, each cut to
    reach at most its box face.  ``step_scale`` caps each substep and
    ``n_steps`` the steps, one value for all paths or one per path.  A
    step is split into equal substeps; the predictor carries the tangent
    increments of a path's last four substeps from step to step, and
    restarts with Heun's rule at the path's start and after a clamp or a
    failed try (see the module docstring).  When an uncontrolled angle
    reaches its box face it is pinned there for the remainder of the
    path, which keeps the mountain/valley assignment of every crease, and
    the path continues; the path's ``frozen`` mask marks it from that
    state on.  Once every controlled angle is within 1e-12 of the face it
    is driven towards, the path ends before its next step, even when it
    has no step left.  The path parameter ``delta_rho_c`` sums the largest
    controlled increment of each step.  Each argument is read by ``_read``
    before any closure, and a ``controlled`` row that marks no angle is
    refused then too.

    If a path fails on its last retry, the other paths still run to their
    end, then the first failing path's StepFailure is raised.
    """
    # each argument is checked whole, in order, so the first bad one is named
    rho = _read("starts", starts, shape=(None, geom.n_vertex_creases))
    n_path = len(rho)
    req_d0 = _read("delta_rho_0", delta_rho_0, -_HUGE, _HUGE, shape=rho.shape)
    ctrl = _read("controlled", controlled, kinds="b", shape=rho.shape)
    idle = ~ctrl.any(axis=-1)
    if idle.any():
        raise ValueError(f"controlled[{np.argmax(idle)}] must mark at least one angle, "
                         "got none")
    per_path = [(), (n_path,)]      # one value for all paths or one per path
    # an infinite scale would be retried forever
    req_scale = _read("step_scale", step_scale, MIN_STEP, _HUGE, shape=per_path)
    n_steps = _read("n_steps", n_steps, 0, np.inf, "iu", per_path)
    C = check_states(geom, rho, "starts row")
    lo, hi = angle_bounds(geom)
    # worked out once per trace: the boxes with the clamp's slack, and the
    # predictor's weights (a numpy call at import raises every task's peak RSS)
    bounds, weights = (lo, hi, lo - 1e-12, hi + 1e-12), np.array(_AB)
    # the seed, whose largest entry is the parameter increment: the
    # controlled increments, cut each pass so that a controlled angle at
    # most reaches its box face; the other angles have no face to cut at
    req_seed = np.where(ctrl, req_d0, 0.0)
    lo_cut, hi_cut = np.where(ctrl, lo, -np.inf), np.where(ctrl, hi, np.inf)
    scale = req_scale               # halved on each failed try of a step
    min_scale = np.maximum(MIN_STEP, req_scale / 2.0 ** MAX_HALVINGS)
    n_done = np.zeros(n_path, dtype=int)
    ending = np.full(n_path, _OK)   # the code that ended each path, _OK while it runs
    frozen = np.zeros(rho.shape, dtype=bool)
    free = ~ctrl                    # neither controlled nor pinned
    # no earlier substep: tangent increments, parameter increment, equal count
    history = np.zeros((n_path, 4, rho.shape[1])), np.zeros(n_path), np.zeros(n_path, int)
    # per pass: which paths took a step, all angles, increments and pinned angles
    log = [(np.ones(n_path, dtype=bool), rho, np.zeros(n_path), frozen)]

    # each pass tries the next step of every running path; the other
    # paths ride along with every angle fixed and no increment.  A mask
    # that holds for every path is not applied: see _project
    while True:
        # the cut seed; its other entries are zero, so its largest entry
        # tells when every controlled angle sits at its face, and the path
        # then ends, whatever steps it has left
        d0 = np.minimum(np.maximum(req_seed, lo_cut - rho), hi_cut - rho)
        size = _max(np.abs(d0), -1)
        at_face = size <= 1e-12
        if _any(at_face):
            ending[at_face & (ending == _OK)] = _AT_FACE
        run = (ending == _OK) & (n_done < n_steps)
        if not _any(run):
            break
        every = _all(run)
        seed, seed_max = d0, size
        if not every:               # paths at rest take no increment
            seed, seed_max = np.where(run[:, None], d0, 0.0), np.where(run, size, 0.0)
        new_rho, new_C, history, clamped, status = _project(
            geom, rho, C, seed, seed_max, free if every else free & run[:, None],
            scale, bounds, weights, history)
        if _any(status):
            ok = run & (status == _OK)
            failed = run & (status > _LOCKED)
            scale = np.where(failed, scale / 2, req_scale)
            # a lock ends a path at once, a failed try once it can be halved no more
            stop = run & (status == _LOCKED) | failed & (scale < min_scale)
            ending[stop] = status[stop]
            every = ok.all()
        else:
            ok, scale = run, req_scale
        pins = clamped if every else clamped & ok[:, None]
        if _any(pins, None):    # a new mask: the log holds the earlier one
            frozen = frozen | pins
            free = ~ctrl & ~frozen
        log.append((ok, new_rho, seed_max, frozen))
        stepped = None if every else ok
        rho, C = _pick(stepped, new_rho, rho), _pick(stepped, new_C, C)
        n_done += ok

    # each path's rows, in step order; its first row is the start state
    took, angles, increments, pinned = (np.array(a) for a in zip(*log))
    paths = []
    for b in range(n_path):
        if ending[b] > _LOCKED:
            raise StepFailure(_ENDINGS[ending[b]], completed=paths)
        mine = took[:, b]
        paths.append(FoldingPath(
            rho_o=angles[mine, b], rho_s=sub_angles(geom, angles[mine, b]),
            params=np.cumsum(increments[mine, b]), param_name="delta_rho_c",
            termination=_ENDINGS[ending[b]], frozen=pinned[mine, b]))
    return paths


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
    step, and a substep may span SUBSTEP_SPAN of them.  Returns one
    FoldingPath per program; a failing program's StepFailure names it.
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
