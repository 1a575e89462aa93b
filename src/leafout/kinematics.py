"""Loop closure around the central vertex and constrained fold stepping.

The N = 2 n_cell creases at the central vertex alternate between main and
boundary creases with a uniform flat sector angle alpha between
neighbours.  A fold state is one row of their angles, (N,) ordered
[rho_M1, rho_B1, ..., rho_Mn, rho_Bn], and a stack of states an (..., N)
array; the sub-crease angles follow from the main ones (``sub_angles``).
A state is valid when the chained crease rotations compose to the
identity and every angle lies in its mountain/valley box.

Each unit cell also carries an interior degree-4 vertex where the main
crease, the two sub creases and the outward midline fold line meet.  The
flat sector angles there are (pi - alpha, alpha, alpha, pi - alpha), the
mirror-symmetric Miura vertex: the sub creases are parallel to the unit's
boundary creases and the cell is symmetric about its midline.  This
layout is a documented reconstruction; the crease pattern figure fixes it
only up to that mirror symmetry.  In the symmetric folding branch both
sub creases share one fold angle rho_S, a strictly increasing function of
the main-crease angle rho_M given exactly by the vertex relation

    tan(rho_S / 2) = tan(rho_M / 2) / cos(alpha),

which ``sub_angle_from_main`` evaluates in atan2 form.

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

The predictor is the variable-step two-step Adams-Bashforth rule (see
Allgower & Georg, Introduction to Numerical Continuation Methods, 2003):
the free angles move by t_k + (w / 2)(t_k - w t_{k-1}), where t_{k-1} is
the previous substep's tangent increment and w = h_k / h_{k-1} the ratio
of the substeps' parameter increments, and the fixed ones by t_k exactly.
It reuses the previous tangent, so it costs no closure or solve, and
leaves Newton about one iteration per substep.  A path's first substep,
the first after a clamp or a failed try, and a row that did not step
take the plain tangent step t_k.  The traced states are second-order
accurate in the step: halving it cuts their distance from the continuous
motion about fourfold.

Each pass steps the whole stack under masks: an ended path rides along
with every angle fixed and no increment, and a row that needs no further
substep or Newton iteration has no free angle, so its update is exactly
zero.  A failed step is retried in the next pass with step_scale halved,
at most MAX_HALVINGS times and not below MIN_STEP, which bounds its work
to 2**(MAX_HALVINGS + 1) - 1 times the substeps of its first try.  Every
array operation acts on each path's row alone, so a path's trace is the
same whichever paths are stepped beside it.

The entries that check their arguments (README lists them) read each
one once, at the entry, through ``_read`` (``_count`` for a count): dtype
kind, shape and a closed interval, refused by a ValueError "<name> must
be <domain>, got <value>".  Semantic checks follow; the stepping kernels
check nothing.
"""
from dataclasses import dataclass

import numpy as np

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
SVD_CUTOFF = 1e-10      # relative singular-value cutoff of the pseudo-inverse
GRAM_GUARD = 1e-6       # det G > GRAM_GUARD (tr G)**3: s_min / s_max > 1e-3
MIN_STEP = 1e-8         # radians; step halving gives up below this
MAX_HALVINGS = 10       # halved retries of one failed step
LOCK_TOL = 1e-8         # unmet tangent constraint that counts as locked


class StepFailure(RuntimeError):
    """A step could not be closed, even on its halved retries.

    When a batch of paths is traced, ``completed`` holds the results of
    the paths listed before the failing one.
    """

    def __init__(self, message, completed=()):
        super().__init__(message)
        self.completed = list(completed)


class NotClosedError(ValueError):
    """A state violated the loop-closure tolerance."""


def angle_bounds(geom):
    """(lo, hi) per vertex crease: main in [0, pi], boundary in [-pi, 0]."""
    lo = np.tile([0.0, -np.pi], geom.n_cell)
    hi = np.tile([np.pi, 0.0], geom.n_cell)
    return lo, hi


# literal bounds (a numpy call at import would raise every task's peak RSS):
# the least positive and largest float, the largest int64, the float below pi/2
_TINY = 5e-324
_HUGE = 1.7976931348623157e308
_INT_MAX = 9223372036854775807
_BELOW_HALF_PI = 1.5707963267948963
# per dtype kind: its words for one value and for several, and the dtype of
# an empty array
_KINDS = {"iuf": ("a number", "numbers", float), "iu": ("an integer", "integers", int),
          "b": ("a boolean", "booleans", bool)}


def _fits(got, want):
    """Whether shape ``got`` matches ``want``, whose None entries take any
    length and a leading ... any leading dimensions."""
    if want[:1] == (...,):
        want = want[1:]
        got = got[max(0, len(got) - len(want)):]
    return len(got) == len(want) and all(w in (None, g) for g, w in zip(got, want))


def _domain(lo, hi, kinds, shapes):
    """What ``_read`` accepts, in words, as "a number in (0, inf)": _TINY,
    +-_HUGE, _INT_MAX and _BELOW_HALF_PI read as open 0, +-inf, 2**63 and
    pi/2, and a shape (...,) as "a number or an array"; bounds that differ
    by entry are left to the message on a bad entry."""
    one, many, _ = _KINDS[kinds]
    where = ""
    if lo is not None and np.ndim(lo) == np.ndim(hi) == 0:
        low = "(0" if lo == _TINY else "(-inf" if lo <= -_HUGE else f"[{lo:g}"
        high = ("inf)" if hi >= _HUGE else "2**63)" if hi == _INT_MAX
                else "pi/2)" if hi == _BELOW_HALF_PI else f"{hi:g}]")
        where = f" in {low}, {high}"
    words = " or ".join(f"{one} or an array of {many}{where}" if shape == (...,) else
                        f"a {shape} array of {many}{where}" if shape else one + where
                        for shape in shapes)
    return words.replace("None", "n").replace("Ellipsis", "...")


def _read(name, value, lo=None, hi=None, kinds="iuf", shape=(), error=ValueError):
    """``value`` read as an array of a dtype kind in ``kinds`` (a key of
    _KINDS), of ``shape`` (or of one of a list of shapes; see ``_fits``)
    and, unless ``lo`` is None, with every entry in [lo, hi], bounds that
    broadcast against the shape; NaN fails.  Real numbers come back as
    float64, not copied when they are already.  Anything else raises
    ``error``, a ValueError, reading "<name> must be <domain>, got <value>",
    which for a bad entry names it by its index."""
    shapes = shape if isinstance(shape, list) else [shape]
    try:
        array = np.asarray(value)
    except ValueError:          # numpy's own error does not name the argument
        got = "a ragged sequence"
    else:
        got = None
        if array.size and array.dtype.kind not in kinds:
            got = f"an array of dtype {array.dtype}" if array.ndim else repr(value)
        elif not any(_fits(array.shape, s) for s in shapes):
            got = f"shape {array.shape}" if array.ndim else repr(value)
    if got is not None:
        raise error(f"{name} must be {_domain(lo, hi, kinds, shapes)}, got {got}")
    if "f" in kinds or not array.size:      # numpy reads [] as float64
        array = array.astype(_KINDS[kinds][2], copy=False)
    if lo is not None:
        if array.ndim:
            inside = (array >= lo) & (array <= hi)          # False for NaN
            at = (None if inside.all()
                  else np.unravel_index(np.argmin(inside), array.shape))
        else:   # compared in Python: numpy's 0-d compares touch code that raised peak RSS
            at = None if lo <= array.item() <= hi else ()
        if at is not None:
            lo, hi = (np.broadcast_to(b, array.shape)[at] for b in (lo, hi))
            raise error(f"{name}{list(map(int, at)) if at else ''} must be "
                        f"{_domain(lo, hi, kinds, [()])}, got {array[at].item()!r}")
    return array


def _count(name, value, least, error=ValueError):
    """``value`` as an int, refused by ``_read`` unless it is an integer
    of at least ``least`` that fits in an int64."""
    return int(_read(name, value, least, _INT_MAX, "iu", (), error))


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


def _closure_tail():
    """The 9 x 12 matrix M of ``_closure_of``'s (r | T) = (F / 2 flattened) @ M.

    r = (F10 - F01, F21 - F12, F02 - F20) / 2, and T = (tr F I - F) / 2
    with its rows in the residual's (z, x, y) order.  Each output sums at
    most two entries of F with signs +-1, so it is rounded once whatever
    order the product adds in.
    """
    M = [[0.0] * 12 for _ in range(9)]          # row 3 i + j holds F_ij
    for k, (i, j) in enumerate(((1, 0), (2, 1), (0, 2))):
        M[3 * i + j][k], M[3 * j + i][k] = 1.0, -1.0
    for row, i in enumerate((2, 0, 1)):
        for j in range(3):
            col = 3 + 3 * row + j
            if i == j:                          # tr F - F_jj
                for k in {0, 1, 2} - {j}:
                    M[4 * k][col] = 1.0
            else:
                M[3 * i + j][col] = -1.0
    return np.array(M)


# both tables are built from lists: building them with array operations at
# import raised every task's peak RSS by about 0.2 MB
_TAIL = _closure_tail()
# flat indices [[a, b], [c, d]] of adj(G) = G[a] G[b] - G[c] G[d] for a 3 x 3
# G: adj_ij = G_j1i1 G_j2i2 - G_j1i2 G_j2i1 with k1, k2 = k + 1, k + 2 mod 3,
# entry ij at flat index f = 3 i + j
_ADJ = np.array([[[3 * ((f + b) % 3) + (f // 3 + c) % 3 for f in range(9)]
                  for b, c in pair] for pair in (((1, 1), (2, 2)), ((1, 2), (2, 1)))])


def _chain(geom, rho):
    """Chain products F (B, 3, 3) of a stack of angle rows (B, N) and the
    crease axes A (B, 3, N) in the base frame: A[..., j] is the first
    column of the prefix product chi_1 ... chi_{j-1}."""
    X = _chain_matrices(geom, rho)
    n_path, n = rho.shape
    A = np.empty((n_path, 3, n))
    A[:, :, 0] = (1.0, 0.0, 0.0)
    F = X[:, 0]
    for j in range(1, n):
        A[:, :, j] = F[:, :, 0]
        F = F @ X[:, j]
    return F, A


def _closure_of(F, A):
    """Residuals (B, 3) and Jacobians (B, 3, N) of chain products F and
    crease axes A; the residual is the skew part (r_a, r_b, r_c) of F.

    With a_j crease j's axis in the base frame, dF/drho_j = skew(a_j) F,
    whose skew components are (tr F I - F) a_j / 2 in (x, y, z) order; the
    rows of tr F I - F are taken in the residual's (r_a, r_b, r_c) =
    (z, x, y) order.  This is the single-vertex result of Belcastro & Hull
    (2002) and Tachi (2009).
    """
    # halving is exact, so r and T come from F / 2 in one product
    rT = (0.5 * F).reshape(-1, 9) @ _TAIL
    return rT[:, :3], rT[:, 3:].reshape(-1, 3, 3) @ A


def _closure(geom, rho):
    """Residuals (B, 3) and Jacobians (B, 3, N) of a stack of angle rows,
    both from one prefix pass over the chain."""
    return _closure_of(*_chain(geom, rho))


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
    SVD; a row without a free column is exactly zero.
    """
    Cf = np.where(free[:, None, :], C, 0.0)
    g = (Cf @ Cf.transpose(0, 2, 1)).reshape(-1, 9)
    p = g[:, _ADJ]
    adj = p[:, 0, 0] * p[:, 0, 1] - p[:, 1, 0] * p[:, 1, 1]
    det = (g[:, :3] * adj[:, ::3]).sum(axis=-1)
    ok = det > GRAM_GUARD * g[:, ::4].sum(axis=-1) ** 3
    W = Cf.transpose(0, 2, 1) @ np.divide(
        adj, det[:, None], out=np.zeros(adj.shape), where=ok[:, None]).reshape(-1, 3, 3)
    x = (W @ v[:, :, None])[..., 0]
    x += (W @ (v - (Cf @ x[:, :, None])[..., 0])[:, :, None])[..., 0]
    rest = ~ok & free.any(axis=-1)
    if rest.any():
        x[rest] = _svd_solve(Cf[rest], v[rest])
    return np.where(free, x, 0.0)


def _tangent(C, seed, fixed):
    """Tangent increments per row and their unmet constraint max |C t|.

    Fixed entries of ``seed`` are kept exactly; the free entries move by
    the least amount that makes C t = 0.  A row with nothing fixed thus
    projects its whole seed onto the tangent space.
    """
    t = seed - _masked_solve(C, ~fixed, (C * seed[:, None, :]).sum(axis=-1))
    return t, np.abs((C * t[:, None, :]).sum(axis=-1)).max(axis=-1)


def _newton(geom, rho, free):
    """Min-norm Newton updates of the free angles until each row closes.

    Updates ``rho`` in place; returns the residuals and Jacobians at the
    final iterates and which rows closed to below NEWTON_TOL.  Each iteration
    solves the whole stack: a closed row has no free column left, so its
    update is exactly zero and its residual is recomputed unchanged.
    """
    r, C = _closure(geom, rho)
    closed = np.abs(r).max(axis=-1) < NEWTON_TOL
    for _ in range(NEWTON_MAX_ITER):
        step = free & ~closed[:, None]
        if not step.any():
            break
        rho -= _masked_solve(C, step, r)
        r, C = _closure(geom, rho)
        closed = np.abs(r).max(axis=-1) < NEWTON_TOL
    return r, C, closed


# step outcomes; every code above _LOCKED is a failed try
_OK, _LOCKED, _NOT_CONVERGED, _OUTSIDE_BOX = range(4)
_FAILURES = {
    _NOT_CONVERGED: "Newton correction did not converge",
    _OUTSIDE_BOX: "clamped state cannot be closed inside the boxes",
}


def _project(geom, rho, r, C, d0, fixed, step_scale, bounds, history):
    """One constrained step of each row of a stack of closed states.

    ``rho`` (B, N) holds the states, ``r`` and ``C`` their residuals and
    Jacobians, ``d0`` the requested increments (zero at frozen entries),
    ``fixed`` the controlled-or-frozen mask, ``step_scale`` (B,) the
    substep caps and ``bounds`` the ``angle_bounds`` boxes.  ``history``
    is each row's previous substep for the two-step predictor: its tangent
    increment (B, N) and its parameter increment h = max |seed| / n_sub
    (B,), 0 where the row has none, which makes it take the plain tangent
    step.  Returns the stepped states with their residuals and Jacobians,
    the history for the next step (valid where the status is ok; none
    after a clamp), the (B, N) mask of clamped angles and a status code
    per row; the inputs are not changed.  Substeps and corrections act on
    the whole stack; a row taking no part keeps its angles, as does one
    with every angle fixed and no increment.
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
    h = np.abs(seed).max(axis=-1) / n_sub
    t_prev, h_prev = history
    # the first substep continues the previous step's; the later substeps
    # of a try are equal, so their ratio is w = 1
    w = np.divide(h, h_prev, out=np.zeros(h.shape), where=h_prev > 0)[:, None]
    two_step = free & (h_prev > 0)[:, None]
    for k in range(n_sub.max()):
        go = (status == _OK) & (n_sub > k)
        if k > 0:
            t, unmet = _tangent(C, seed / n_sub[:, None], fixed | ~go[:, None])
            locked = go & (unmet > lock_tol)
            status[locked] = _LOCKED
            go &= ~locked
            w, two_step = 1.0, free
        rho = np.where(go[:, None], rho + np.where(
            two_step, t + w / 2 * (t - w * t_prev), t), rho)
        r, C, closed = _newton(geom, rho, free & go[:, None])
        status[go & ~closed] = _NOT_CONVERGED
        t_prev = np.where(go[:, None], t, t_prev)

    clamped = ((rho < lo - 1e-12) | (rho > hi + 1e-12)) & (status == _OK)[:, None]
    hit = clamped.any(axis=-1)
    if hit.any():
        rho = np.where(hit[:, None], np.clip(rho, lo, hi), rho)
        r, C, closed = _newton(geom, rho, free & ~clamped & hit[:, None])
        status[hit & ~closed] = _NOT_CONVERGED
        outside = np.any((rho < lo - 1e-9) | (rho > hi + 1e-9), axis=-1)
        status[hit & closed & outside] = _OUTSIDE_BOX
    return rho, r, C, (t_prev, np.where(hit, 0.0, h)), clamped, status


def check_states(geom, rho_o, what="state"):
    """Check a stack of fold states (M, N) against the mountain/valley
    boxes (to 1e-9) and the closure tolerance NEWTON_TOL, all rows in one
    closure pass, and return that pass's residuals and Jacobians.

    The residual is the skew part of the chain product F, which vanishes
    for a half-turn too; such a row, told by tr F = 1 + 2 cos(theta) <= 1,
    has the residual 1 - cos(theta) instead, 2 for a half-turn.  The error
    names the first failing row, as ``what`` and its index; NaN angles
    fail both checks.
    """
    lo, hi = angle_bounds(geom)
    inside = np.all((rho_o >= lo - 1e-9) & (rho_o <= hi + 1e-9), axis=-1)
    if not inside.all():
        raise ValueError(f"{what} {np.flatnonzero(~inside)[0]}: angles violate "
                         "mountain/valley boxes")
    F, A = _chain(geom, rho_o)
    r, C = _closure_of(F, A)
    trace = F[:, 0, 0] + F[:, 1, 1] + F[:, 2, 2]
    # 1 - cos(theta) >= 1 bounds every skew component of a turn past 90 deg
    res = np.where(trace > 1.0, np.abs(r).max(axis=-1), (3.0 - trace) / 2)
    bad = np.flatnonzero(~(res <= NEWTON_TOL))      # written so that NaN fails
    if bad.size:
        raise NotClosedError(f"{what} {bad[0]}: closure residual "
                             f"{res[bad[0]]:.3e} > {NEWTON_TOL:.1e}")
    return r, C


def _sub_angle(alpha, rho_m):
    """rho_S of main angles rho_m, clipped onto [0, pi] first, by the
    vertex relation in atan2 form; the callers have read both arguments."""
    half = np.clip(rho_m, 0.0, np.pi) / 2
    return 2 * np.arctan2(np.sin(half), np.cos(alpha) * np.cos(half))


def sub_angle_from_main(alpha, rho_m):
    """Sub-crease fold angle rho_S of main-crease angle(s) rho_M, a number
    or an array in [0, pi] (to 1e-12), by the vertex relation in atan2
    form: rho_S = 2 atan2(sin(rho_M/2), cos(alpha) cos(rho_M/2)), which
    maps the endpoints exactly (0 -> 0, pi -> pi); alpha is in (0, pi/2)."""
    return _sub_angle(float(_read("alpha", alpha, _TINY, _BELOW_HALF_PI)),
                      _read("rho_m", rho_m, -1e-12, np.pi + 1e-12, shape=(...,)))


def sub_angles(geom, rho_o):
    """Sub-crease angles (..., n_cell) of fold-angle rows (..., N) by the
    vertex relation; a checked state's main angles may sit up to 1e-9
    outside their box, and are clipped onto it."""
    return _sub_angle(geom.alpha, rho_o[..., 0::2])


@dataclass
class FoldingPath:
    """Ordered closed states as arrays: fold angles ``rho_o`` (M, N) and
    sub angles ``rho_s`` (M, n_cell), with the driving parameter of each
    state and the termination.  A traced path's ``frozen`` (M, N) marks
    the angles pinned at their box face in each state, none in the first;
    it is None for a uniform path."""
    rho_o: np.ndarray
    rho_s: np.ndarray
    params: np.ndarray
    param_name: str
    termination: str
    frozen: np.ndarray | None = None

    def __len__(self):
        return len(self.rho_o)


# how a traced path ended, by code; 0 (still running) ends with max-steps
_ENDINGS = ("max-steps", "controlled-at-boundary", "locked", "failed")
_AT_FACE, _LOCKED_END, _FAILED = range(1, 4)


def trace_paths(geom, starts, delta_rho_0, controlled, step_scale, n_steps):
    """Trace one folding path per start row (B, N), all in lockstep; each
    start must pass ``check_states``.

    Path b repeats one drive every step: the increments ``delta_rho_0[b]``,
    exact at the entries the bool mask ``controlled[b]`` marks, each cut to
    reach at most its box face.  ``step_scale`` caps each substep and
    ``n_steps`` the steps, one value for all paths or one per path.  When
    an uncontrolled angle reaches its box face it is pinned there for the
    remainder of the path, which keeps the mountain/valley assignment of
    every crease, and the path continues; the path's ``frozen`` mask marks
    it from that state on.  Controlled angles reaching their box end the
    path.  The path parameter ``delta_rho_c`` sums the largest controlled
    increment of each step (of all angles when none is controlled).  Each
    argument is read by ``_read`` before any closure.

    Every path is traced exactly as it would be alone.  If a path fails
    on its last retry, the other paths still run to their end, then the
    first failing path's StepFailure is raised with ``completed`` holding
    the paths listed before it.
    """
    # each argument is checked whole, in order, so the first bad one is named
    rho = _read("starts", starts, shape=(None, geom.n_vertex_creases))
    n_path = len(rho)
    req_d0 = _read("delta_rho_0", delta_rho_0, -_HUGE, _HUGE, shape=rho.shape)
    ctrl = _read("controlled", controlled, kinds="b", shape=rho.shape)
    per_path = [(), (n_path,)]      # one value for all paths or one per path
    # an infinite scale would be retried forever
    req_scale = _read("step_scale", step_scale, MIN_STEP, _HUGE, shape=per_path)
    n_steps = _read("n_steps", n_steps, 0, np.inf, "iu", per_path)
    r, C = check_states(geom, rho, "starts row")
    bounds = lo, hi = angle_bounds(geom)
    loose, steered = ~ctrl, ctrl.any(axis=-1)
    # the parameter increment: the largest controlled one, or of all without any
    measured = ctrl | ~steered[:, None]
    scale = req_scale               # halved on each failed try of a step
    min_scale = np.maximum(MIN_STEP, req_scale / 2.0 ** MAX_HALVINGS)
    n_done = np.zeros(n_path, dtype=int)
    ending = np.zeros(n_path, dtype=int)            # index into _ENDINGS
    failure = np.zeros(n_path, dtype=int)           # status of a failed last try
    frozen = np.zeros(rho.shape, dtype=bool)
    history = np.zeros(rho.shape), np.zeros(n_path)     # no previous substep
    # per pass: which paths took a step, all angles, increments and pinned angles
    log = [(np.ones(n_path, dtype=bool), rho, np.zeros(n_path), frozen)]

    # each pass tries the next step of every running path; the other
    # paths ride along with every angle fixed and no increment
    while True:
        # controlled angles may at most reach their box face
        d0 = np.where(ctrl, np.clip(req_d0, lo - rho, hi - rho), req_d0)
        run = (ending == 0) & (n_done < n_steps)
        at_face = run & steered & (loose | (np.abs(d0) <= 1e-14)).all(axis=-1)
        ending[at_face] = _AT_FACE
        run &= ~at_face
        if not run.any():
            break
        dparam = np.abs(np.where(measured, d0, 0.0)).max(axis=-1)
        hold = frozen | ~run[:, None]
        new_rho, new_r, new_C, (t_last, h_last), clamped, status = _project(
            geom, rho, r, C, np.where(hold, 0.0, d0), ctrl | hold, scale, bounds,
            history)
        ok = run & (status == _OK)
        # a row that did not step, or failed, starts its next step afresh
        history = t_last, np.where(ok, h_last, 0.0)
        ending[run & (status == _LOCKED)] = _LOCKED_END
        failed = run & (status > _LOCKED)
        scale = np.where(failed, scale / 2, req_scale)
        given_up = failed & (scale < min_scale)
        ending[given_up], failure[given_up] = _FAILED, status[given_up]
        pins = clamped & ok[:, None]
        if pins.any():          # a new mask: the log holds the earlier one
            frozen = frozen | pins
        log.append((ok, new_rho, dparam, frozen))
        rho = np.where(ok[:, None], new_rho, rho)
        r = np.where(ok[:, None], new_r, r)
        C = np.where(ok[:, None, None], new_C, C)
        n_done += ok
        # controlled angles pinned at their face end the sweep
        ending[ok & steered & (loose | (rho >= hi - 1e-12)
                               | (rho <= lo + 1e-12)).all(axis=-1)] = _AT_FACE

    # each path's rows, in step order; its first row is the start state
    took, angles, increments, pinned = (np.array(a) for a in zip(*log))
    path_of = took.nonzero()[1]
    angles, increments, pinned = angles[took], increments[took], pinned[took]
    subs = sub_angles(geom, angles)
    paths = []
    for b in range(n_path):
        if ending[b] == _FAILED:
            raise StepFailure(_FAILURES[failure[b]], completed=paths)
        mine = path_of == b
        paths.append(FoldingPath(
            rho_o=angles[mine], rho_s=subs[mine],
            params=np.cumsum(increments[mine]), param_name="delta_rho_c",
            termination=_ENDINGS[ending[b]], frozen=pinned[mine]))
    return paths

