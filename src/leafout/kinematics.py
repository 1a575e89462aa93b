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

The entries that check their arguments (README lists them) read each
one once, at the entry, through ``_read`` (``_count`` for a count): dtype
kind, shape and a closed interval, refused by a ValueError "<name> must
be <domain>, got <value>".  Semantic checks follow; the stepping kernels
check nothing.

The library's records (``FoldingPath`` here, and the geometry, spring,
landscape, drop-test and grasp records) are plain classes on ``_Record``:
importing the CLI then builds no class through a factory that generates
code, and loads no ``dataclasses`` or ``copy``.
"""
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


class _Record:
    """A record: a class's annotations are its fields, in order, each given
    by position or keyword; a class attribute of a field's name is its
    default, a list default copied for each instance.  A missing, unknown
    or repeated argument raises TypeError, and ``__post_init__`` runs last.
    Records of one class are equal when their fields are (and so are not
    hashable), and repr as ``Name(field=value, ...)``."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            given[name] = value
        values = vars(self)
        for name in fields:
            if name in given:
                values[name] = given[name]
            elif name in self._defaults:
                default = self._defaults[name]
                values[name] = default.copy() if type(default) is list else default
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ([getattr(self, n) for n in self._fields]
                == [getattr(other, n) for n in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


# the reductions of the stepping loop as ufunc methods, without the Python
# wrappers of the ndarray methods (axis 0 unless given, None for all)
_any, _all, _max, _sum = (np.logical_or.reduce, np.logical_and.reduce, np.maximum.reduce,
                          np.add.reduce)


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


def _odd_entry(value, kinds, at=()):
    """The index and value of the first entry of nested lists and tuples
    that numpy reads as another kind than it is: a bool, which it reads as
    a number among numbers, and, unless ``kinds`` takes floats, an int past
    int64, which turns the array into floats or objects; None if none is."""
    for i, x in enumerate(value):
        if isinstance(x, (list, tuple)):
            odd = _odd_entry(x, kinds, at + (i,))
            if odd is not None:
                return odd
        elif isinstance(x, (bool, np.bool_)):
            return at + (i,), bool(x)
        elif "f" not in kinds and type(x) is int and not -_INT_MAX - 1 <= x <= _INT_MAX:
            return at + (i,), x
    return None


def _read(name, value, lo=None, hi=None, kinds="iuf", shape=(), error=ValueError):
    """``value`` read as an array of a dtype kind in ``kinds`` (a key of
    _KINDS), of ``shape`` (or of one of a list of shapes; see ``_fits``)
    and, unless ``lo`` is None, with every entry in [lo, hi], bounds that
    broadcast against the shape; NaN fails.  Real numbers come back as
    float64, not copied when they are already.  Anything else raises
    ``error``, a ValueError, reading "<name> must be <domain>, got <value>",
    which for a bad entry names it by its index.  A list or tuple of
    numbers is refused at its first bool, and one of integers at its first
    int past int64, whose domain then ends at 2**63."""
    shapes = shape if isinstance(shape, list) else [shape]
    try:
        array = np.asarray(value)
    except ValueError:          # numpy's own error does not name the argument
        got = "a ragged sequence"
    else:
        got = None
        odd = (_odd_entry(value, kinds) if "b" not in kinds
               and isinstance(value, (list, tuple)) else None)
        if odd is not None:
            at, x = odd
            if type(x) is int and lo is not None:
                hi = min(hi, _INT_MAX)
            raise error(f"{name}{list(at)} must be {_domain(lo, hi, kinds, [()])}, "
                        f"got {x!r}")
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


def _count(name, value, least):
    """``value`` as an int, refused by ``_read`` unless it is an integer
    of at least ``least`` that fits in an int64."""
    return int(_read(name, value, least, _INT_MAX, "iu", ()))


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

    Updates ``rho`` in place; returns the residuals and Jacobians at the
    final iterates and which rows closed to below NEWTON_TOL.  Every row
    with a free angle takes at least one iteration, even one that already
    closes, so a good prediction is closed as tightly as a poor one.  Each
    iteration solves the whole stack: a closed row has no free column
    left, so its update is exactly zero and its residual is recomputed
    unchanged.  The loop ends as soon as every row closes.
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
            return r, C, closed
        step = free & ~closed[:, None]
    return r, C, _max(np.abs(r), -1) < NEWTON_TOL


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


def _project(geom, rho, r, C, seed, seed_max, free, step_scale, bounds, weights,
             history):
    """One constrained step of each row of a stack of closed states.

    ``rho`` (B, N) holds the states, ``r`` and ``C`` their residuals and
    Jacobians, ``seed`` the increments that seed the tangent (exact at the
    fixed entries, projected at the free ones, zero at every angle that
    takes no part) and ``seed_max`` (B,) its largest magnitude per row,
    ``free`` the mask of the angles that are neither controlled nor frozen
    nor in a row taking no part, ``step_scale`` (B,) the substep caps,
    ``bounds`` the ``angle_bounds`` boxes followed by the same boxes
    widened by the clamp's 1e-12, and ``weights`` the Adams-Bashforth
    table _AB as an array.  ``history`` holds each row's earlier substeps:
    its last four tangent increments (B, 4, N), newest first, the
    parameter increment h = seed_max / n_sub (B,) of the last one, 0 where
    the row has none, and how many of them (B,), up to four, were taken at
    that same h.

    A substep whose h equals the last one bit for bit moves the free
    angles by the equal-step Adams-Bashforth rule of the highest order
    its history allows, up to five; one whose h changed falls back to the
    variable-step two-step rule t_k + (w / 2)(t_k - w t_{k-1}), w the
    ratio of the two h.  A row without history restarts with Heun's rule,
    the mean of t_k and the tangent at the Euler point rho + t_k, which
    costs one more closure and tangent solve of the stack, in passes where
    some row restarts.  The fixed angles move by t_k exactly.

    Returns the stepped states with their residuals and Jacobians, the
    history for the next step (none where a row was clamped or its status
    is not ok), the (B, N) mask of clamped angles and a status code per
    row; the inputs are not changed.  Substeps and corrections act on the
    whole stack; a row taking no part keeps its angles, as does one with
    every angle fixed and no increment.

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
        r, C, closed = _newton(geom, rho, free if go is None else free & go[:, None])
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
        r, C, closed = _newton(geom, rho, free & ~clamped & hit[:, None])
        status[hit & ~closed] = _NOT_CONVERGED
        outside = np.any((rho < lo - 1e-9) | (rho > hi + 1e-9), axis=-1)
        status[hit & closed & outside] = _OUTSIDE_BOX
        h_prev = np.where(hit | (status != _OK), 0.0, h_prev)
    elif not_ok:
        h_prev = np.where(status != _OK, 0.0, h_prev)
    return rho, r, C, (past, h_prev, n_same), clamped, status


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


class FoldingPath(_Record):
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
    idle = ~ctrl.any(axis=-1)
    if idle.any():
        raise ValueError(f"controlled[{np.argmax(idle)}] must mark at least one angle, "
                         "got none")
    per_path = [(), (n_path,)]      # one value for all paths or one per path
    # an infinite scale would be retried forever
    req_scale = _read("step_scale", step_scale, MIN_STEP, _HUGE, shape=per_path)
    n_steps = _read("n_steps", n_steps, 0, np.inf, "iu", per_path)
    r, C = check_states(geom, rho, "starts row")
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
        new_rho, new_r, new_C, history, clamped, status = _project(
            geom, rho, r, C, seed, seed_max, free if every else free & run[:, None],
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
        rho, r, C = (_pick(stepped, new_rho, rho), _pick(stepped, new_r, r),
                     _pick(stepped, new_C, C))
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

