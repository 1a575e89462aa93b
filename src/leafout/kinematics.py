"""Fold states of the central vertex: their loop closure and checks.

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

The entries that check their arguments (README lists them) read each
one once, at the entry, through ``_read`` (``_count`` for a count): dtype
kind, shape and a closed interval, refused by a ValueError "<name> must
be <domain>, got <value>".  Semantic checks follow; the stepping kernels
in ``explore`` check nothing.

The library's records (``FoldingPath`` here, and the geometry, spring,
landscape, drop-test and grasp records) are plain classes on ``_Record``:
importing the CLI then builds no class through a factory that generates
code, and loads no ``dataclasses`` or ``copy``.
"""
import numpy as np

NEWTON_TOL = 1e-10


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


# built from lists: building it with array operations at import raised
# every task's peak RSS by about 0.2 MB
_TAIL = _closure_tail()


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


def check_states(geom, rho_o, what="state"):
    """Check a stack of fold states (M, N) against the mountain/valley
    boxes (to 1e-9) and the closure tolerance NEWTON_TOL, all rows in one
    closure pass, and return that pass's Jacobians.

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
    return C


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
