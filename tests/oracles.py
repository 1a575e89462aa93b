"""Independent brute-force oracles for the test suite.

Everything here is written from scratch against the defining equations,
deliberately not sharing code paths with the package: rotation chains are
rebuilt locally, roots come from grid scans plus bisection, derivatives
from central differences, energies from direct per-crease summation,
linear solves in exact rational arithmetic, grasp motions from small
Runge-Kutta steps with their own chain Jacobian and pinv Newton.
"""
import csv
from fractions import Fraction

import numpy as np


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def rotation_about(axis, ang):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)


def matrix_exp_rotation(axis, theta):
    """Rotation via truncated matrix exponential, for linearization checks."""
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]], dtype=float) * theta
    R = np.eye(3)
    term = np.eye(3)
    for k in range(1, 12):
        term = term @ K / k
        R = R + term
    return R


# ---------------------------------------------------------------- vertex A
def vertex_a_chain_residual(alpha, rho_m, rho_s):
    """Norm of the four-rotation closure defect at the unit-cell vertex.

    Sector angles (pi - a, a, a, pi - a) starting at the main crease; the
    outward midline fold angle is eliminated by scanning its own residual.
    """
    def full_chain(rho_t):
        F = rot_x(rho_m) @ rot_z(np.pi - alpha)
        F = F @ rot_x(rho_s) @ rot_z(alpha)
        F = F @ rot_x(rho_t) @ rot_z(alpha)
        F = F @ rot_x(rho_s) @ rot_z(np.pi - alpha)
        return np.max(np.abs(F - np.eye(3)))

    ts = np.linspace(-np.pi, np.pi, 721)
    vals = [full_chain(t) for t in ts]
    i = int(np.argmin(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if full_chain(m1) < full_chain(m2):
            hi = m2
        else:
            lo = m1
    return full_chain(0.5 * (lo + hi))


def _rx_batch(angles):
    angles = np.asarray(angles, float)
    out = np.zeros(angles.shape + (3, 3))
    c, s = np.cos(angles), np.sin(angles)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = c
    out[..., 1, 2] = -s
    out[..., 2, 1] = s
    out[..., 2, 2] = c
    return out


def sub_angle_oracle(alpha, rho_m, coarse=3142, tol=1e-11):
    """Grid scan of the vertex closure residual over rho_S, then bisection
    on the signed alignment component around the bracket."""
    if rho_m == 0.0:
        return 0.0
    if rho_m == np.pi:
        return np.pi

    # required midline rotation: Rx(rho_t) = A^-1 B^-1 Rz(-a) with
    # A = Rx(rm) Rz(pi-a) Rx(rs) Rz(a) and B = Rx(rs) Rz(pi-a)
    C2T_ = rot_z(alpha).T
    mid_ = (rot_x(rho_m) @ rot_z(np.pi - alpha)).T @ rot_z(alpha - np.pi)
    tail_ = rot_z(-alpha)

    def q_batch(rho_s):
        X = _rx_batch(-np.asarray(rho_s, float))
        return C2T_ @ X @ mid_ @ X @ tail_

    def q(rho_s):
        return q_batch(np.asarray(rho_s))

    def defect(rho_s):
        Q = q(rho_s)
        # distance of Q from a pure first-axis rotation
        return max(abs(Q[0, 0] - 1.0), abs(Q[0, 1]), abs(Q[0, 2]),
                   abs(Q[1, 0]), abs(Q[2, 0]))

    def signed(rho_s):
        # first-axis alignment component, crosses zero at the solution
        return q(rho_s)[0, 1]

    grid = np.linspace(0.0, np.pi, coarse)
    vals = q_batch(grid)[:, 0, 1]
    sign = np.sign(vals)
    crossings = np.where(sign[:-1] * sign[1:] < 0)[0]
    best = None
    for i in crossings:
        lo, hi = grid[i], grid[i + 1]
        flo = signed(lo)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = signed(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < tol:
                break
        root = 0.5 * (lo + hi)
        if defect(root) < 1e-8 and (best is None or defect(root) < defect(best)):
            best = root
    if best is None:
        raise AssertionError(f"oracle found no closure for rho_m={rho_m}")
    return best


# ---------------------------------------------------------------- uniform
def main_angle_oracle(alpha, psi, tol=1e-12):
    """Scan/bisect the uniform Euler-angle relation in its ratio form."""
    if psi == 0.0:
        return 0.0

    def gap(rho_m):
        denom = (np.cos(alpha) * np.cos(psi)
                 - np.sin(alpha) * np.sin(psi) * np.sin(rho_m / 2))
        return np.sin(alpha) * np.cos(rho_m / 2) - np.tan(alpha) * denom

    grid = np.linspace(0.0, np.pi, 20001)
    vals = gap(grid)
    sign = np.sign(vals)
    crossings = np.where(sign[:-1] * sign[1:] < 0)[0]
    assert len(crossings) >= 1, "oracle bracket missing"
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    flo = gap(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = gap(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def chain_closure_norm(alpha, rho_o):
    """||F - I|| of the central-vertex chain, rebuilt locally."""
    F = np.eye(3)
    for r in rho_o:
        F = F @ rot_x(r) @ rot_z(alpha)
    return np.max(np.abs(F - np.eye(3)))


def fd_constraint_matrix(alpha, rho_o, h=1e-7):
    """Central finite differences of the closure residual components."""
    rho_o = np.asarray(rho_o, float)

    def res(rho):
        F = np.eye(3)
        for r in rho:
            F = F @ rot_x(r) @ rot_z(alpha)
        return np.array([0.5 * (F[1, 0] - F[0, 1]),
                         0.5 * (F[2, 1] - F[1, 2]),
                         0.5 * (F[0, 2] - F[2, 0])])

    C = np.empty((3, len(rho_o)))
    for j in range(len(rho_o)):
        e = np.zeros_like(rho_o)
        e[j] = h
        C[:, j] = (res(rho_o + e) - res(rho_o - e)) / (2 * h)
    return C


def min_norm_solve_exact(C, v):
    """x = C^T (C C^T)^-1 v for a 3 x N C of full row rank, in exact
    rational arithmetic on the floats' values, rounded once at the end."""
    C = [[Fraction(float(c)) for c in row] for row in C]
    m = len(C)
    # Gauss-Jordan on (G | v), G = C C^T
    A = [[sum(a * b for a, b in zip(C[i], C[j])) for j in range(m)]
         + [Fraction(float(v[i]))] for i in range(m)]
    for k in range(m):
        p = next(i for i in range(k, m) if A[i][k] != 0)
        A[k], A[p] = A[p], A[k]
        A[k] = [a / A[k][k] for a in A[k]]
        for i in range(m):
            if i != k:
                A[i] = [a - A[i][k] * b for a, b in zip(A[i], A[k])]
    return np.array([float(sum(C[i][j] * A[i][m] for i in range(m)))
                     for j in range(len(C[0]))])


# ---------------------------------------------------------------- grasp paths
_KX = np.array([[0.0, 0, 0], [0, 0, -1], [0, 1, 0]])     # rot_x'(a) = _KX rot_x(a)


def _skew_part(M):
    return 0.5 * np.array([M[1, 0] - M[0, 1], M[2, 1] - M[1, 2], M[0, 2] - M[2, 0]])


def chain_residual_jacobian(alpha, rho_o):
    """Skew part of the chain product F and its Jacobian (3, N), from the
    chain's prefix and suffix products: dF/drho_j = P_j K_x S_j with P_j
    the links before crease j and S_j the links from it on."""
    c, s = np.cos(rho_o), np.sin(rho_o)
    rx = np.zeros((len(c), 3, 3))
    rx[:, 0, 0], rx[:, 1, 1], rx[:, 1, 2], rx[:, 2, 1], rx[:, 2, 2] = 1.0, c, -s, s, c
    links = rx @ rot_z(alpha)
    prefix, suffix = [np.eye(3)], [np.eye(3)]
    for a, b in zip(links, reversed(links)):
        prefix.append(prefix[-1] @ a)
        suffix.append(b @ suffix[-1])
    dF = np.array(prefix[:-1]) @ _KX @ np.array(suffix[:0:-1])
    return _skew_part(prefix[-1]), _skew_part(dF.transpose(1, 2, 0))


def _pinv_newton(alpha, rho, free, tol=1e-12, max_iter=30):
    """Close the chain by min-norm Newton updates of the ``free`` angles."""
    rho = rho.copy()
    for _ in range(max_iter):
        r, C = chain_residual_jacobian(alpha, rho)
        if np.max(np.abs(r)) < tol:
            return rho
        rho[free] -= np.linalg.pinv(C[:, free], rcond=1e-10) @ r
    raise RuntimeError("oracle Newton did not converge")


def _rk4_step(alpha, rho, drive, free, h):
    """One classical Runge-Kutta step of the min-norm motion: the fixed
    angles move by h ``drive``, the free ones by the least amount that
    keeps the chain closed; the result is Newton-closed."""
    def velocity(x):
        C = chain_residual_jacobian(alpha, x)[1]
        v = drive.copy()
        v[free] = -np.linalg.pinv(C[:, free], rcond=1e-10) @ (C @ drive)
        return v

    k1 = velocity(rho)
    k2 = velocity(rho + h / 2 * k1)
    k3 = velocity(rho + h / 2 * k2)
    k4 = velocity(rho + h * k3)
    return _pinv_newton(alpha, rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), free)


def grasp_motion(alpha, start, controlled, params, substeps):
    """States of the continuous grasp motion at the drive values ``params``.

    The ``controlled`` angles rise by the drive value s, every other angle
    follows by the min-norm rate that keeps the chain closed, and an
    uncontrolled angle that reaches its mountain/valley face is pinned
    there from the crossing on.  Each interval between successive params
    is split into ``substeps`` Runge-Kutta steps; a step that carries an
    angle past its face is cut at the crossing, found by the secant rule.
    """
    n = len(start)
    lo, hi = np.tile([0.0, -np.pi], n // 2), np.tile([np.pi, 0.0], n // 2)
    drive = np.zeros(n)
    drive[list(controlled)] = 1.0
    free = drive == 0.0
    rho, s = np.array(start, dtype=float), params[0]
    out = [rho]
    for target in params[1:]:
        for k in range(1, substeps + 1):
            end = s + (target - s) / (substeps - k + 1)
            while end > s:
                trial = _rk4_step(alpha, rho, drive, free, end - s)
                past = free & ((trial < lo) | (trial > hi))
                if not past.any():
                    rho, s = trial, end
                    break
                face = np.where(trial < lo, lo, hi)
                # the first angle to cross, and where, by linear estimate
                frac = np.divide(face - rho, trial - rho, out=np.full(n, np.inf),
                                 where=past)
                j = int(np.argmin(frac))
                a, fa, b, fb = 0.0, rho[j] - face[j], 1.0, trial[j] - face[j]
                for _ in range(60):
                    c = b - fb * (b - a) / (fb - fa)
                    fc = _rk4_step(alpha, rho, drive, free, c * (end - s))[j] - face[j]
                    a, fa, b, fb = b, fb, c, fc
                    if abs(fb) < 1e-15 or fb == fa:
                        break
                rho = _rk4_step(alpha, rho, drive, free, b * (end - s))
                s = s + b * (end - s)
                rho[j] = face[j]
                free[j] = False
                rho = _pinv_newton(alpha, rho, free)
        out.append(rho)
    return np.array(out)


# ---------------------------------------------------------------- energy
def direct_energy(kappas, rests, angles):
    """Plain per-crease summation of the quadratic hinge energy."""
    total = 0.0
    for k, r, a in zip(kappas, rests, angles):
        total += 0.5 * k * (a - r) ** 2
    return total



def sampled_extrema(E):
    """Indices of the interior minima and maxima of a sampled curve: the
    sign changes of its differences."""
    d = np.sign(np.diff(E))
    return (np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0)) + 1,
            np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1)


def dense_uniform_path(n_cell, psi_lo, psi_hi, samples=90000):
    """(psi, rho_M, rho_S, rho_B) of the uniform motion on a dense grid with
    ``samples`` intervals per phase and an exact psi = 0 node.  rho_M/2 is
    bisected on the mirror-plane condition cos(a) cos(t) + sin(a) sin(psi)
    sin(t) = cos(a) cos(psi), which is >= 0 at t = 0 and < 0 at t = pi/2,
    with cos(t) - cos(psi) written as a product of sines so that it stays
    accurate near the flat state; rho_S follows from tan(rho_S/2) =
    tan(rho_M/2) / cos(a)."""
    alpha = np.pi / n_cell
    ca, sa = np.cos(alpha), np.sin(alpha)
    psi = np.concatenate([np.linspace(psi_lo, 0.0, samples + 1),
                          np.linspace(0.0, psi_hi, samples + 1)[1:]])
    lo, hi = np.zeros_like(psi), np.full_like(psi, np.pi / 2)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ahead = (sa * np.sin(psi) * np.sin(mid) - 2 * ca * np.sin((mid + psi) / 2)
                 * np.sin((mid - psi) / 2)) >= 0.0
        lo, hi = np.where(ahead, mid, lo), np.where(ahead, hi, mid)
    half = 0.5 * (lo + hi)
    return psi, 2 * half, 2 * np.arctan(np.tan(half) / ca), -2 * np.abs(psi)


def dense_landscape_xi(path, n_cell, rest_m, rest_b):
    """(bistable, xi) of the landscape of identical unit springs (kappa 1,
    the sub rest angle compatible with rest_m) sampled on ``path``, with
    the extrema of ``sampled_extrema``: bistable iff it has two minima,
    one maximum between them and both gaps positive."""
    psi, rho_m, rho_s, rho_b = path
    rest_s = 2 * np.arctan(np.tan(rest_m / 2) / np.cos(np.pi / n_cell))
    E = 0.5 * n_cell * ((rho_m - rest_m) ** 2 + 2 * (rho_s - rest_s) ** 2
                        + (rho_b - rest_b) ** 2)
    mins, maxs = sampled_extrema(E)
    if len(mins) == 2 and len(maxs) == 1 and mins[0] < maxs[0] < mins[1]:
        d_g, d_r = E[maxs[0]] - E[mins[0]], E[maxs[0]] - E[mins[1]]
        if d_g > 0 and d_r > 0:
            return True, (d_g - d_r) / (d_g + d_r)
    return False, None


def zero_contours_loop(gx, gy, field):
    """Zero-level polylines of a gridded field with NaN holes, cell by
    cell: marching-squares segments on cells whose corners are all
    defined and that have exactly two crossings, chained into polylines
    by endpoints rounded to 12 decimals."""
    segs = []
    for i in range(len(gx) - 1):
        for j in range(len(gy) - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            vals = [field[a, b] for a, b in corners]
            if any(np.isnan(v) for v in vals):
                continue
            pts = []
            edges = [((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                     ((i + 1, j + 1), (i, j + 1)), ((i, j + 1), (i, j))]
            for (a1, b1), (a2, b2) in edges:
                v1, v2 = field[a1, b1], field[a2, b2]
                if v1 == 0.0 and v2 == 0.0:
                    continue
                if v1 * v2 < 0.0 or (v1 == 0.0) != (v2 == 0.0):
                    t = v1 / (v1 - v2)
                    x = gx[a1] + t * (gx[a2] - gx[a1])
                    y = gy[b1] + t * (gy[b2] - gy[b1])
                    pts.append((x, y))
            if len(pts) == 2:
                segs.append(tuple(pts))
    # chain segments into polylines
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adj = {}
    for a, b in segs:
        adj.setdefault(key(a), []).append((a, b))
        adj.setdefault(key(b), []).append((b, a))
    used = set()
    polylines = []
    for a, b in segs:
        if (key(a), key(b)) in used or (key(b), key(a)) in used:
            continue
        line = [a, b]
        used.add((key(a), key(b)))
        for grow_end in (True, False):
            while True:
                tip = line[-1] if grow_end else line[0]
                nxt = None
                for p, q in adj.get(key(tip), []):
                    if (key(p), key(q)) in used or (key(q), key(p)) in used:
                        continue
                    nxt = q
                    used.add((key(p), key(q)))
                    break
                if nxt is None:
                    break
                if grow_end:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
        polylines.append(np.array(line))
    return polylines

# ---------------------------------------------------------------- files
def read_path_csv(fname):
    """Parse a folding-path table: (param_name, params, rho_o, rho_s,
    energy); the energy is None when its column is empty."""
    with open(fname, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header[0] != "step" or header[-1] != "energy":
        raise ValueError("not a folding-path table")
    n_cell = sum(1 for c in header if c.startswith("rho_M_"))
    values = np.array([[float(v) for v in r[1:-1]] for r in rows])
    energy = (np.array([float(r[-1]) for r in rows])
              if rows and rows[0][-1] != "" else None)
    return (header[1], values[:, 0], values[:, 1:1 + 2 * n_cell],
            values[:, 1 + 2 * n_cell:], energy)
