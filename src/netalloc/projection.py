"""Euclidean projection onto polyhedra {x : R x <= l}, exact and certified.

Face table: per distinct R, every linearly independent set F of at most
min(p, m) rows maps the slacks s = R y - l linearly to mu_F = (R_F R_F')^-1 s_F,
to the offset R_F' mu_F, so x_F = y - R_F' mu_F is y projected onto
{R_F x = l_F}, and to the residuals R x_F - l = s - R R_F' mu_F; one GEMM
evaluates every face.  Selection by the KKT conditions: x_F is stationary by
construction, so P(y) is the dual-feasible (mu_F >= 0) face of least residual;
a wrong face trails by its infeasibility, linear in its distance from P(y).
Certificate: R x_F - l <= FEAS_TOL, scaled by max(1, |l|, |R| (|y| + |x_F|))
as roundoff grows with those, or ProjectionError.  `check_table` caps the
tables; `dykstra` stays as the tests' independent reference.
"""

import math
from itertools import combinations

import numpy as np

from .errors import ProjectionError

# slack for "already satisfies the constraint", and the certificate's tolerance
FEAS_TOL = 1e-12
# membership tolerance of Dykstra's reference iteration
MEMBER_TOL = 1e-9
# caps on candidate faces per polyhedron (the DR template has 298) and on the
# total size of one stack's tables: a row reads its whole table every step
MAX_FACES = 512
MAX_TABLE_BYTES = 32 * 2**20

DYKSTRA_CAP = 10_000
DYKSTRA_TOL = 1e-10


def face_count(p, m):
    """Row subsets of size 1..min(p, m): the candidate faces before the rank test."""
    return sum(math.comb(p, k) for k in range(1, min(p, m) + 1))


def check_table(count, p, m):
    """Raise ValueError unless `count` distinct p x m constraint matrices fit the caps."""
    faces = face_count(p, m)
    size = count * p * faces * (min(p, m) + m + p) * 8
    if faces > MAX_FACES or size > MAX_TABLE_BYTES:
        raise ValueError(f"{count} polyhedra of {p} x {m} need {faces} candidate faces each and {size} bytes of face "
                         f"tables; the caps are MAX_FACES = {MAX_FACES} and MAX_TABLE_BYTES = {MAX_TABLE_BYTES}")


def face_table(R):
    """Face table (maps, tid) of a (n, p, m) stack of constraint matrices.

    Row i uses the distinct R number tid[i].  For its slacks s, `s @ maps[tid[i]]`
    reshaped to (p + m + w, faces), w = min(p, m), stacks the residuals R x_F - l,
    R_F' mu_F and mu_F (zero-padded to w rows) of every face, one face per
    column.  A set of rows dependent in one R but not in another is the empty
    face there: no multipliers, residuals s.
    """
    n, p, m = R.shape
    Rs, tid = np.unique(R.reshape(n, p * m), axis=0, return_inverse=True)
    Rs = Rs.reshape(-1, p, m)
    check_table(len(Rs), p, m)
    w = min(p, m)
    blocks, indep = [], []
    for k in range(1, w + 1):
        F = np.array(list(combinations(range(p), k)))
        E = np.eye(p)[F]                                  # (c, k, p): s -> s_F
        RF = Rs[:, F]                                     # (T, c, k, m)
        ok = (np.linalg.matrix_rank(RF) == k)[..., None, None]
        G = np.where(ok, RF @ np.swapaxes(RF, -1, -2), np.eye(k))
        mu = np.linalg.inv(G) @ E * ok
        off = np.swapaxes(RF, -1, -2) @ mu
        pad = np.zeros(mu.shape[:2] + (w - k, p))
        blocks.append(np.concatenate([np.eye(p) - Rs[:, None] @ off, off, mu, pad], axis=2))
        indep.append(ok[..., 0, 0])
    keep = np.concatenate(indep, axis=1).any(axis=0)
    maps = np.concatenate(blocks, axis=1)[:, keep]        # (T, faces, p + m + w, p)
    return np.ascontiguousarray(maps.transpose(0, 3, 2, 1)).reshape(len(Rs), p, -1), tid.reshape(n)


def project_polyhedron_batch(Y, R, l, table):
    """Project the rows of Y onto per-row polyhedra {x : R[i] x <= l[i]}.

    Y is (n, m); R is (n, p, m); l is (n, p); `table` is `face_table(R)`.
    Rows already inside (every slack <= FEAS_TOL) are returned untouched; the
    others take the dual-feasible face of least residual and are certified to
    FEAS_TOL * max(1, |l|, |R| (|y| + |x|)).  Raises ProjectionError when a
    certificate fails.
    """
    S = np.einsum("npm,nm->np", R, Y) - l
    idx = (S > FEAS_TOL).any(axis=1).nonzero()[0]
    if not idx.size:
        return Y
    Sv = S.take(idx, axis=0)
    maps, tid = table
    if len(maps) == 1:
        out = Sv @ maps[0]
    else:
        out = np.einsum("kp,kpw->kw", Sv, maps.take(tid.take(idx), axis=0))
    p, m = R.shape[1:]
    out = out.reshape(idx.size, p + m + min(p, m), -1)
    key = out[:, :p].max(axis=1)
    key[out[:, p + m:].min(axis=1) < 0.0] = np.inf
    Yv, Rv, lv = Y.take(idx, axis=0), R.take(idx, axis=0), l.take(idx, axis=0)
    Xv = Yv - out[np.arange(idx.size), p:p + m, key.argmin(axis=1)]
    viol = np.einsum("kpm,km->kp", Rv, Xv) - lv
    if not (viol <= FEAS_TOL).all():
        # roundoff in R x - l grows with |l| and |R| (|y| + |x|); scaling can only loosen the test
        viol /= np.maximum(np.maximum(np.abs(lv), np.einsum("kpm,km->kp", np.abs(Rv), np.abs(Yv) + np.abs(Xv))), 1.0)
        if not (viol <= FEAS_TOL).all():
            worst = float(viol.max())
            raise ProjectionError(f"membership certificate missed by {worst:.3e}, scaled", membership_violation=worst)
    X = Y.copy()
    X[idx] = Xv
    return X


def project_polyhedron(y, R, l):
    """Certified projection of a single point: a batch of one."""
    R = np.asarray(R, dtype=float)[None]
    Y = np.array(y, dtype=float)[None]
    return project_polyhedron_batch(Y, R, np.asarray(l, dtype=float)[None], face_table(R))[0]


def dykstra(y, R, l, tol=DYKSTRA_TOL, cap=DYKSTRA_CAP):
    """Dykstra's corrected alternating projections over the halfspaces.

    An independent reference for the face-table projection.  Exits when the
    largest coordinate change over a full sweep drops below `tol`.  Raises
    ProjectionError when the sweep cap is reached while the iterate still
    violates membership by more than MEMBER_TOL.
    """
    rn2 = np.einsum("pm,pm->p", R, R)
    p, m = R.shape
    x = y.astype(float).copy()
    corr = np.zeros((p, m))
    delta = np.inf
    for _ in range(cap):
        delta = 0.0
        for j in range(p):
            w = x + corr[j]
            viol = (R[j] @ w - l[j]) / rn2[j]
            xn = w - viol * R[j] if viol > 0.0 else w
            corr[j] = w - xn
            delta = max(delta, float(np.abs(xn - x).max()))
            x = xn
        if delta < tol:
            return x
    worst = float((R @ x - l).max())
    if worst > MEMBER_TOL:
        raise ProjectionError(
            f"Dykstra hit the {cap}-sweep cap with membership violation "
            f"{worst:.3e} and last sweep change {delta:.3e}",
            membership_violation=worst,
            sweep_change=delta,
        )
    return x


def strict_interior_point(R, l, max_iter=2000):
    """Search for a strictly feasible point of {x : R x <= l}.

    Maximizes the normalized slack min_j (l_j - r_j.x)/||r_j|| by subgradient
    ascent with diminishing steps, starting from a least-squares anchor.
    Returns (point, slack); a positive slack certifies a nonempty interior.
    """
    norms = np.sqrt(np.einsum("pm,pm->p", R, R))
    Rh = R / norms[:, None]
    lh = l / norms

    x = np.linalg.lstsq(Rh, lh - 1.0, rcond=None)[0]
    slack = float((lh - Rh @ x).min())
    best_x, best_slack = x.copy(), slack
    if best_slack > 1e-3:
        return best_x, best_slack

    t0 = 1.0 + float(np.abs(lh).max())
    for k in range(max_iter):
        s = lh - Rh @ x
        j = int(np.argmin(s))
        if s[j] > best_slack:
            best_slack = float(s[j])
            best_x = x.copy()
            if best_slack > 1e-3:
                break
        x = x - (t0 / np.sqrt(k + 1.0)) * Rh[j]
    return best_x, best_slack