"""Euclidean projection onto polyhedra {x : R x <= l}, exact and certified.

Face table: per distinct R, every linearly independent set F of at most
min(p, m) rows maps the slacks s = R y - l linearly to mu_F = (R_F R_F')^-1 s_F,
to the offset R_F' mu_F, so x_F = y - R_F' mu_F is y projected onto
{R_F x = l_F}, and to the residuals R x_F - l = s - R R_F' mu_F.  Each face
has the code sum_{j in F} 2^j; the table's faces are sorted by code.

x_F is stationary by construction.  If it is also dual feasible (mu_F >= 0)
and primal feasible, it meets the KKT conditions, which suffice for a convex
QP, so it is P(y).  The kernel projects a row in two stages:

1. The violated face.  Every row looks up the face made of exactly its
   violated rows (s > FEAS_TOL) by its code, multiplies its slacks by that
   face's block of the table alone, and keeps x_F if mu_F >= 0 and
   R x_F - l <= FEAS_TOL.  A row already inside is the empty face: it
   multiplies zero slacks and keeps its bits.  Most rows stop here.
2. The table.  The other rows evaluate every face of their table and take
   the dual-feasible face of least residual.  It must pass the certificate
   mu_F >= 0 and R x_F - l <= FEAS_TOL scaled by max(1, |l|, |R| (|y| +
   |x_F|)), as roundoff grows with those, or the kernel raises
   ProjectionError.

Both stages multiply each row's slacks by its own table in one stacked
matmul, one product per row, so a row's bits do not depend on the other rows
of the call: every step of the kernel is row by row.

A wrong face's residual grows linearly with its distance from P(y), so a
wrong face passes either test only within about FEAS_TOL of P(y); a code
that names the wrong face costs at most a trip to the table.  `check_table`
caps the tables; `dykstra` stays as the tests' independent reference.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ProjectionError

# slack for "already satisfies the constraint", and the certificate's tolerance
FEAS_TOL = 1e-12
# membership tolerance of Dykstra's reference iteration
MEMBER_TOL = 1e-9
# caps on candidate faces per polyhedron (the DR template has 298) and on the
# total size of one stack's tables: a row the first stage does not certify
# reads its whole table
MAX_FACES = 512
MAX_TABLE_BYTES = 32 * 2**20
# bytes of intermediates `face_table` builds at a time
BUILD_BYTES = 2**20

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


@lru_cache(maxsize=None)
def _bits(p):
    """2^j for the rows j < p: a row set's code is its indicator times these."""
    bits = np.ldexp(1.0, np.arange(p))
    bits.flags.writeable = False
    return bits


def _aligned_zeros(shape, align=64):
    """Zeros on an `align`-byte boundary: OpenBLAS multiplies by a table that
    starts off a cache line at about 1.5x the time (12 x 3,888, 2 rows)."""
    buf = np.zeros(math.prod(shape) + align // 8)
    start = -buf.ctypes.data % align // 8
    return buf[start:start + math.prod(shape)].reshape(shape)


def face_table(R):
    """Face table (maps, tid, codes) of a (n, p, m) stack of constraint matrices.

    Row i uses the distinct R number tid[i].  For its slacks s, `s @ maps[tid[i]]`
    reshaped to (p + m + w, faces), w = min(p, m), stacks the residuals R x_F - l,
    R_F' mu_F and mu_F (zero-padded to w rows) of every face, one face per
    column; `codes` holds the faces' codes sum_{j in F} 2^j in ascending order.
    Every face's code is an exact float for each (p, m) that `check_table`
    admits (faces of two or more rows need p <= 31), and no array of size 2^p
    is made.  A violated set of more than min(p, m) rows can round, past
    p = 53, to the code of a face; the certificate then decides, as for any
    other guess.  A set of rows dependent in one R but not in another is the
    empty face there: no multipliers, residuals s.  The empty face itself
    (code 0) has no column: a row with no violated constraint names no face
    and multiplies zero slacks by the block its lookup lands on, which gives
    the empty face's zero offset and multipliers.  The table is written in
    place, a few distinct R at a time, on a 64-byte boundary.
    """
    n, p, m = R.shape
    Rs, tid = np.unique(R.reshape(n, p * m), axis=0, return_inverse=True)
    Rs = Rs.reshape(-1, p, m)
    check_table(len(Rs), p, m)
    w = min(p, m)
    sets, indep = [], []
    for k in range(1, w + 1):
        F = np.array(list(combinations(range(p), k)))
        ok = np.linalg.matrix_rank(Rs[:, F]) == k         # (T, c)
        keep = ok.any(axis=0)
        sets.append(F[keep])
        indep.append(ok[:, keep])
    codes = np.concatenate([_bits(p)[F].sum(axis=1) for F in sets])
    order = np.argsort(codes)
    col = np.empty_like(order)
    col[order] = np.arange(order.size)
    maps = _aligned_zeros((len(Rs), p, p + m + w, codes.size))
    chunk = max(1, BUILD_BYTES // maps[0].nbytes)
    for t in range(0, len(Rs), chunk):
        Rt = Rs[t:t + chunk]
        first = 0
        for k, (F, ok) in enumerate(zip(sets, indep), start=1):
            c = col[first:first + len(F)]
            first += len(F)
            ok = ok[t:t + chunk, :, None, None]
            RF = Rt[:, F]                                 # (tc, c, k, m)
            G = np.where(ok, RF @ np.swapaxes(RF, -1, -2), np.eye(k))
            mu = np.linalg.inv(G) @ np.eye(p)[F] * ok     # (tc, c, k, p): s -> mu_F
            off = np.swapaxes(RF, -1, -2) @ mu
            dst = maps[t:t + chunk]
            dst[..., :p, c] = (np.eye(p) - Rt[:, None] @ off).transpose(0, 3, 2, 1)
            dst[..., p:p + m, c] = off.transpose(0, 3, 2, 1)
            dst[..., p + m:p + m + k, c] = mu.transpose(0, 3, 2, 1)
    return maps, tid.reshape(n), codes[order]


def project_polyhedron_batch(Y, R, l, table):
    """Project the rows of Y onto per-row polyhedra {x : R[i] x <= l[i]}.

    Y is (n, m), or (P, n, m) for P segments (sample paths) of n rows each;
    R is (n, p, m); l is (n, p); `table` is `face_table(R)`.  Every row goes
    through the violated-face stage in one stacked product: it looks up the
    face of exactly its violated rows (slack > FEAS_TOL) by its code,
    multiplies its slacks by that face's block of the table, and keeps x_F
    if mu_F >= 0 and R x_F - l <= FEAS_TOL.  A row whose code names no face
    multiplies zero slacks instead, so x = y: a row already inside (code 0,
    the empty face) comes out with its input bits, -0.0 included, and never
    reaches the table, and a violating one fails the test.  The rows that
    fail go to the whole table.  Every step is row by row, both stages
    multiplying a row's slacks by its table in a stacked matmul (one product
    per row), so each row comes out bit for bit as when it is projected
    alone.  Returns a new array; raises ProjectionError, listing the failing
    rows, when a certificate fails.
    """
    n, p, m = R.shape
    maps, tid, codes = table
    lb = l[None] if Y.ndim == 3 else l   # (1, n, p) meets a stack without broadcasting a missing dimension
    S = np.einsum("npm,...nm->...np", R, Y)
    S -= lb
    code = (S > FEAS_TOL).dot(_bits(p))
    f = codes[:-1].searchsorted(code)   # in range; a code past every face's is named by no face
    # each row's table: one shared table is indexed by 0, so that the table
    # stage multiplies by a broadcast view and copies no table per row
    t = 0 if len(maps) == 1 else tid
    # the slacks times the offset and multiplier columns of the face of
    # exactly the violated rows, gathered strided from the table; a row whose
    # code names no face (code 0 among them) multiplies zeros, so x = y: a row
    # inside is certified as it is, a violating one fails below
    named = codes[f] == code
    o = np.matmul((S * named[..., None]).reshape(-1, 1, p),
                  maps[t, :, p:, f].reshape(-1, p, maps.shape[2] - p))[:, 0]
    X = Y - o[:, :m].reshape(Y.shape)
    # unscaled: a row that needs the scaled certificate goes to the table,
    # which takes the least residual among the dual-feasible faces
    resid = np.einsum("npm,...nm->...np", R, X)
    resid -= lb
    mu = o[:, m:]
    if np.maximum.reduce(resid, axis=None) <= FEAS_TOL and np.minimum.reduce(mu, axis=None) >= 0.0:
        return X
    # some row failed, or holds a NaN: find which; a row with no violated
    # slack never goes on, so a NaN row comes out NaN for the divergence guard
    good = np.logical_and.reduce(resid <= FEAS_TOL, axis=-1)
    good &= (np.minimum.reduce(mu, axis=1) >= 0.0).reshape(good.shape)
    good |= code == 0.0
    rest = np.flatnonzero(~good)
    if rest.size:
        agent = rest % n
        X.reshape(-1, m)[rest] = _table_faces(
            S.reshape(-1, p).take(rest, axis=0), Y.reshape(-1, m).take(rest, axis=0), R.take(agent, axis=0),
            l.take(agent, axis=0), rest, maps, t if np.isscalar(t) else t.take(agent))
    return X


def _table_faces(Sv, Yv, Rv, lv, rows, maps, t):
    """The rows' dual-feasible faces of least residual over their whole
    tables (row i reads table t[i], or table t for all), certified to
    FEAS_TOL * max(1, |l|, |R| (|y| + |x|)): their points, or ProjectionError
    naming `rows`.  Each row's slacks are multiplied by its table alone, as
    in the first stage, since OpenBLAS rounds a row of a GEMM differently
    with the number of rows in the call."""
    k, p = Sv.shape
    m = Yv.shape[1]
    out = np.matmul(Sv[:, None], maps.reshape(len(maps), p, -1)[t])[:, 0].reshape((k,) + maps.shape[2:])
    key = np.maximum.reduce(out[:, :p], axis=1)
    key[np.minimum.reduce(out[:, p + m:], axis=1) < 0.0] = np.inf
    pick = np.arange(k), key.argmin(axis=1)
    Xv = Yv - out[pick[0], p:p + m, pick[1]]
    viol = np.einsum("kpm,km->kp", Rv, Xv) - lv
    if not (np.logical_and.reduce(viol <= FEAS_TOL, axis=None) and np.maximum.reduce(key[pick]) < np.inf):
        # roundoff in R x - l grows with |l| and |R| (|y| + |x|); scaling can only loosen the test
        viol /= np.maximum(np.maximum(np.abs(lv), np.einsum("kpm,km->kp", np.abs(Rv), np.abs(Yv) + np.abs(Xv))), 1.0)
        bad = ~np.logical_and.reduce(viol <= FEAS_TOL, axis=1) | (key[pick] == np.inf)
        if np.logical_or.reduce(bad):
            worst = float(np.maximum.reduce(viol[bad], axis=None))
            raise ProjectionError(f"certificate missed: membership by {worst:.3e}, scaled, or no dual-feasible face",
                                  membership_violation=worst, rows=rows[bad])
    return Xv


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