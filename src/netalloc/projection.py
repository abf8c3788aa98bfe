"""Euclidean projection onto polyhedra {x : R x <= l}.

The hot path certifies exactness through the KKT system of the projection
problem: a candidate built from a working set of rows is accepted only when
its multipliers are nonnegative and the full constraint system is satisfied.
Points that resist certification fall back to Dykstra's alternating
projections over the halfspaces (iteration cap 10_000, exit tolerance 1e-10).
"""

import numpy as np

from .errors import ProjectionError

# slack for "already satisfies the constraint"
FEAS_TOL = 1e-12
# membership tolerance every returned point must meet
MEMBER_TOL = 1e-9

DYKSTRA_CAP = 10_000
DYKSTRA_TOL = 1e-10


def row_norms_sq(R):
    return np.einsum("...pm,...pm->...p", R, R)


def _face_solve(y, Ra, la):
    """Project y onto the affine face {x : Ra x = la}; returns (x, mu)."""
    G = Ra @ Ra.T
    rhs = Ra @ y - la
    try:
        mu = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        mu = np.linalg.lstsq(G, rhs, rcond=1e-10)[0]
    return y - Ra.T @ mu, mu


def _active_set(y, R, l, max_rounds=8):
    """Certified projection via working-set rounds; None when not certified.

    Starts from the violated rows, drops rows with negative multipliers and
    adds rows the candidate violates.  On success the result is exact up to
    the linear-solve roundoff.
    """
    s = R @ y - l
    act = s > FEAS_TOL
    if not act.any():
        return y
    for _ in range(max_rounds):
        rows = act.nonzero()[0]
        x, mu = _face_solve(y, R.take(rows, axis=0), l.take(rows))
        neg = mu < -1e-12
        if neg.any():
            act[rows[neg]] = False
            if not act.any():
                return y if (s <= FEAS_TOL).all() else None
            continue
        newly = R @ x - l > 1e-11
        if not newly.any():
            return x
        act |= newly
    return None


def dykstra(y, R, l, rn2=None, tol=DYKSTRA_TOL, cap=DYKSTRA_CAP):
    """Dykstra's corrected alternating projections over the halfspaces.

    Exits when the largest coordinate change over a full sweep drops below
    `tol`.  Raises ProjectionError when the sweep cap is reached while the
    iterate still violates membership by more than MEMBER_TOL.
    """
    if rn2 is None:
        rn2 = row_norms_sq(R)
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
            dd = np.abs(xn - x).max()
            if dd > delta:
                delta = dd
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


def project_polyhedron(y, R, l, rn2=None):
    """Exact-where-certified projection of a single point."""
    if rn2 is None:
        rn2 = row_norms_sq(R)
    s = R @ y - l
    if (s <= FEAS_TOL).all():
        return np.array(y, dtype=float)
    x = _active_set(y, R, l)
    if x is None:
        x = dykstra(y, R, l, rn2)
    return x


def project_polyhedron_batch(Y, R, l, rn2):
    """Project the rows of Y onto per-row polyhedra.

    Y is (n, m); R is (n, p, m); l and rn2 are (n, p).  Feasible rows are
    returned untouched; single-violation rows use the closed-form halfspace
    projection; rows with up to m violated constraints try one stacked face
    solve.  All candidates are certified in one pass; the rest go through
    the per-row certified path.
    """
    S = np.einsum("npm,nm->np", R, Y) - l
    badm = S > FEAS_TOL
    nv = badm.sum(axis=1)
    idx = nv.nonzero()[0]
    if not idx.size:
        return Y
    n, p, m = R.shape
    X = Y.copy()
    # (agent, constraint) pairs index the flattened S and R
    Sf, Rf = S.reshape(-1), R.reshape(-1, m)
    failed = nv > m
    tol = np.full(n, 1e-11)  # face candidates get _active_set's slack

    one = (nv == 1).nonzero()[0]
    if one.size:
        f = one * p + badm.take(one, axis=0).argmax(axis=1)
        step = Sf.take(f) / rn2.reshape(-1).take(f)
        X[one] = Y.take(one, axis=0) - step[:, None] * Rf.take(f, axis=0)
        tol[one] = FEAS_TOL

    for v in range(2, m + 1):
        sub = (nv == v).nonzero()[0]
        if not sub.size:
            continue
        f = (sub * p)[:, None] + badm.take(sub, axis=0).nonzero()[1].reshape(sub.size, v)
        Ra = Rf.take(f, axis=0)
        try:
            mu = np.linalg.solve(Ra @ np.swapaxes(Ra, 1, 2), Sf.take(f)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            failed[sub] = True
            continue
        X[sub] = Y.take(sub, axis=0) - np.einsum("gvm,gv->gm", Ra, mu)
        failed[sub] |= ~(mu >= -1e-12).all(axis=1)

    fit = (
        np.einsum("npm,nm->np", R.take(idx, axis=0), X.take(idx, axis=0))
        <= l.take(idx, axis=0) + tol.take(idx)[:, None]
    ).all(axis=1)
    failed[idx] |= ~fit
    for i in failed.nonzero()[0]:
        X[i] = project_polyhedron(Y[i], R[i], l[i], rn2[i])
    return X


def strict_interior_point(R, l, slack_threshold=1e-6, max_iter=2000):
    """Search for a strictly feasible point of {x : R x <= l}.

    Maximizes the normalized slack min_j (l_j - r_j.x)/||r_j|| by subgradient
    ascent with diminishing steps, starting from a least-squares anchor.
    Returns (point, slack); slack > `slack_threshold` certifies a nonempty
    interior.
    """
    norms = np.sqrt(row_norms_sq(R))
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
