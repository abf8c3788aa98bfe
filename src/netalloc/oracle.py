"""Centralized ground truth: dual-ascent solver and KKT certification.

The coupled problem is separable, so the dual of the balance constraint has
a one-dimensional (per allocation component) multiplier; ascent on the
concave dual with per-agent inner minimizations gives the certified primal
solution.  Sign convention: the Lagrangian is sum_i f_i(x_i) - lam.(sum x_i
- sum d_i), so stationarity reads grad f_i(x_i*) - lam* in -N(x_i*).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError
from .problem import AgentSpec, ProblemSpec, grad, project

INNER_TOL = 1e-10
DUAL_TOL = 1e-8
INNER_CAP = 1_000_000
# a failed backtrack tightens the inner tolerance by this factor, at most
# STALL_RETRIES times, before dual ascent gives up
STALL_TIGHTEN = 1e-2
STALL_RETRIES = 2


def inner_min(agent: AgentSpec, lam, tol=INNER_TOL, x0=None):
    """argmin over the agent's set of f(x) - lam.x via projected gradient.

    Steps 1/L with L the objective's stored gradient Lipschitz constant;
    stops when the fixed-point residual of the projected-gradient map drops
    below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = np.asarray(lam, dtype=float)
    L = agent.objective.lipschitz()
    x = project(agent.local_set, np.zeros(agent.local_set.m) if x0 is None else np.asarray(x0))
    for _ in range(INNER_CAP):
        xn = project(agent.local_set, x - (grad(agent.objective, x) - lam) / L)
        if np.abs(xn - x).max() < tol:
            return xn
        x = xn
    raise ConvergenceError(
        "inner minimization hit the iteration cap",
        best=x,
        residual=float(np.abs(xn - x).max()),
        iterations=INNER_CAP,
    )


def _inner_min_all(problem: ProblemSpec, lam, X0, tol, steps, cap=200_000):
    """Batched projected-gradient inner minimization, warm-started at X0,
    with per-agent step sizes `steps`, the (n, 1) column of 1/L_i."""
    X = X0
    for it in range(cap):
        Xn = problem.project_all(X - steps * (problem.grad_all(X) - lam[None, :]))
        if np.abs(Xn - X).max() < tol:
            return Xn, it + 1
        X = Xn
    raise ConvergenceError(
        "batched inner minimization hit the iteration cap",
        best=X, residual=float(np.abs(Xn - X).max()), iterations=cap,
    )


def dual_value(problem: ProblemSpec, lam, X):
    f = problem.objective_value(X)
    if f is None:
        raise ValueError("dual ascent needs objective values for every agent")
    return f - float(lam @ X.sum(axis=0)) + float(lam @ problem.resource_total())


@dataclass
class KktReport:
    stationarity: np.ndarray       # per-agent residuals
    stationarity_max: float
    balance: float
    membership_max: float
    tol: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] stationarity {self.stationarity_max:.3e}, "
            f"balance {self.balance:.3e}, membership {self.membership_max:.3e} "
            f"(tol {self.tol:g})"
        )


def kkt_check(problem: ProblemSpec, X, lam, tol=1e-6) -> KktReport:
    """Residuals of the optimality system at (X, lam)."""
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    Xf = problem.project_all(X)  # measure stationarity at the feasible point
    stat = np.linalg.norm(Xf - problem.project_all(Xf - (problem.grad_all(Xf) - lam)), axis=1)
    balance = float(np.linalg.norm(X.sum(axis=0) - problem.resource_total()))
    member = float(problem.membership_violations(X).max())
    passed = stat.max() < tol and balance < tol and member < tol
    return KktReport(
        stationarity=stat,
        stationarity_max=float(stat.max()),
        balance=balance,
        membership_max=member,
        tol=tol,
        passed=passed,
    )


@dataclass
class OracleSolution:
    X_star: np.ndarray
    lambda_star: np.ndarray
    dual_residual: float
    stationarity_residuals: np.ndarray
    iterations_used: int
    kkt: Optional[KktReport] = None

    def to_json(self):
        return {
            "X": self.X_star.ravel().tolist(),
            "lambda": self.lambda_star.tolist(),
            "residuals": {
                "dual": self.dual_residual,
                "stationarity_max": float(self.stationarity_residuals.max()),
                "balance": self.kkt.balance if self.kkt else None,
                "membership_max": self.kkt.membership_max if self.kkt else None,
            },
            "iterations": self.iterations_used,
        }


def _certified(problem: ProblemSpec, X, lam, residual, iterations, kkt_tol) -> OracleSolution:
    """The solution (X, lam) with its KKT report at tolerance kkt_tol."""
    report = kkt_check(problem, X, lam, tol=kkt_tol)
    return OracleSolution(
        X_star=X,
        lambda_star=lam,
        dual_residual=residual,
        stationarity_residuals=report.stationarity,
        iterations_used=iterations,
        kkt=report,
    )


def solve_dual(problem: ProblemSpec, tol=DUAL_TOL, max_iter=20_000) -> OracleSolution:
    """Gradient ascent on the dual of the balance constraint.

    Ascent direction sum(d) - sum(x(lam)); steps a/(t+1)^0.6 with `a` tuned
    by backtracking on the dual value (ties broken by residual decrease, so
    accepted steps never decrease the dual).  When no step is accepted, the
    inner-solve noise summed over agents can hide a dual increase: the inner
    tolerance is then tightened, x(lam) re-solved and `a` restored, at most
    STALL_RETRIES times.  Terminates when the balance residual drops below
    tol; the returned solution carries a KKT report.  The per-agent inner
    steps 1/L_i are built once, from the objectives' stored Lipschitz
    constants, so the solve factors no matrix; a custom objective without a
    Lipschitz hint raises ValueError.
    """
    steps = np.array([1.0 / a.objective.lipschitz() for a in problem.agents])[:, None]
    lam = np.zeros(problem.m)
    X, _ = _inner_min_all(problem, lam, problem.project_all(np.zeros((problem.n, problem.m))),
                          1e-8, steps)
    g = dual_value(problem, lam, X)
    total_d = problem.resource_total()
    a, streak, retries = 1.0, 0, 0
    res = float(np.linalg.norm(total_d - X.sum(axis=0)))
    t = 0
    converged = False
    for t in range(max_iter):
        direction = total_d - X.sum(axis=0)
        res = float(np.linalg.norm(direction))
        if res < tol:
            converged = True
            break
        itol = min(1e-7, max(1e-11, res * 1e-3)) * STALL_TIGHTEN**retries
        a0, accepted = a, False
        for _ in range(60):
            step = a / (t + 1.0) ** 0.6
            lam2 = lam + step * direction
            X2, _ = _inner_min_all(problem, lam2, X, itol, steps)
            g2 = dual_value(problem, lam2, X2)
            res2 = float(np.linalg.norm(total_d - X2.sum(axis=0)))
            tie = 1e-13 * (1.0 + abs(g))
            if g2 > g + tie or (g2 >= g - tie and res2 < res):
                accepted = True
                break
            a *= 0.5
            streak = 0
        if not accepted:
            if retries == STALL_RETRIES:
                break
            retries += 1
            a = a0
            X, _ = _inner_min_all(problem, lam, X, itol * STALL_TIGHTEN, steps)
            g = dual_value(problem, lam, X)
            continue
        lam, X, g = lam2, X2, g2
        streak += 1
        if streak >= 3 and a < 1e3:
            a *= 1.5
            streak = 0

    # tight final primal recovery at the converged multiplier
    X, _ = _inner_min_all(problem, lam, X, 1e-11, steps)
    res = float(np.linalg.norm(total_d - X.sum(axis=0)))
    if not converged and res >= tol:
        raise ConvergenceError(
            "dual ascent hit the iteration cap" if t + 1 >= max_iter
            else "dual ascent stalled above tolerance",
            best=(lam, X), residual=res, iterations=t + 1,
        )
    return _certified(problem, X, lam, res, t, kkt_tol=max(1e-6, tol))


def brute_force_tiny(problem: ProblemSpec, grid_step=1e-3) -> OracleSolution:
    """Exhaustive grid oracle for two agents, one dimension, box sets.

    Scans x1 over its box; x2 = total resource - x1 must land in the second
    box.  The multiplier is recovered from the first agent's gradient when
    its minimizer is interior (from the second otherwise).
    """
    if problem.n != 2 or problem.m != 1:
        raise ValueError("brute force oracle covers n=2, m=1 instances only")
    a1, a2 = problem.agents
    if a1.local_set.kind != "box" or a2.local_set.kind != "box":
        raise ValueError("brute force oracle needs box sets")
    total = float(problem.resource_total()[0])
    lo1, hi1 = float(a1.local_set.lo[0]), float(a1.local_set.hi[0])
    lo2, hi2 = float(a2.local_set.lo[0]), float(a2.local_set.hi[0])
    xs = np.arange(lo1, hi1 + grid_step / 2, grid_step)
    x2 = total - xs
    feas = (x2 >= lo2) & (x2 <= hi2)
    if not feas.any():
        raise ValueError("grid found no feasible allocation (instance infeasible on the grid)")
    xs, x2 = xs[feas], x2[feas]
    Q1, c1 = float(a1.objective.Q[0, 0]), float(a1.objective.c[0])
    Q2, c2 = float(a2.objective.Q[0, 0]), float(a2.objective.c[0])
    vals = Q1 * xs**2 + c1 * xs + Q2 * x2**2 + c2 * x2
    j = int(np.argmin(vals))
    x_star = np.array([[xs[j]], [x2[j]]])
    if lo1 + grid_step < xs[j] < hi1 - grid_step:
        lam = np.array([2 * Q1 * xs[j] + c1])
    else:
        lam = np.array([2 * Q2 * x2[j] + c2])
    return _certified(problem, x_star, lam, float(abs(x_star.sum() - total)), xs.size,
                      kkt_tol=max(1e-6, 10 * grid_step))
