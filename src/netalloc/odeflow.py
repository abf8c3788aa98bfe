"""Deterministic mean dynamics: drift, projected-Euler flow, equilibria.

The flow integrates the projected dynamics whose drift replaces the sampled
graph with the mean Laplacian and drops all noise; its equilibria are
exactly the optimality points of the coupled problem.  The projection acts
on the allocation block only (multipliers and auxiliaries are free), so one
Euler step is S+ = P(S + h J(S)) with the allocation rows projected onto
their sets.  That step is the engine's step (`engine.apply_step`) with the
mean graph, no noise and step size h, and the flow records the same
metrics, through the same trace recorder, as the engine's sample paths.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import NetworkState, StepNoise, apply_step, check_divergence, state_metrics
from .errors import InconsistencyError
from .network import GraphSample
from .problem import ProblemSpec
from .trace import Trace, build_trace

RESIDUAL_PROBE = 1e-6


@dataclass
class DriftEvaluation:
    """The three blocks of the mean-dynamics drift."""

    dX: np.ndarray
    dLam: np.ndarray
    dZ: np.ndarray


def drift(state: NetworkState, problem: ProblemSpec, mean_L) -> DriftEvaluation:
    """Exact drift at the state: the mean-graph, noise-free update direction."""
    X, Lam, Z = state.X, state.Lam, state.Z
    dX = -problem.grad_all(X) + Lam
    dLam = -mean_L @ (Lam + Z) + problem.D - X
    dZ = mean_L @ Lam
    return DriftEvaluation(dX=dX, dLam=dLam, dZ=dZ)


def projected_euler_step(state: NetworkState, problem: ProblemSpec, mean_L, h: float) -> NetworkState:
    """One explicit Euler step of the projected dynamics: the engine step
    with the mean graph, no noise and step size h (h must be positive)."""
    return apply_step(state, problem, GraphSample.from_laplacian(mean_L), StepNoise(), h)


def lyapunov(state: NetworkState, equilibrium: NetworkState) -> float:
    """Half the squared distance between stacked states."""
    return 0.5 * (
        np.linalg.norm(state.X - equilibrium.X) ** 2
        + np.linalg.norm(state.Lam - equilibrium.Lam) ** 2
        + np.linalg.norm(state.Z - equilibrium.Z) ** 2
    )


@dataclass
class FlowResult:
    states: list            # cadence-thinned trajectory, first and last included
    state_k: np.ndarray
    lyapunov: Optional[np.ndarray]   # per-step series, length steps+1
    final_state: NetworkState
    trace: Trace


def flow(
    state0: NetworkState,
    problem: ProblemSpec,
    mean_L,
    h: float,
    steps: int,
    equilibrium: Optional[NetworkState] = None,
    reference=None,
    cadence: int = 1,
) -> FlowResult:
    """Integrate the projected dynamics for `steps` Euler steps.

    Requires h * (2 * max gradient Lipschitz constant + 2 ||mean_L||) < 1.
    The Lyapunov series (against a supplied equilibrium) is recorded at every
    step.  With the default cadence the returned trajectory has steps+1
    states; long integrations can thin states and trace metrics by passing a
    larger `cadence`.
    """
    stiff = 2.0 * problem.max_lipschitz() + 2.0 * float(np.linalg.norm(mean_L, 2))
    if h * stiff >= 1.0:
        raise ValueError(f"h too large for the stability heuristic (h*{stiff:.3g} >= 1)")
    if steps < 1:
        raise ValueError("steps must be >= 1")

    if reference is None and equilibrium is not None:
        reference = equilibrium.X
    state = state0.copy()
    lya = None
    if equilibrium is not None:
        lya = np.empty(steps + 1)
        lya[0] = lyapunov(state, equilibrium)
    states = [state.copy()]
    state_k = [0]
    rows = []

    def record(s, t):
        rows.append({"k": t, "alpha": h, **state_metrics(s, problem, mean_L, reference),
                     "lyapunov": lya[t] if lya is not None else None})

    record(state, 0)
    for t in range(1, steps + 1):
        state = projected_euler_step(state, problem, mean_L, h)
        if lya is not None:
            lya[t] = lyapunov(state, equilibrium)
        check_divergence(state, t)
        if t % cadence == 0 or t == steps:
            states.append(state.copy())
            state_k.append(t)
            record(state, t)

    return FlowResult(
        states=states, state_k=np.array(state_k), lyapunov=lya, final_state=state,
        trace=build_trace(rows),
    )


@dataclass
class Equilibrium:
    """An equilibrium of the mean dynamics assembled from an oracle solution."""

    state: NetworkState
    lambda_star: np.ndarray
    residual: float


def equilibrium_residual(state: NetworkState, problem: ProblemSpec, mean_L) -> float:
    """|| S - P(S + h0 J(S)) || / h0 with probe step h0 = 1e-6."""
    nxt = projected_euler_step(state, problem, mean_L, RESIDUAL_PROBE)
    return float(np.sqrt(2.0 * lyapunov(nxt, state)) / RESIDUAL_PROBE)


def equilibrium_construct(problem: ProblemSpec, mean_L, X_star, lambda_star) -> Equilibrium:
    """Assemble the equilibrium matching a certified oracle solution.

    The multiplier block repeats the common multiplier; the auxiliary block
    solves mean_L @ Z = D - X_star in the least-squares sense (pseudoinverse
    with singular-value cutoff 1e-10, valid because the mean Laplacian is
    singular by construction).  Raises InconsistencyError when D - X_star is
    not in the range of the mean Laplacian, which signals an unbalanced
    oracle solution.
    """
    X_star = np.asarray(X_star, dtype=float)
    lambda_star = np.asarray(lambda_star, dtype=float)
    rhs = problem.D - X_star
    Z_star = np.linalg.pinv(mean_L, rcond=1e-10) @ rhs
    gap = float(np.linalg.norm(mean_L @ Z_star - rhs))
    if gap > 1e-6:
        raise InconsistencyError(
            f"D - X* is not in the range of the mean Laplacian (gap {gap:.3e}); "
            "the oracle solution violates the balance constraint"
        )
    state = NetworkState(
        X=X_star.copy(), Lam=np.tile(lambda_star, (problem.n, 1)), Z=Z_star, k=0
    )
    return Equilibrium(
        state=state,
        lambda_star=lambda_star.copy(),
        residual=equilibrium_residual(state, problem, mean_L),
    )
