"""Deterministic mean dynamics: drift, projected-Euler flow, equilibria.

The flow integrates the projected dynamics whose drift replaces the sampled
graph with the mean Laplacian and drops all noise; its equilibria are
exactly the optimality points of the coupled problem.  The projection acts
on the allocation block only (multipliers and auxiliaries are free), so one
Euler step is S+ = P(S + h J(S)) with the allocation rows projected onto
their sets.  That step is the engine's step (`engine.step_batch`) with the
mean graph, no noise and step size h, and the flow runs the same step loop
(`engine.iterate`), which records the same metrics as on a sample path.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import NetworkState, StepInputs, StepSchedule, iterate, state_metrics, step_batch
from .errors import InconsistencyError
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
    with the mean graph, no noise and step size h (h must be positive), on a
    stack of one as in `flow`."""
    return step_batch(NetworkState.stack(state, 1), problem, StepInputs(mean_L), h).path(0)


def lyapunov(state: NetworkState, equilibrium: NetworkState) -> float:
    """Half the squared distance between stacked states."""
    return 0.5 * (
        np.linalg.norm(state.X - equilibrium.X) ** 2
        + np.linalg.norm(state.Lam - equilibrium.Lam) ** 2
        + np.linalg.norm(state.Z - equilibrium.Z) ** 2
    )


@dataclass
class FlowResult:
    lyapunov: Optional[np.ndarray]   # V after 0, 1, ..., steps steps
    final_state: NetworkState
    trace: Trace


def flow(
    state0: NetworkState,
    problem: ProblemSpec,
    mean_L,
    h: float,
    steps: int,
    equilibrium: Optional[NetworkState] = None,
    cadence: int = 1,
) -> FlowResult:
    """Integrate the projected dynamics for `steps` Euler steps.

    Runs the engine's step loop (`engine.iterate`) with the mean graph, no
    noise and the constant step size h, so the trace holds the states after
    0, cadence, 2*cadence, ... < steps steps, followed by the final state.
    As on a sample path, the trace's k column is the state's own counter
    `state.k`.  The Lyapunov series (against a supplied equilibrium) is
    indexed by steps taken, from state0 through the final state, and fills
    the trace's lyapunov column; the dist column measures X against the
    equilibrium's X, and is empty without one.  Requires
    h * (2 * max gradient Lipschitz constant + 2 ||mean_L||) < 1.
    """
    stiff = 2.0 * problem.max_lipschitz() + 2.0 * float(np.linalg.norm(mean_L, 2))
    if h * stiff >= 1.0:
        raise ValueError(f"h too large for the stability heuristic (h*{stiff:.3g} >= 1)")

    reference = None if equilibrium is None else equilibrium.X
    step_inputs = StepInputs(mean_L)
    lya = []

    def inputs(batch):
        if equilibrium is not None:
            lya.append(lyapunov(batch.path(0), equilibrium))
        return step_inputs

    run = iterate(NetworkState.stack(state0, 1), problem, StepSchedule.constant(h), steps, inputs,
                  mean_L, reference, cadence)[0]
    if run.error is not None:
        raise run.error
    state, rows = run.final, run.rows
    rows.append({"k": state.k, "alpha": h, **state_metrics(state, problem, mean_L, reference)})
    trace = build_trace(rows)
    if equilibrium is None:
        return FlowResult(lyapunov=None, final_state=state, trace=trace)
    lya = np.array(lya + [lyapunov(state, equilibrium)])
    trace.lyapunov = lya[trace.k - state0.k]
    return FlowResult(lyapunov=lya, final_state=state, trace=trace)


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
