import numpy as np
import pytest

from netalloc import (
    AgentSpec,
    GraphModel,
    InconsistencyError,
    LocalSet,
    NetworkState,
    NoiseConfig,
    ObjectiveSpec,
    ProblemSpec,
    StepSchedule,
    drift,
    equilibrium_construct,
    equilibrium_residual,
    flow,
    initial_state,
    lyapunov,
    mean_laplacian,
    projected_euler_step,
    random_instance,
    run_path,
    solve_dual,
)
from netalloc.engine import state_metrics
from netalloc.trace import METRICS

K2_LAP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def ring_model(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return GraphModel.fixed_pool([A])


def scalar_problem():
    agents = [
        AgentSpec(ObjectiveSpec.quadratic([[1.0]], [0.5]), LocalSet.unconstrained(1), [0.2]),
        AgentSpec(ObjectiveSpec.quadratic([[2.0]], [-1.0]), LocalSet.unconstrained(1), [-0.4]),
    ]
    return ProblemSpec(agents)


# ---------------------------------------------------------------------------
# drift


def test_drift_decoupled_blocks():
    problem = scalar_problem()
    X = np.array([[0.3], [-0.2]])
    state = NetworkState(X=X, Lam=np.zeros((2, 1)), Z=np.array([[0.1], [0.4]]))
    J = drift(state, problem, np.zeros((2, 2)))
    np.testing.assert_allclose(J.dX, -problem.grad_all(X))
    np.testing.assert_allclose(J.dLam, problem.D - X)
    np.testing.assert_allclose(J.dZ, 0.0)


def test_drift_hand_computed():
    problem = scalar_problem()
    x1, x2 = 0.3, -0.2
    l1, l2 = 0.1, 0.4
    z1, z2 = -0.3, 0.2
    state = NetworkState(
        X=np.array([[x1], [x2]]), Lam=np.array([[l1], [l2]]), Z=np.array([[z1], [z2]])
    )
    J = drift(state, problem, K2_LAP)
    g1 = 2 * 1.0 * x1 + 0.5
    g2 = 2 * 2.0 * x2 - 1.0
    np.testing.assert_allclose(J.dX.ravel(), [-g1 + l1, -g2 + l2], atol=1e-15)
    np.testing.assert_allclose(
        J.dLam.ravel(),
        [-((l1 + z1) - (l2 + z2)) + 0.2 - x1, -((l2 + z2) - (l1 + z1)) - 0.4 - x2],
        atol=1e-15,
    )
    np.testing.assert_allclose(J.dZ.ravel(), [l1 - l2, l2 - l1], atol=1e-15)


# ---------------------------------------------------------------------------
# projected Euler


def test_euler_step_is_plain_euler_when_unconstrained():
    problem = scalar_problem()
    state = NetworkState(
        X=np.array([[0.3], [-0.2]]), Lam=np.array([[0.1], [0.4]]), Z=np.zeros((2, 1))
    )
    h = 1e-2
    J = drift(state, problem, K2_LAP)
    nxt = projected_euler_step(state, problem, K2_LAP, h)
    np.testing.assert_allclose(nxt.X, state.X + h * J.dX, atol=1e-15)
    np.testing.assert_allclose(nxt.Lam, state.Lam + h * J.dLam, atol=1e-15)
    np.testing.assert_allclose(nxt.Z, state.Z + h * J.dZ, atol=1e-15)


def test_euler_step_requires_positive_h():
    problem = scalar_problem()
    with pytest.raises(ValueError):
        projected_euler_step(initial_state(problem), problem, K2_LAP, 0.0)


def test_richardson_first_order_ratio():
    """Global error of explicit Euler halves with h (ratio about 2)."""
    problem = scalar_problem()
    state = NetworkState(
        X=np.array([[0.3], [-0.2]]), Lam=np.array([[0.1], [0.4]]), Z=np.zeros((2, 1))
    )

    def integrate(h, steps):
        s = state.copy()
        for _ in range(steps):
            s = projected_euler_step(s, problem, K2_LAP, h)
        return np.concatenate([s.X.ravel(), s.Lam.ravel(), s.Z.ravel()])

    T = 1e-2
    ref = integrate(T / 1024, 1024)
    errs = {h: np.linalg.norm(integrate(h, int(T / h)) - ref) for h in (1e-2, 1e-3)}
    # two h-halvings per decade: error ratio should be about 10 for first order
    ratio = errs[1e-2] / errs[1e-3]
    assert 5.0 < ratio < 20.0
    # and one halving gives about 2
    e_half = np.linalg.norm(integrate(T / 2, 2) - ref)
    e_full = np.linalg.norm(integrate(T, 1) - ref)
    assert 1.5 < e_full / e_half < 3.0


# ---------------------------------------------------------------------------
# Lyapunov function


def test_lyapunov_zero_at_equilibrium():
    problem = scalar_problem()
    s = initial_state(problem)
    assert lyapunov(s, s) == 0.0


def test_lyapunov_half_squared_distance():
    problem = scalar_problem()
    s = initial_state(problem)
    t = s.copy()
    t.X = s.X + np.array([[2.0], [0.0]])
    assert lyapunov(t, s) == pytest.approx(2.0)


def test_lyapunov_permutation_invariance():
    rng = np.random.default_rng(0)
    a = NetworkState(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    b = NetworkState(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    perm = rng.permutation(4)
    ap = NetworkState(a.X[perm], a.Lam[perm], a.Z[perm])
    bp = NetworkState(b.X[perm], b.Lam[perm], b.Z[perm])
    assert lyapunov(ap, bp) == pytest.approx(lyapunov(a, b), rel=1e-12)


# ---------------------------------------------------------------------------
# equilibria


def test_equilibrium_construct_two_agents_hand_solved():
    problem = scalar_problem()
    sol = solve_dual(problem, tol=1e-11)
    eq = equilibrium_construct(problem, K2_LAP, sol.X_star, sol.lambda_star)
    r = float((problem.D - sol.X_star)[0, 0])
    # least-squares solution of K2 Z = (r, -r) is (r/2, -r/2)
    np.testing.assert_allclose(eq.state.Z.ravel(), [r / 2, -r / 2], atol=1e-9)
    np.testing.assert_allclose(eq.state.Lam, np.tile(sol.lambda_star, (2, 1)), atol=1e-12)
    assert eq.residual < 1e-8


def test_equilibrium_balanced_instance_zero_Z():
    # X* = D exactly when each agent's unconstrained optimum equals its resource
    agents = [
        AgentSpec(ObjectiveSpec.quadratic([[1.0]], [-0.4]), LocalSet.unconstrained(1), [0.2]),
        AgentSpec(ObjectiveSpec.quadratic([[1.0]], [0.8]), LocalSet.unconstrained(1), [-0.4]),
    ]
    problem = ProblemSpec(agents)
    sol = solve_dual(problem, tol=1e-11)
    np.testing.assert_allclose(sol.X_star, problem.D, atol=1e-8)
    eq = equilibrium_construct(problem, K2_LAP, sol.X_star, sol.lambda_star)
    np.testing.assert_allclose(eq.state.Z, 0.0, atol=1e-7)


def test_equilibrium_construct_rejects_unbalanced():
    problem = scalar_problem()
    bad_X = problem.D + 0.3  # sum(X) != sum(D)
    with pytest.raises(InconsistencyError):
        equilibrium_construct(problem, K2_LAP, bad_X, np.zeros(1))


def test_equilibrium_invariants():
    """Consensus, balance and stationarity residuals at an accepted equilibrium."""
    from netalloc import stationarity_residual

    problem = random_instance(3, 5, 2, set_kind="box")
    model = ring_model(5)
    mean_L = mean_laplacian(model)
    sol = solve_dual(problem, tol=1e-10)
    eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
    assert np.linalg.norm(mean_L @ eq.state.Lam) < 1e-8
    assert np.linalg.norm((eq.state.X - problem.D).sum(axis=0)) < 1e-7
    for i, agent in enumerate(problem.agents):
        assert stationarity_residual(agent, eq.state.X[i], eq.lambda_star) < 1e-7


def test_equilibrium_residual_far_state_is_large():
    problem = scalar_problem()
    rng = np.random.default_rng(5)
    state = NetworkState(rng.normal(size=(2, 1)), rng.normal(size=(2, 1)), rng.normal(size=(2, 1)))
    assert equilibrium_residual(state, problem, K2_LAP) > 1e-2


def test_equilibrium_residual_unconstrained_equals_drift_norm():
    problem = scalar_problem()
    rng = np.random.default_rng(6)
    state = NetworkState(rng.normal(size=(2, 1)), rng.normal(size=(2, 1)), rng.normal(size=(2, 1)))
    J = drift(state, problem, K2_LAP)
    norm_J = np.sqrt(
        np.linalg.norm(J.dX) ** 2 + np.linalg.norm(J.dLam) ** 2 + np.linalg.norm(J.dZ) ** 2
    )
    assert equilibrium_residual(state, problem, K2_LAP) == pytest.approx(norm_J, abs=1e-9)


# ---------------------------------------------------------------------------
# the flow


def test_flow_constant_at_equilibrium():
    problem = scalar_problem()
    sol = solve_dual(problem, tol=1e-11)
    eq = equilibrium_construct(problem, K2_LAP, sol.X_star, sol.lambda_star)
    res = flow(eq.state, problem, K2_LAP, h=1e-3, steps=500, equilibrium=eq.state)
    assert res.lyapunov.max() < 1e-16
    np.testing.assert_allclose(res.final_state.X, eq.state.X, atol=1e-10)


def test_flow_stability_precondition():
    problem = scalar_problem()
    with pytest.raises(ValueError):
        flow(initial_state(problem), problem, K2_LAP, h=1.0, steps=10)


def test_flow_lyapunov_nonincreasing_short():
    problem = random_instance(7, 4, 2, set_kind="box")
    model = ring_model(4)
    mean_L = mean_laplacian(model)
    sol = solve_dual(problem, tol=1e-10)
    eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
    res = flow(initial_state(problem), problem, mean_L, h=1e-3, steps=5000, equilibrium=eq.state)
    V = res.lyapunov
    assert (np.diff(V) <= 1e-10 * (1.0 + V[:-1])).all()


def test_flow_limit_matches_sa_limit():
    """The noiseless mean-graph flow and the noiseless recursion with
    diminishing steps settle within 1e-3 of each other in the allocations."""
    problem = random_instance(11, 3, 1, set_kind="box")
    model = ring_model(3)
    mean_L = mean_laplacian(model)
    fr = flow(initial_state(problem), problem, mean_L, h=5e-3, steps=40_000)
    sa = run_path(problem, model, NoiseConfig.noiseless(), StepSchedule.power(1.0, 0.6),
                  30_000, seed=0)
    assert np.linalg.norm(fr.final_state.X - sa.final_state.X) < 1e-3


def test_flow_trace_alpha_carries_h():
    problem = scalar_problem()
    res = flow(initial_state(problem), problem, K2_LAP, h=2e-3, steps=100, cadence=10)
    assert (res.trace.alpha == 2e-3).all()
    assert res.trace.lyapunov is None


def test_flow_default_trajectory_length():
    problem = scalar_problem()
    res = flow(initial_state(problem), problem, K2_LAP, h=1e-3, steps=250)
    assert len(res.trace) == 251
    np.testing.assert_array_equal(res.trace.k, np.arange(251))


def _reference_flow(state0, problem, mean_L, h, steps, equilibrium, cadence):
    """The flow written as its own loop: Euler steps, the Lyapunov value after
    every step, and a metric record after 0, cadence, 2*cadence, ... steps
    and after the last one."""
    state = state0
    lya = [lyapunov(state, equilibrium)]
    records = [(0, state_metrics(state, problem, mean_L, equilibrium.X))]
    for t in range(1, steps + 1):
        state = projected_euler_step(state, problem, mean_L, h)
        lya.append(lyapunov(state, equilibrium))
        if t % cadence == 0 or t == steps:
            records.append((t, state_metrics(state, problem, mean_L, equilibrium.X)))
    return records, np.array(lya), state


@pytest.mark.parametrize("steps,cadence", [(5, 1), (5, 10), (1000, 7), (250, 1)])
def test_flow_matches_reference_loop_exactly(steps, cadence):
    problem = random_instance(5, 4, 2, set_kind="polyhedron")
    mean_L = mean_laplacian(ring_model(4))
    sol = solve_dual(problem, tol=1e-10)
    eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
    rng = np.random.default_rng(9)
    start = NetworkState(X=problem.project_all(rng.standard_normal((4, 2))),
                         Lam=rng.standard_normal((4, 2)), Z=rng.standard_normal((4, 2)))
    res = flow(start, problem, mean_L, h=1e-3, steps=steps, equilibrium=eq.state,
               cadence=cadence)
    records, lya, final = _reference_flow(start, problem, mean_L, 1e-3, steps, eq.state, cadence)

    ks = np.array([t for t, _ in records])
    np.testing.assert_array_equal(res.trace.k, ks)
    np.testing.assert_array_equal(res.trace.alpha, np.full(ks.size, 1e-3))
    for name in METRICS:
        np.testing.assert_array_equal(getattr(res.trace, name),
                                      np.array([m[name] for _, m in records]))
    np.testing.assert_array_equal(res.lyapunov, lya)
    np.testing.assert_array_equal(res.trace.lyapunov, lya[ks])
    for block in ("X", "Lam", "Z"):
        np.testing.assert_array_equal(getattr(res.final_state, block), getattr(final, block))


def test_flow_start_with_nonzero_counter():
    """The trace's k column carries the state's counter; the Lyapunov series
    is indexed by steps taken."""
    problem = scalar_problem()
    eq = NetworkState(X=np.zeros((2, 1)), Lam=np.zeros((2, 1)), Z=np.zeros((2, 1)))
    start = NetworkState(X=np.array([[0.3], [-0.1]]), Lam=np.zeros((2, 1)),
                         Z=np.zeros((2, 1)), k=40)
    res = flow(start, problem, K2_LAP, h=1e-3, steps=25, equilibrium=eq, cadence=10)
    np.testing.assert_array_equal(res.trace.k, [40, 50, 60, 65])
    assert res.final_state.k == 65 and res.lyapunov.size == 26
    np.testing.assert_array_equal(res.trace.lyapunov, res.lyapunov[[0, 10, 20, 25]])
