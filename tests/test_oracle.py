import numpy as np
import pytest

from netalloc import (
    AgentSpec,
    ConvergenceError,
    GraphModel,
    LocalSet,
    NoiseConfig,
    ObjectiveSpec,
    ProblemSpec,
    StepSchedule,
    brute_force_tiny,
    build_graph_pool,
    demand_response_instance,
    flow,
    initial_state,
    inner_min,
    kkt_check,
    mean_laplacian,
    random_instance,
    run_path,
    solve_dual,
)


def scalar_agent(Q, c, local_set, d=0.0):
    return AgentSpec(ObjectiveSpec.quadratic([[Q]], [c]), local_set, [d])


def analytic_pair(c1, c2, d1, d2):
    """f_i(x) = (x - c_i)^2: x_i* = c_i + (sum d - sum c)/2, lam* = sum d - sum c."""
    agents = [
        scalar_agent(1.0, -2 * c1, LocalSet.unconstrained(1), d1),
        scalar_agent(1.0, -2 * c2, LocalSet.unconstrained(1), d2),
    ]
    problem = ProblemSpec(agents)
    shift = (d1 + d2 - c1 - c2) / 2.0
    return problem, np.array([[c1 + shift], [c2 + shift]]), np.array([d1 + d2 - c1 - c2])


# ---------------------------------------------------------------------------
# inner minimization


def test_inner_min_unconstrained():
    agent = scalar_agent(1.0, 0.0, LocalSet.unconstrained(1))
    x = inner_min(agent, np.array([2.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_inner_min_boundary():
    agent = scalar_agent(1.0, 0.0, LocalSet.box([0.0], [np.inf]))
    x = inner_min(agent, np.array([-2.0]))
    assert x[0] == pytest.approx(0.0, abs=1e-12)


def test_inner_min_matches_grid():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Q = float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(-1, 1))
        lo, hi = sorted(rng.uniform(-2, 2, 2))
        agent = scalar_agent(Q, c, LocalSet.box([lo], [hi]))
        lam = rng.uniform(-2, 2, 1)
        x = inner_min(agent, lam)
        grid = np.arange(lo, hi + 1e-4 / 2, 1e-4)
        vals = Q * grid**2 + c * grid - lam[0] * grid
        assert abs(x[0] - grid[np.argmin(vals)]) < 1e-3


def test_inner_min_requires_positive_tol():
    agent = scalar_agent(1.0, 0.0, LocalSet.unconstrained(1))
    with pytest.raises(ValueError):
        inner_min(agent, np.zeros(1), tol=0.0)


# ---------------------------------------------------------------------------
# dual solver


def test_solve_dual_analytic_two_agents():
    problem, X_star, lam_star = analytic_pair(c1=0.3, c2=-0.7, d1=0.4, d2=0.1)
    sol = solve_dual(problem, tol=1e-10)
    np.testing.assert_allclose(sol.X_star, X_star, atol=1e-7)
    np.testing.assert_allclose(sol.lambda_star, lam_star, atol=1e-7)
    assert sol.kkt.passed


def test_solve_dual_unique_solution_matches_brute_force():
    rng = np.random.default_rng(1)
    for seed in range(5):
        problem = random_instance(seed, 2, 1, set_kind="box")
        sol = solve_dual(problem, tol=1e-9)
        ref = brute_force_tiny(problem, grid_step=1e-3)
        assert np.abs(sol.X_star - ref.X_star).max() < 2e-3


def test_solve_dual_iteration_cap():
    problem = random_instance(2, 5, 2, set_kind="box")
    with pytest.raises(ConvergenceError) as err:
        solve_dual(problem, tol=1e-12, max_iter=1)
    assert err.value.best is not None
    assert err.value.residual is not None


def test_solve_dual_recovers_from_inner_noise_stall():
    # 400 agents: inner-solve noise summed over agents hides the dual increase
    # near the optimum unless the inner tolerance is tightened
    problem = random_instance(9, 400, 3, "box")
    sol = solve_dual(problem)
    assert sol.dual_residual < 1e-8
    assert sol.kkt.passed


def test_solve_dual_scaling_invariance():
    """Scaling every objective by gamma scales lam* by gamma, X* unchanged."""
    problem = random_instance(4, 3, 2, set_kind="box")
    gamma = 2.0
    scaled = ProblemSpec([
        AgentSpec(
            ObjectiveSpec.quadratic(gamma * a.objective.Q, gamma * a.objective.c),
            a.local_set, a.resource,
        )
        for a in problem.agents
    ])
    sol = solve_dual(problem, tol=1e-10)
    sol2 = solve_dual(scaled, tol=1e-10)
    assert np.abs(sol2.X_star - sol.X_star).max() < 1e-6
    assert np.abs(sol2.lambda_star - gamma * sol.lambda_star).max() < 1e-6


# ---------------------------------------------------------------------------
# KKT checks


def test_kkt_analytic_solution_clean():
    problem, X_star, lam_star = analytic_pair(0.5, -0.2, 0.1, 0.3)
    rep = kkt_check(problem, X_star, lam_star, tol=1e-6)
    assert rep.passed
    assert rep.stationarity_max < 1e-10
    assert rep.balance < 1e-12


def test_kkt_perturbed_multiplier():
    problem, X_star, lam_star = analytic_pair(0.5, -0.2, 0.1, 0.3)
    rep = kkt_check(problem, X_star, lam_star + 0.1, tol=1e-6)
    # unconstrained agents: each residual is exactly the perturbation
    assert rep.stationarity_max == pytest.approx(0.1, rel=1e-9)
    assert np.linalg.norm(rep.stationarity) == pytest.approx(0.1 * np.sqrt(2), rel=1e-9)
    assert not rep.passed


def test_kkt_balance_is_exact_norm():
    problem, X_star, lam_star = analytic_pair(0.5, -0.2, 0.1, 0.3)
    v = np.array([[0.3], [-0.1]])
    rep = kkt_check(problem, X_star + v, lam_star, tol=1e-6)
    assert rep.balance == pytest.approx(abs(v.sum()), rel=1e-12)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_matches_closed_form():
    problem, X_star, lam_star = analytic_pair(0.3, -0.7, 0.4, 0.1)
    boxed = ProblemSpec([
        AgentSpec(a.objective, LocalSet.box([-5.0], [5.0]), a.resource)
        for a in problem.agents
    ])
    ref = brute_force_tiny(boxed, grid_step=1e-3)
    assert np.abs(ref.X_star - X_star).max() < 1e-3
    assert abs(ref.lambda_star[0] - lam_star[0]) < 5e-3


def test_brute_force_binding_box():
    # agent 1 wants a large allocation but its box caps it at 0.5
    agents = [
        scalar_agent(1.0, -10.0, LocalSet.box([-0.5], [0.5]), 0.2),
        scalar_agent(1.0, 0.0, LocalSet.box([-5.0], [5.0]), 0.1),
    ]
    ref = brute_force_tiny(ProblemSpec(agents), grid_step=1e-3)
    assert ref.X_star[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_brute_force_requires_tiny_box_problem():
    problem = random_instance(0, 3, 1, set_kind="box")
    with pytest.raises(ValueError):
        brute_force_tiny(problem)
    problem2 = random_instance(0, 2, 1, set_kind="unconstrained")
    with pytest.raises(ValueError):
        brute_force_tiny(problem2)


def test_brute_force_agrees_with_dual_on_random_tiny_instances():
    hits = 0
    for seed in range(20):
        problem = random_instance(100 + seed, 2, 1, set_kind="box")
        sol = solve_dual(problem, tol=1e-9)
        ref = brute_force_tiny(problem, grid_step=1e-3)
        assert np.abs(sol.X_star - ref.X_star).max() < 2e-3
        hits += 1
    assert hits == 20


# ---------------------------------------------------------------------------
# set-up cost: the Lipschitz constants are computed once, when an objective is built


def count_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record the shape of every matrix it factors."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_stored_lipschitz_constants_are_exact():
    for problem in (random_instance(0, 40, 3, "box"), demand_response_instance(0)[0]):
        for a in problem.agents:
            assert a.objective.lipschitz() == 2 * np.linalg.eigvalsh(a.objective.Q)[-1]


@pytest.mark.parametrize("setting", ["box40", "demand_response"])
def test_solve_dual_factors_no_matrix(setting, monkeypatch):
    if setting == "box40":
        problem, tol = random_instance(0, 40, 3, "box"), 1e-8
    else:
        problem, tol = demand_response_instance(0)[0], 1e-9
    calls = count_eigvalsh(monkeypatch)
    assert solve_dual(problem, tol=tol).kkt.passed
    assert calls == []


def test_flow_factors_no_matrix(monkeypatch):
    problem, _ = demand_response_instance(0)
    model, _ = build_graph_pool(seed=12)
    mean_L = mean_laplacian(model)
    calls = count_eigvalsh(monkeypatch)
    flow(initial_state(problem), problem, mean_L, 1e-3, 20)
    assert calls == []


def hintless_problem():
    """Two scalar agents, the first with a custom objective and no Lipschitz hint."""
    custom = ObjectiveSpec.custom(lambda x: 2.0 * x, value_fn=lambda x: float(x @ x))
    agents = [AgentSpec(custom, LocalSet.box([-1.0], [1.0]), [0.2]),
              scalar_agent(1.0, 0.0, LocalSet.unconstrained(1), 0.1)]
    return ProblemSpec(agents)


def test_hintless_custom_objective_builds_and_runs_but_has_no_constant():
    problem = hintless_problem()
    model = GraphModel.fixed_pool([np.array([[0.0, 1.0], [1.0, 0.0]])])
    res = run_path(problem, model, NoiseConfig.noiseless(), StepSchedule.power(1.0, 0.6), 20, seed=1)
    assert np.isfinite(res.final_state.X).all()
    with pytest.raises(ValueError, match="custom objective without a Lipschitz hint"):
        solve_dual(problem)
    with pytest.raises(ValueError, match="custom objective without a Lipschitz hint"):
        flow(initial_state(problem), problem, mean_laplacian(model), 1e-3, 5)
