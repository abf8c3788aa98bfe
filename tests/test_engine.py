import numpy as np
import pytest

from netalloc import (
    AgentSpec,
    DivergenceError,
    GaussianNoise,
    GraphModel,
    GraphSample,
    LocalSet,
    NetworkState,
    NoiseConfig,
    ObjectiveSpec,
    PathStream,
    ProblemSpec,
    StepSchedule,
    apply_step,
    initial_state,
    monte_carlo,
    path_seed,
    run_path,
    step_size,
)
from netalloc.engine import StepNoise, draw_step_noise


def tiny_problem(n=2, m=1, kind="unconstrained", seed=0):
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(n):
        Q = np.diag(rng.uniform(0.5, 2.0, m))
        c = rng.uniform(-1, 1, m)
        if kind == "unconstrained":
            ls = LocalSet.unconstrained(m)
        else:
            ls = LocalSet.box(-3 * np.ones(m), 3 * np.ones(m))
        agents.append(AgentSpec(ObjectiveSpec.quadratic(Q, c), ls, rng.uniform(-1, 1, m)))
    return ProblemSpec(agents)


def ring_model(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return GraphModel.fixed_pool([A])


# ---------------------------------------------------------------------------
# schedules


def test_power_schedule_values():
    s = StepSchedule.power(1.0, 0.6)
    assert step_size(s, 0) == pytest.approx(1.0)
    assert step_size(s, 999) == pytest.approx(1000.0 ** -0.6)


def test_constant_schedule():
    s = StepSchedule.constant(0.01)
    assert step_size(s, 0) == step_size(s, 12345) == 0.01
    assert not s.convergent


def test_power_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.power(1.0, 0.5)
    with pytest.raises(ValueError):
        StepSchedule.power(1.0, 1.5)
    with pytest.raises(ValueError):
        StepSchedule.power(-1.0, 0.6)
    assert StepSchedule.power(2.0, 1.0).convergent


def test_step_size_rejects_negative_k():
    with pytest.raises(ValueError):
        step_size(StepSchedule.power(1.0, 0.6), -1)


# ---------------------------------------------------------------------------
# single steps


def test_pointwise_fixed_point_on_empty_graph():
    problem = tiny_problem(3, 2, kind="box", seed=1)
    X = problem.D.copy()  # x_i = d_i
    Lam = problem.grad_all(X)  # lam_i = grad f_i(x_i)
    state = NetworkState(X=X, Lam=Lam.copy(), Z=np.zeros_like(X), k=0)
    graph = GraphSample.from_adjacency(np.zeros((3, 3)))
    nxt = apply_step(state, problem, graph, StepNoise(), alpha=0.7)
    np.testing.assert_allclose(nxt.X, state.X, atol=1e-14)
    np.testing.assert_allclose(nxt.Lam, state.Lam, atol=1e-14)
    np.testing.assert_allclose(nxt.Z, state.Z, atol=1e-14)
    assert nxt.k == 1


def test_one_step_matches_hand_computation():
    # two agents, one dimension, fixed noise draws, complete graph
    Q1, c1, d1 = 1.0, 0.5, 0.2
    Q2, c2, d2 = 2.0, -1.0, -0.4
    agents = [
        AgentSpec(ObjectiveSpec.quadratic([[Q1]], [c1]), LocalSet.box([-1.0], [1.0]), [d1]),
        AgentSpec(ObjectiveSpec.quadratic([[Q2]], [c2]), LocalSet.box([-1.0], [1.0]), [d2]),
    ]
    problem = ProblemSpec(agents)
    x = np.array([[0.3], [-0.2]])
    lam = np.array([[0.1], [0.4]])
    z = np.array([[-0.3], [0.2]])
    state = NetworkState(X=x.copy(), Lam=lam.copy(), Z=z.copy(), k=5)
    graph = GraphSample.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    alpha = 0.25
    nu = np.array([[0.05], [-0.02]])
    delta = np.array([[0.01], [0.03]])
    # per edge, in the graph's order: 0 hears 1, then 1 hears 0
    zeta = np.array([[0.07], [-0.04]])
    eps = np.array([[-0.06], [0.02]])
    draws = StepNoise(nu=nu, delta=delta, zeta=zeta, eps=eps)
    nxt = apply_step(state, problem, graph, draws, alpha)

    # hand evaluation of the three per-agent update lines
    def clamp(v):
        return min(1.0, max(-1.0, v))

    g1 = 2 * Q1 * 0.3 + c1
    g2 = 2 * Q2 * (-0.2) + c2
    x1 = clamp(0.3 + alpha * (-(g1 + 0.05) + 0.1))
    x2 = clamp(-0.2 + alpha * (-(g2 - 0.02) + 0.4))
    l1 = 0.1 + alpha * ((d1 + 0.01) - 0.3 - (0.1 - (0.4 + 0.07)) - (-0.3 - (0.2 - 0.06)))
    l2 = 0.4 + alpha * ((d2 + 0.03) - (-0.2) - (0.4 - (0.1 - 0.04)) - (0.2 - (-0.3 + 0.02)))
    z1 = -0.3 + alpha * (0.1 - (0.4 + 0.07))
    z2 = 0.2 + alpha * (0.4 - (0.1 - 0.04))
    np.testing.assert_allclose(nxt.X.ravel(), [x1, x2], atol=1e-14)
    np.testing.assert_allclose(nxt.Lam.ravel(), [l1, l2], atol=1e-14)
    np.testing.assert_allclose(nxt.Z.ravel(), [z1, z2], atol=1e-14)


def test_feasibility_after_every_step():
    problem = tiny_problem(3, 2, kind="box", seed=3)
    model = ring_model(3)
    noise = NoiseConfig(gradient=GaussianNoise(2.0), resource=GaussianNoise(2.0),
                        channel_lambda=GaussianNoise(2.0), channel_z=GaussianNoise(2.0))
    res = run_path(problem, model, noise, StepSchedule.power(1.0, 0.6), 200, seed=4)
    assert problem.membership_violations(res.final_state.X).max() <= 1e-9


def test_shared_channel_noise_conservation():
    """Noiseless-z bookkeeping: with an undirected draw, sum_i z_i is conserved
    exactly, and sum_i (lam_i + z_i) moves by alpha * sum_i (d_i - x_i)."""
    problem = tiny_problem(4, 2, kind="box", seed=5)
    model = ring_model(4)
    stream = PathStream(11)
    state = initial_state(problem)
    graph = GraphSample.from_adjacency(model.graphs[0])
    noise = NoiseConfig.noiseless()
    for k in range(200):
        alpha = step_size(StepSchedule.power(1.0, 0.6), k)
        nxt = apply_step(state, problem, graph,
                         draw_step_noise(noise, problem, state.X, stream, graph), alpha)
        assert np.abs(nxt.Z.sum(axis=0) - state.Z.sum(axis=0)).max() < 1e-12
        lhs = (nxt.Lam + nxt.Z).sum(axis=0) - (state.Lam + state.Z).sum(axis=0)
        rhs = alpha * (problem.D - state.X).sum(axis=0)
        assert np.abs(lhs - rhs).max() < 1e-12
        state = nxt


# ---------------------------------------------------------------------------
# paths


def test_run_path_rejects_zero_iterations():
    problem = tiny_problem()
    with pytest.raises(ValueError):
        run_path(problem, ring_model(2), NoiseConfig.noiseless(),
                 StepSchedule.power(1.0, 0.6), 0, seed=0)


def test_run_path_deterministic():
    problem = tiny_problem(3, 2, kind="box", seed=6)
    model = ring_model(3)
    noise = NoiseConfig(gradient=GaussianNoise(1.0), resource=GaussianNoise(1.0),
                        channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0))
    a = run_path(problem, model, noise, StepSchedule.power(1.0, 0.6), 500, seed=7)
    b = run_path(problem, model, noise, StepSchedule.power(1.0, 0.6), 500, seed=7)
    np.testing.assert_array_equal(a.trace.balance, b.trace.balance)
    np.testing.assert_array_equal(a.final_state.X, b.final_state.X)
    np.testing.assert_array_equal(a.final_state.Z, b.final_state.Z)


def test_trace_record_count_and_grid():
    problem = tiny_problem()
    model = ring_model(2)
    res = run_path(problem, model, NoiseConfig.noiseless(),
                   StepSchedule.power(1.0, 0.6), 95, seed=1, cadence=10)
    assert len(res.trace) == int(np.ceil(95 / 10))
    np.testing.assert_array_equal(res.trace.k, np.arange(0, 95, 10))
    assert res.trace.dist is None  # no reference supplied


def test_divergence_guard():
    problem = tiny_problem(3, 1, kind="unconstrained", seed=8)
    model = ring_model(3)
    with pytest.raises(DivergenceError) as err:
        run_path(problem, model, NoiseConfig.noiseless(),
                 StepSchedule.constant(50.0), 5000, seed=0)
    assert err.value.iteration >= 1

    # a NaN gradient must trip the guard too, not run on with a NaN state
    from netalloc import flow, mean_laplacian

    nan_obj = ObjectiveSpec.custom(lambda x: np.full_like(x, np.nan), lipschitz_hint=1.0)
    agents = [AgentSpec(nan_obj, LocalSet.unconstrained(1), [0.0]) for _ in range(3)]
    nan_problem = ProblemSpec(agents)
    sched = StepSchedule.power(1.0, 0.6)
    with pytest.raises(DivergenceError) as err:
        run_path(nan_problem, model, NoiseConfig.noiseless(), sched, 50, seed=0)
    assert err.value.iteration == 1 and np.isnan(err.value.norm)
    mc = monte_carlo(nan_problem, model, NoiseConfig.noiseless(), sched, 50, paths=2,
                     master_seed=0)
    assert mc.diverged == [(0, 1), (1, 1)] and mc.mean_trace is None
    with pytest.raises(DivergenceError):
        flow(initial_state(nan_problem), nan_problem, mean_laplacian(model), h=1e-3, steps=10)


def test_run_path_noiseless_converges_toward_oracle():
    from netalloc import solve_dual

    problem = tiny_problem(4, 2, kind="box", seed=9)
    model = ring_model(4)
    sol = solve_dual(problem, tol=1e-9)
    res = run_path(problem, model, NoiseConfig.noiseless(),
                   StepSchedule.power(1.0, 0.6), 3000, seed=0, reference=sol.X_star)
    assert res.final_metrics["dist"] < 0.3 * res.trace.dist[0]


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_single_path_equals_run_path():
    problem = tiny_problem(3, 2, kind="box", seed=10)
    model = ring_model(3)
    noise = NoiseConfig(gradient=GaussianNoise(0.5), resource=GaussianNoise(0.5),
                        channel_lambda=GaussianNoise(0.5), channel_z=GaussianNoise(0.5))
    sched = StepSchedule.power(1.0, 0.6)
    mc = monte_carlo(problem, model, noise, sched, 300, paths=1, master_seed=21)
    solo = run_path(problem, model, noise, sched, 300, seed=path_seed(21, 0))
    np.testing.assert_array_equal(mc.mean_trace.balance, solo.trace.balance)
    np.testing.assert_array_equal(mc.mean_trace.consensus, solo.trace.consensus)


def test_monte_carlo_mean_is_mean_of_paths():
    problem = tiny_problem(3, 1, kind="box", seed=11)
    model = ring_model(3)
    noise = NoiseConfig(gradient=GaussianNoise(0.5), resource=GaussianNoise(0.5),
                        channel_lambda=GaussianNoise(0.5), channel_z=GaussianNoise(0.5))
    sched = StepSchedule.power(1.0, 0.6)
    mc = monte_carlo(problem, model, noise, sched, 200, paths=5, master_seed=2)
    stack = np.stack([t.balance for _, t in mc.traces], axis=0)
    np.testing.assert_allclose(mc.mean_trace.balance, stack.mean(axis=0), atol=1e-12)


def test_monte_carlo_thread_invariance():
    problem = tiny_problem(3, 2, kind="box", seed=12)
    model = ring_model(3)
    noise = NoiseConfig(gradient=GaussianNoise(1.0), resource=GaussianNoise(1.0),
                        channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0))
    sched = StepSchedule.power(1.0, 0.6)
    a = monte_carlo(problem, model, noise, sched, 200, paths=4, master_seed=3, threads=1)
    b = monte_carlo(problem, model, noise, sched, 200, paths=4, master_seed=3, threads=2)
    np.testing.assert_array_equal(a.mean_trace.balance, b.mean_trace.balance)
    np.testing.assert_array_equal(a.mean_trace.state_norm, b.mean_trace.state_norm)
    assert a.summary() == b.summary()


def test_monte_carlo_needs_at_least_one_thread():
    problem = tiny_problem(3, 1, kind="box", seed=12)
    model = ring_model(3)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            monte_carlo(problem, model, NoiseConfig.noiseless(), StepSchedule.constant(0.1), 10,
                        paths=2, master_seed=3, threads=threads)


def test_monte_carlo_records_diverged_paths():
    problem = tiny_problem(3, 1, kind="unconstrained", seed=13)
    model = ring_model(3)
    mc = monte_carlo(problem, model, NoiseConfig.noiseless(),
                     StepSchedule.constant(50.0), 5000, paths=3, master_seed=4)
    assert len(mc.diverged) == 3
    assert mc.summary()["diverged"] == 3
    assert mc.mean_trace is None


def test_watch_records_allocations():
    problem = tiny_problem(3, 2, kind="box", seed=14)
    model = ring_model(3)
    res = run_path(problem, model, NoiseConfig.noiseless(),
                   StepSchedule.power(1.0, 0.6), 100, seed=5, watch=[(0, 0), (2, 1)])
    assert res.watched.shape == (10, 2)


# ---------------------------------------------------------------------------
# noise draws


def test_disabled_channels_draw_nothing():
    problem = tiny_problem(2, 2, kind="box", seed=15)
    graph = GraphSample.from_adjacency(ring_model(2).graphs[0])
    draws = draw_step_noise(NoiseConfig.noiseless(), problem, problem.D, PathStream(0), graph)
    assert draws.nu is None and draws.delta is None
    assert draws.zeta is None and draws.eps is None


def test_channel_independence():
    """Turning one channel off must not shift another channel's draws."""
    problem = tiny_problem(2, 2, kind="box", seed=16)
    full = NoiseConfig(gradient=GaussianNoise(1.0), resource=GaussianNoise(1.0),
                       channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0))
    part = NoiseConfig(resource=GaussianNoise(1.0))
    graph = GraphSample.from_adjacency(ring_model(2).graphs[0])
    d1 = draw_step_noise(full, problem, problem.D, PathStream(42), graph)
    d2 = draw_step_noise(part, problem, problem.D, PathStream(42), graph)
    np.testing.assert_array_equal(d1.delta, d2.delta)


def test_edge_scatter_matches_dense_products():
    """The edge path (one bincount for L @ Lam, L @ Z and the received noise)
    agrees with the dense update lines, the Laplacian products and the
    dense einsum sum_j a_ij zeta_ij over the per-edge draws laid out as
    (n, n, m) arrays, to roundoff."""
    from netalloc import laplacian, random_instance

    problem = random_instance(4, 7, 2, set_kind="box")
    noise = NoiseConfig(channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0))
    rng = np.random.default_rng(9)
    state = NetworkState(X=problem.project_all(rng.standard_normal((7, 2))),
                         Lam=rng.standard_normal((7, 2)), Z=rng.standard_normal((7, 2)))
    X, Lam, Z, alpha = state.X, state.Lam, state.Z, 0.2
    for seed, p in enumerate((0.3, 0.6, 1.0)):
        A = np.triu(rng.random((7, 7)) < p, 1) * rng.uniform(0.5, 2.0, (7, 7))
        A = A + A.T
        L = laplacian(A)
        graph = GraphSample.from_adjacency(A)
        draws = draw_step_noise(noise, problem, X, PathStream(seed), graph)
        nxt = apply_step(state, problem, graph, draws, alpha)
        zeta, eps = np.zeros((2, 7, 7, 2))
        zeta[graph.dst, graph.src], eps[graph.dst, graph.src] = draws.zeta, draws.eps
        zrow = np.einsum("ij,ijm->im", A, zeta)
        erow = np.einsum("ij,ijm->im", A, eps)
        want = (problem.project_all(X + alpha * (Lam - problem.grad_all(X))),
                Lam + alpha * (problem.D - X - L @ Lam - L @ Z + zrow + erow),
                Z + alpha * (L @ Lam - zrow))
        for got, dense in zip((nxt.X, nxt.Lam, nxt.Z), want):
            np.testing.assert_allclose(got, dense, rtol=1e-13, atol=1e-13)


def test_gossip_step_does_no_n_by_n_work():
    """One gossip step at n = 2000 (graph draw, per-edge noise, update) peaks far
    below one n x n array: all-pairs channel draws would take 96 MB each."""
    import tracemalloc

    from netalloc import random_instance, sample_graph

    problem = random_instance(0, 2000, 3, set_kind="box")
    model = GraphModel.gossip(2000)
    noise = NoiseConfig(gradient=GaussianNoise(1.0), resource=GaussianNoise(1.0),
                        channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0))
    stream = PathStream(1)
    graph_gen = stream.channel(0)

    def step(state):
        graph = sample_graph(model, graph_gen)
        return apply_step(state, problem, graph,
                          draw_step_noise(noise, problem, state.X, stream, graph), 0.5)

    state = step(initial_state(problem))  # first use: imports, generator set-up
    tracemalloc.start()
    try:
        step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"gossip step peaked at {peak} bytes"


def test_run_path_validates_each_model_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    problem = tiny_problem(4, 2, kind="box", seed=21)
    model = ring_model(4)  # a pool factors its mean Laplacian; gossip is validated in closed form
    schedule = StepSchedule.power(1.0, 0.6)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    run_path(problem, model, NoiseConfig.noiseless(), schedule, 20, seed=1)
    run_path(problem, model, NoiseConfig.noiseless(), schedule, 20, seed=2)
    assert calls == [(4, 4)]


def test_importing_netalloc_leaves_the_process_pool_unloaded():
    """The process pool is imported only when `monte_carlo` starts one."""
    import os
    import subprocess
    import sys

    import netalloc

    src = os.path.dirname(os.path.dirname(netalloc.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, netalloc; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]


def test_trace_csv_roundtrip(tmp_path):
    from netalloc import read_csv, write_csv

    problem = tiny_problem(3, 2, kind="box", seed=20)
    model = ring_model(3)
    res = run_path(problem, model, NoiseConfig.noiseless(),
                   StepSchedule.power(1.0, 0.6), 80, seed=6)
    path = tmp_path / "trace.csv"
    write_csv(res.trace, path)
    back = read_csv(path)
    np.testing.assert_array_equal(back.k, res.trace.k)
    np.testing.assert_array_equal(back.balance, res.trace.balance)
    assert back.dist is None
    # writing again reproduces identical bytes
    path2 = tmp_path / "again.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()
