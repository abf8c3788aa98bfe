"""Statistical checks on the noise generators: zero mean, second moments,
the state-dependent envelope for sampled-coefficient gradient noise, the
conditional-mean (martingale difference) property, and stream independence
across paths."""

import numpy as np

from netalloc import (
    GaussianNoise,
    GraphModel,
    GraphSample,
    NoiseConfig,
    PathStream,
    SampledQuadraticNoise,
    path_seed,
    random_instance,
)
from netalloc.engine import draw_step_noise
from netalloc.streams import CHANNEL_LAMBDA, GRADIENT

N_SAMPLES = 100_000


def full_noise():
    return NoiseConfig(
        gradient=GaussianNoise(0.8),
        resource=GaussianNoise(1.0),
        channel_lambda=GaussianNoise(1.2),
        channel_z=GaussianNoise(0.6),
    )


def complete_graph(n):
    return GraphSample.from_adjacency(np.ones((n, n)) - np.eye(n))


def collect(noise, problem, steps, seed=0):
    """`steps` draws on the complete graph's n(n - 1) links."""
    stream = PathStream(seed)
    X = problem.project_all(np.zeros((problem.n, problem.m)))
    graph = complete_graph(problem.n)
    return [draw_step_noise(noise, problem, X, stream, graph) for _ in range(steps)]


def channel_steps(problem):
    """Steps giving each channel noise n * N_SAMPLES draws."""
    return N_SAMPLES // ((problem.n - 1) * problem.m)


def test_gaussian_channels_zero_mean_within_4se():
    problem = random_instance(0, 2, 2, set_kind="box")
    steps = channel_steps(problem)
    draws = collect(full_noise(), problem, steps, seed=1)
    for name, sigma in (("nu", 0.8), ("delta", 1.0)):
        samples = np.concatenate([getattr(d, name).ravel() for d in draws])
        se = sigma / np.sqrt(samples.size)
        assert abs(samples.mean()) < 4 * se
    zeta = np.concatenate([d.zeta.ravel() for d in draws])
    assert abs(zeta.mean()) < 4 * 1.2 / np.sqrt(zeta.size)
    eps = np.concatenate([d.eps.ravel() for d in draws])
    assert abs(eps.mean()) < 4 * 0.6 / np.sqrt(eps.size)


def test_per_edge_channel_draws_meet_criterion_7_bounds():
    """Channel noise drawn on gossip, broadcast and ER-pool samples, one row per
    edge: mean within 4 standard errors, second moment within 10 %."""
    from netalloc import sample_graph

    problem = random_instance(0, 6, 3, set_kind="box")
    ring = np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1)
    noise = full_noise()
    X = problem.project_all(np.zeros((problem.n, problem.m)))
    for seed, model in enumerate((GraphModel.gossip(6), GraphModel.broadcast(ring),
                                  GraphModel.erdos_renyi_pool(6, 10, 0.3, 0.7, seed=4)), 1):
        stream = PathStream(seed)
        graph_gen = stream.channel(0)
        acc, size = {"zeta": [], "eps": []}, 0
        while size < N_SAMPLES:
            g = sample_graph(model, graph_gen)
            d = draw_step_noise(noise, problem, X, stream, g)
            assert d.zeta.shape == d.eps.shape == (g.dst.size, problem.m)
            acc["zeta"].append(d.zeta.ravel())
            acc["eps"].append(d.eps.ravel())
            size += d.zeta.size
        for name, sigma in (("zeta", 1.2), ("eps", 0.6)):
            samples = np.concatenate(acc[name])
            assert abs(samples.mean()) < 4 * sigma / np.sqrt(samples.size), (model.kind, name)
            assert abs((samples**2).mean() - sigma**2) < 0.1 * sigma**2, (model.kind, name)


def test_second_moments_within_10_percent():
    problem = random_instance(0, 2, 2, set_kind="box")
    steps = channel_steps(problem)
    draws = collect(full_noise(), problem, steps, seed=2)
    for name, sigma in (("nu", 0.8), ("delta", 1.0), ("zeta", 1.2), ("eps", 0.6)):
        samples = np.concatenate([getattr(d, name).ravel() for d in draws])
        assert abs((samples**2).mean() - sigma**2) < 0.1 * sigma**2


def test_sampled_quadratic_zero_mean_and_envelope():
    """E||nu||^2 <= c (1 + ||x||^2) with c = max(4 m s_psi^2, m s_theta^2),
    checked at ||x|| in {0, 1, 10}."""
    problem = random_instance(1, 2, 3, set_kind="unconstrained")
    m = problem.m
    g = SampledQuadraticNoise(sigma_psi=np.sqrt(0.5), sigma_theta=np.sqrt(0.5))
    noise = NoiseConfig(gradient=g)
    c = noise.gradient_bound_constant(m)
    assert c == max(4 * m * g.sigma_psi**2, m * g.sigma_theta**2)
    reps = N_SAMPLES // problem.n
    for mag in (0.0, 1.0, 10.0):
        x = np.zeros(m)
        x[0] = mag
        X = np.tile(x, (problem.n, 1))
        stream = PathStream(int(mag) + 7)
        graph = complete_graph(problem.n)
        sq_norms = []
        means = []
        for _ in range(reps):
            d = draw_step_noise(noise, problem, X, stream, graph)
            sq_norms.append((d.nu**2).sum(axis=1))
            means.append(d.nu)
        sq = np.concatenate(sq_norms)
        mean_vec = np.mean(np.concatenate(means, axis=0), axis=0)
        assert sq.mean() <= c * (1.0 + mag**2)
        # zero mean at fixed state within 4 standard errors
        comp_sd = np.sqrt(4 * g.sigma_psi**2 * mag**2 + g.sigma_theta**2)
        assert np.abs(mean_vec).max() < 4 * comp_sd / np.sqrt(problem.n * reps)


def test_martingale_difference_no_state_dependence():
    """Regress gaussian-mode noise draws on the state norm along a real run;
    the slope must be statistically indistinguishable from zero."""
    from netalloc import initial_state, sample_graph
    from netalloc.engine import apply_step

    problem = random_instance(3, 3, 2, set_kind="box")
    model = GraphModel.erdos_renyi_pool(3, 10, 0.4, 0.8, seed=1)
    noise = full_noise()
    stream = PathStream(9)
    graph_gen = stream.channel(0)
    state = initial_state(problem)
    xs, ys = [], []
    for k in range(4000):
        graph = sample_graph(model, graph_gen)
        draws = draw_step_noise(noise, problem, state.X, stream, graph)
        xs.append(state.norm())
        ys.append(float(draws.nu.ravel()[0]))
        state = apply_step(state, problem, graph, draws, 1.0 / (k + 1) ** 0.6)
    x = np.array(xs)
    y = np.array(ys)
    xc = x - x.mean()
    slope = float(xc @ y / (xc @ xc))
    resid = y - y.mean() - slope * xc
    se = np.sqrt(resid @ resid / (len(y) - 2) / (xc @ xc))
    assert abs(slope) < 4 * se


def test_path_streams_uncorrelated():
    s0 = PathStream(path_seed(17, 0)).channel(GRADIENT).standard_normal(1000)
    for p in range(1, 6):
        sp = PathStream(path_seed(17, p)).channel(GRADIENT).standard_normal(1000)
        corr = np.corrcoef(s0, sp)[0, 1]
        assert abs(corr) < 0.05


def test_channel_streams_within_path_uncorrelated():
    stream = PathStream(path_seed(6, 0))
    a = stream.channel(GRADIENT).standard_normal(1000)
    b = stream.channel(CHANNEL_LAMBDA).standard_normal(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_aggregate_noise_zero_mean():
    """The stacked effective-noise diagnostic has zero mean over fresh draws."""
    from netalloc import GraphModel, aggregate_noise, mean_laplacian, sample_graph
    from netalloc.engine import NetworkState

    problem = random_instance(5, 4, 2, set_kind="box")
    model = GraphModel.erdos_renyi_pool(4, 20, 0.3, 0.7, seed=2)
    mean_L = mean_laplacian(model)
    rng_state = np.random.default_rng(0)
    state = NetworkState(
        X=problem.project_all(rng_state.standard_normal((4, 2))),
        Lam=rng_state.standard_normal((4, 2)),
        Z=rng_state.standard_normal((4, 2)),
    )
    noise = full_noise()
    stream = PathStream(1)
    graph_gen = stream.channel(0)
    reps = 20_000
    sums = np.empty((reps, 3))  # per rep, the sum of each block
    for r in range(reps):
        graph = sample_graph(model, graph_gen)
        draws = draw_step_noise(noise, problem, state.X, stream, graph)
        xi_x, xi_lam, xi_z = aggregate_noise(state, problem, graph, draws, mean_L)
        sums[r] = xi_x.sum(), xi_lam.sum(), xi_z.sum()
    mean = sums.mean(axis=0)
    standard_error = sums.std(axis=0, ddof=1) / np.sqrt(reps)
    assert (np.abs(mean) < 4 * standard_error).all(), (mean, standard_error)
