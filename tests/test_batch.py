"""Block draws and path batches: one K-step draw equals K single-step draws
for every channel kind, and a path's values do not depend on its batch."""

import numpy as np
import pytest

from netalloc import (
    DivergenceError,
    GaussianNoise,
    GraphModel,
    NoiseConfig,
    PathStream,
    ProblemSpec,
    ProjectionError,
    SampledQuadraticNoise,
    StepSchedule,
    build_graph_pool,
    demand_response_instance,
    experiments,
    monte_carlo,
    path_seed,
    random_instance,
    run_path,
    sample_graph,
)
from netalloc import engine, problem as problem_mod, projection
from netalloc.engine import (NetworkState, PathDraws, draw_step_noise, initial_state, iterate, mean_laplacian,
                             received_noise)
from netalloc.network import sample_graphs
from netalloc.projection import face_table, project_polyhedron_batch
from netalloc.streams import GRAPH

RING6 = np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1)


def graph_models():
    return [GraphModel.erdos_renyi_pool(6, 9, 0.2, 0.7, seed=2), GraphModel.gossip(6),
            GraphModel.gossip(2), GraphModel.broadcast(RING6)]


@pytest.mark.parametrize("model", graph_models(), ids=lambda m: f"{m.kind}-{m.n}")
def test_block_graph_draws_equal_single_draws(model):
    """Pool ids, gossip pairs and broadcast nodes: one K-step call gives the
    single-step calls' graphs, edge order included, and leaves the generator
    where they leave it."""
    block, single = np.random.default_rng(4), np.random.default_rng(4)
    draws = sample_graphs(model, block, 37)
    for k in range(37):
        g = sample_graph(model, single)
        sl = slice(draws.start[k], draws.start[k + 1])
        for name in ("dst", "src", "w"):
            np.testing.assert_array_equal(getattr(draws, name)[sl], getattr(g, name))
        if model.pooled:
            np.testing.assert_array_equal(model.laplacians[draws.ids[k]], g.laplacian)
    assert block.integers(0, 2**62) == single.integers(0, 2**62)


NOISES = {
    "gaussian": NoiseConfig(gradient=GaussianNoise(0.8), resource=GaussianNoise(1.0),
                            channel_lambda=GaussianNoise(1.2), channel_z=GaussianNoise(0.6)),
    "sampled_quadratic": NoiseConfig(gradient=SampledQuadraticNoise(0.7, 0.5),
                                     channel_z=GaussianNoise(0.9)),
    "lambda_only": NoiseConfig(channel_lambda=GaussianNoise(1.0)),
    "noiseless": NoiseConfig.noiseless(),
}


@pytest.mark.parametrize("noise", NOISES.values(), ids=list(NOISES))
@pytest.mark.parametrize("model", graph_models()[:2] + graph_models()[3:],
                         ids=("pool", "gossip", "broadcast"))
def test_block_noise_equals_single_step_draws(monkeypatch, model, noise):
    """Gaussian (K, n, m) blocks, the sampled-quadratic block, the per-edge
    normals and their received sums: each path's share of every step of a
    batch, over several blocks, equals that path's single-step draws."""
    monkeypatch.setattr(engine, "BLOCK_BYTES", 3 * 2**13)
    problem = random_instance(3, 6, 2, set_kind="box")
    X = np.random.default_rng(1).standard_normal((3, 6, 2))
    seeds = [11, 12, 13]
    batch = PathDraws(problem, model, noise, seeds, 41)
    assert 1 < batch.K < 41   # 41 is prime: the last block is shorter
    streams = [PathStream(s) for s in seeds]
    for _ in range(41):
        step = batch()
        for p, stream in enumerate(streams):
            graph = sample_graph(model, stream.channel(GRAPH))
            draws = draw_step_noise(noise, problem, X[p], stream, graph)
            if step.psi is not None:
                nu = 2.0 * np.einsum("nij,nj->ni", step.psi[p], X[p]) + step.theta[p]
            else:
                nu = None if step.nu is None else step.nu[p]
            for got, want in ((nu, draws.nu), (step.delta, draws.delta)):
                assert (got is None) == (want is None)
                if want is not None:
                    np.testing.assert_array_equal(got if got is nu else got[p], want)
            for got, want in zip((step.zrow, step.erow), received_noise(graph, draws)):
                np.testing.assert_array_equal(got if np.isscalar(got) else got[p], want)
            if model.pooled:
                np.testing.assert_array_equal(step.lap[p], graph.laplacian)
            else:
                path, dst, src, w = step.lap
                mine = path == p
                for got, want in ((dst, graph.dst), (src, graph.src), (w, graph.w)):
                    np.testing.assert_array_equal(got[mine], want)


# ---------------------------------------------------------------------------
# batch invariance


@pytest.fixture(scope="module")
def dr():
    problem, _ = demand_response_instance(0)
    model, _ = build_graph_pool(12)
    return problem, model, experiments.default_noise(), StepSchedule.power(1.0, 0.6)


def test_segmented_projection_equals_segments_alone(dr, monkeypatch):
    """Each segment of a stacked projection returns the bits of that segment
    projected alone, on recorded DR inputs with >= 2 violating rows per
    segment and on far-off points with a one-row segment.  A row of a GEMM
    Sv @ maps[0] can round differently with the number of rows in the call
    (with OpenBLAS 0.3.31 it changed its last bits in 780 of 800 trials,
    k = 1..40; a one-row product, a matrix-vector call, differs from the same
    row inside a larger product), so the kernel multiplies each row by its
    table on its own."""
    problem, model, noise, schedule = dr
    ((idxs, R, l, table),) = problem._poly_groups
    recorded = []

    def record(Y, *args):
        recorded.append(Y.copy())
        return project_polyhedron_batch(Y, *args)

    monkeypatch.setattr(problem_mod, "project_polyhedron_batch", record)
    run_path(problem, model, noise, schedule, 300, seed=5)
    monkeypatch.undo()
    S = np.einsum("npm,...nm->...np", R, np.concatenate(recorded)) - l
    many = [Y[0] for Y, s in zip(recorded, S) if ((s > 1e-12).any(axis=1).sum() >= 2)]
    assert len(many) >= 12
    for start, size in ((0, 2), (2, 3), (5, 4)):
        stack = np.stack(many[start:start + size])
        out = project_polyhedron_batch(stack, R, l, table)
        for seg, Y in zip(out, stack):
            np.testing.assert_array_equal(seg, project_polyhedron_batch(Y[None], R, l, table)[0])
            np.testing.assert_array_equal(seg, project_polyhedron_batch(Y, R, l, table))
    inside = np.array([problem.agents[i].local_set.interior_point for i in idxs])
    rng = np.random.default_rng(0)
    for _ in range(20):
        stack = np.stack([inside, inside + 20.0 * rng.standard_normal(inside.shape), inside])
        stack[0, rng.integers(0, len(idxs))] += 20.0 * rng.standard_normal(inside.shape[1])
        out = project_polyhedron_batch(stack, R, l, table)
        for seg, Y in zip(out, stack):
            np.testing.assert_array_equal(seg, project_polyhedron_batch(Y, R, l, table))


def test_monte_carlo_blocks_do_not_change_paths(dr):
    """Six DR paths under threads 1, 2 and 3 (one batch of six, two of three,
    three of two): identical traces and finals, each equal to run_path."""
    problem, model, noise, schedule = dr
    runs = {t: monte_carlo(problem, model, noise, schedule, 300, paths=6, master_seed=8, threads=t)
            for t in (1, 2, 3)}
    for p in range(6):
        solo = run_path(problem, model, noise, schedule, 300, seed=path_seed(8, p))
        for mc in runs.values():
            assert mc.finals[p] == (p, solo.final_metrics)
            for name, col in solo.trace.columns().items():
                np.testing.assert_array_equal(mc.traces[p][1].columns()[name], col)
    for mc in runs.values():
        assert mc.summary() == runs[1].summary()
        for name, col in runs[1].mean_trace.columns().items():
            np.testing.assert_array_equal(mc.mean_trace.columns()[name], col)


def test_path_diverging_mid_block_leaves_the_others_alone():
    """A path that diverges mid-block leaves the batch through the mask; the
    others finish bit for bit as alone, and it diverges where it does alone."""
    from netalloc import AgentSpec, DivergenceError, LocalSet, ObjectiveSpec, ProblemSpec

    def grad(x):
        return 2.0 * x if abs(x[0]) < 4.0 else np.full_like(x, np.inf)

    obj = ObjectiveSpec.custom(grad, lipschitz_hint=2.0)
    problem = ProblemSpec([AgentSpec(obj, LocalSet.unconstrained(2), [0.3, -0.2]) for _ in range(3)])
    model = GraphModel.gossip(3)
    noise = NoiseConfig(gradient=GaussianNoise(6.0))
    schedule = StepSchedule.power(0.5, 1.0)
    mc = monte_carlo(problem, model, noise, schedule, 60, paths=6, master_seed=2)
    assert mc.diverged and mc.finals
    assert all(0 < it < 60 for _, it in mc.diverged)
    for p, it in mc.diverged:
        with pytest.raises(DivergenceError) as err:
            run_path(problem, model, noise, schedule, 60, seed=path_seed(2, p))
        assert err.value.iteration == it
    for (p, trace), (_, final) in zip(mc.traces, mc.finals):
        solo = run_path(problem, model, noise, schedule, 60, seed=path_seed(2, p))
        assert final == solo.final_metrics
        np.testing.assert_array_equal(trace.state_norm, solo.trace.state_norm)


@pytest.mark.parametrize("block,value,set_kind", [("Z", np.nan, "box"), ("Lam", np.inf, "box"),
                                                   ("X", np.nan, "polyhedron")])
def test_a_non_finite_block_ends_only_its_path(block, value, set_kind):
    """The guard is one sum of squares over a path's three blocks.  Before
    step 7, a NaN or inf is put into one block of path 1 of a 3-path gossip
    batch, at an agent that step's edge leaves out, so that a NaN in Z or an
    inf in Lam stays in that block alone; a NaN allocation row passes the
    projection as NaN rather than failing its certificate.  The path ends
    with DivergenceError at counter 8, and paths 0 and 2 finish bit for bit
    as alone."""
    problem = random_instance(6, 6, 2, set_kind=set_kind)
    model = GraphModel.gossip(6)
    noise, schedule = NOISES["gaussian"], StepSchedule.power(1.0, 0.6)
    mean_L = mean_laplacian(model)
    seeds = [21, 22, 23]
    start = NetworkState.stack(initial_state(problem), 3)
    draws = PathDraws(problem, model, noise, seeds, 30)

    def inputs(state):
        step = draws(state)
        if state.k == 7:
            path, dst, src, _ = step.lap
            idle = np.setdiff1d(np.arange(6), np.concatenate((dst[path == 1], src[path == 1])))[0]
            getattr(state, block)[1, idle, 1] = value
        return step

    with np.errstate(invalid="ignore"):
        runs = iterate(start, problem, schedule, 30, inputs, mean_L, cadence=3)
    assert isinstance(runs[1].error, DivergenceError) and runs[1].iteration == 8
    assert runs[1].error.iteration == 8 and not np.isfinite(runs[1].error.norm)
    for p in (0, 2):
        alone = iterate(start.take([p]), problem, schedule, 30, PathDraws(problem, model, noise, [seeds[p]], 30),
                        mean_L, cadence=3)[0]
        assert runs[p].error is None and runs[p].rows == alone.rows
        for name in ("X", "Lam", "Z"):
            np.testing.assert_array_equal(getattr(runs[p].final, name), getattr(alone.final, name))


# ---------------------------------------------------------------------------
# rows already inside, fresh results


def test_rows_inside_keep_their_bits_and_skip_the_table(monkeypatch):
    """Every row goes through the stage; a row already inside comes out with
    its input bits, signed zeros included, next to a violating row that the
    table projects, and only that row reaches the table."""
    R = np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    l = np.array([0.0, 0.0, 2.0, 2.0])
    Y = np.array([[-0.0, -0.0], [-0.5, -0.0], [1.0, -0.5], [-1.25, 0.5]])
    Rs, ls = np.stack([R] * 4), np.stack([l] * 4)
    table_rows = []
    real = projection._table_faces

    def counted(Sv, Yv, Rv, lv, rows, *rest):
        table_rows.append(rows.tolist())
        return real(Sv, Yv, Rv, lv, rows, *rest)

    monkeypatch.setattr(projection, "_table_faces", counted)
    for stack in (Y, np.stack([Y, Y[::-1]])):
        X = project_polyhedron_batch(stack, Rs, ls, face_table(Rs))
        inside = ((np.einsum("npm,...nm->...np", Rs, stack) - ls) <= 0.0).all(axis=-1)
        assert inside.sum() == 3 * len(stack.reshape(-1, 4, 2))
        np.testing.assert_array_equal(X[inside].view(np.uint64), stack[inside].view(np.uint64))
        np.testing.assert_allclose(X[~inside], [[0.0, -0.5]] * int((~inside).sum()), atol=1e-15)
    assert table_rows == [[2], [2, 5]]


def mixed_problem():
    """Polyhedra, boxes and an unconstrained agent in one problem."""
    poly = random_instance(1, 3, 2, set_kind="polyhedron").agents
    box = random_instance(2, 2, 2, set_kind="box").agents
    free = random_instance(3, 2, 2, set_kind="unconstrained").agents
    return ProblemSpec([poly[0], box[0], poly[1], free[0], poly[2], box[1]])


@pytest.mark.parametrize("make", [lambda: demand_response_instance(0)[0], mixed_problem,
                                  lambda: random_instance(4, 5, 3, set_kind="box")],
                         ids=["one_polyhedral_group", "mixed", "boxes"])
def test_projections_return_fresh_arrays(make):
    """project_all and project_paths never hand back or alias the caller's
    array, whether every row is inside or some are moved."""
    problem = make()
    rng = np.random.default_rng(5)
    inside = problem.project_all(rng.standard_normal((problem.n, problem.m)))
    for Y in (inside, inside + 10.0 * rng.standard_normal(inside.shape)):
        keep = Y.copy()
        for out, arg in ((problem.project_all(Y), Y), (problem.project_paths(Y[None]), Y[None]),
                         (problem.project_paths(np.stack([Y, keep])), None)):
            assert out is not arg and not np.shares_memory(out, Y)
            out[...] = np.nan
            np.testing.assert_array_equal(Y, keep)


# ---------------------------------------------------------------------------
# per-path failures and fan-out


def test_projection_error_lists_its_rows(dr, monkeypatch):
    """A failed certificate names its rows: flat p * n + i in a stack, and
    the agent's row through project_paths, whose one polyhedral group hands
    the kernel the stack as it is."""
    problem, *_ = dr
    ((idxs, R, l, (maps, tid, codes)),) = problem._poly_groups
    Y = np.stack([[problem.agents[i].local_set.interior_point for i in idxs]] * 3)
    Y[1, 4] += 50.0
    Y[2, 0] += 50.0
    broken = (np.zeros_like(maps), tid, codes)
    with pytest.raises(ProjectionError) as err:
        project_polyhedron_batch(Y, R, l, broken)
    np.testing.assert_array_equal(err.value.rows, [14, 20])
    monkeypatch.setattr(problem, "_poly_groups", [(idxs, R, l, broken)])
    with pytest.raises(ProjectionError) as err:
        problem.project_paths(Y)
    np.testing.assert_array_equal(err.value.rows, [14, 20])
    with pytest.raises(ProjectionError) as err:
        problem.project_all(Y[2])
    np.testing.assert_array_equal(err.value.rows, [0])


def test_one_failing_path_is_marked_and_the_others_finish(dr, monkeypatch):
    """Path 1's projection is made to fail at step 40: the Monte Carlo run
    finishes, lists the failure with its kind and message, and the other
    paths equal their solo runs."""
    problem, model, noise, schedule = dr
    seeds = [path_seed(3, p) for p in range(4)]
    inputs = []

    def record(Y, *args):
        inputs.append(Y.copy())
        return project_polyhedron_batch(Y, *args)

    monkeypatch.setattr(problem_mod, "project_polyhedron_batch", record)
    run_path(problem, model, noise, schedule, 41, seed=seeds[1])
    marked = inputs[41][0]   # path 1's input at step 40 (call 0 is the initial state)

    def failing(Y, R, l, table):
        for p, seg in enumerate(Y):
            if np.array_equal(seg, marked):
                raise ProjectionError("forced failure", membership_violation=1.0, rows=np.array([p * len(seg)]))
        return project_polyhedron_batch(Y, R, l, table)

    monkeypatch.setattr(problem_mod, "project_polyhedron_batch", failing)
    mc = monte_carlo(problem, model, noise, schedule, 120, paths=4, master_seed=3)
    monkeypatch.undo()
    assert mc.failed == [(1, 41, "ProjectionError", "forced failure")]
    assert mc.summary()["failed"] == 1 and mc.summary()["diverged"] == 0
    assert [p for p, _ in mc.finals] == [0, 2, 3]
    for (p, trace), (_, final) in zip(mc.traces, mc.finals):
        solo = run_path(problem, model, noise, schedule, 120, seed=seeds[p])
        assert final == solo.final_metrics
        np.testing.assert_array_equal(trace.state_norm, solo.trace.state_norm)


def test_monte_carlo_hands_the_pool_one_job_per_block(dr, monkeypatch):
    problem, model, noise, schedule = dr
    jobs = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            jobs.extend(items)
            return map(fn, items)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Pool)
    mc = monte_carlo(problem, model, noise, schedule, 30, paths=6, master_seed=1, threads=2)
    assert len(jobs) == 2
    assert [job[5] for job in jobs] == [mc.path_seeds[:3], mc.path_seeds[3:]]
