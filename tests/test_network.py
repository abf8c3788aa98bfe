import numpy as np
import pytest

from netalloc import (
    GraphModel,
    algebraic_connectivity,
    laplacian,
    mean_laplacian,
    mean_laplacian_mc,
    sample_graph,
    validate_model,
)

K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
K2_LAP = np.array([[1.0, -1.0], [-1.0, 1.0]])
PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def test_laplacian_complete_pair():
    np.testing.assert_array_equal(laplacian(K2), K2_LAP)


def test_laplacian_empty_graph():
    np.testing.assert_array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))


def test_laplacian_path_spectrum():
    L = laplacian(PATH3)
    np.testing.assert_array_equal(np.diag(L), [1.0, 2.0, 1.0])
    np.testing.assert_allclose(np.linalg.eigvalsh(L), [0.0, 1.0, 3.0], atol=1e-12)


def test_laplacian_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        laplacian(np.eye(2))


# ---------------------------------------------------------------------------
# sampling


def test_fixed_pool_single_graph_always_drawn():
    model = GraphModel.fixed_pool([K2])
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = sample_graph(model, rng)
        np.testing.assert_array_equal(g.adjacency, K2)


def test_erdos_renyi_pool_adjacency_form():
    model = GraphModel.erdos_renyi_pool(10, 30, 0.05, 0.1, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = sample_graph(model, rng)
        A = g.adjacency
        assert np.abs(np.diag(A)).max() == 0.0
        assert set(np.unique(A)).issubset({0.0, 1.0})
        assert np.abs(g.laplacian.sum(axis=1)).max() == 0.0


def test_gossip_single_edge():
    model = GraphModel.gossip(3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = sample_graph(model, rng)
        assert g.adjacency.sum() == 2.0  # one symmetric pair
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        assert np.linalg.matrix_rank(g.laplacian) == 1


def test_edge_arrays_rebuild_dense_adjacency():
    """Each kind's edge arrays give back the dense adjacency of the draw, replayed
    from a twin generator, in the documented edge order, and leave the generator
    where the twin leaves it."""
    directed = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    star = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])

    def pool_draw(model, twin):
        A = model.graphs[int(twin.integers(0, model.graphs.shape[0]))]
        return A, np.nonzero(A)

    def gossip_draw(model, twin):
        i = int(twin.integers(0, model.n))
        j = int(twin.integers(0, model.n - 1))
        j += j >= i
        A = np.zeros((model.n, model.n))
        A[i, j] = A[j, i] = 1.0
        return A, ([i, j], [j, i])

    def broadcast_draw(model, twin):
        v = int(twin.integers(0, model.n))
        A = np.zeros((model.n, model.n))
        A[:, v] = model.base[v]
        dst = np.flatnonzero(model.base[v])
        return A, (dst, np.full(dst.size, v))

    cases = [
        (GraphModel.fixed_pool([directed, directed.T, np.zeros((3, 3))]), pool_draw),
        (GraphModel.erdos_renyi_pool(9, 12, 0.2, 0.6, seed=4), pool_draw),
        (GraphModel.gossip(6), gossip_draw),
        (GraphModel.broadcast(star), broadcast_draw),
    ]
    for model, draw in cases:
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(30):
            g = sample_graph(model, rng)
            A, (dst, src) = draw(model, twin)
            assert g.dst.shape == g.src.shape == g.w.shape == (np.count_nonzero(A),)
            np.testing.assert_array_equal(g.dst, dst)
            np.testing.assert_array_equal(g.src, src)
            np.testing.assert_array_equal(g.adjacency, A)
            np.testing.assert_array_equal(g.laplacian, laplacian(A))
        assert rng.integers(0, 2**62) == twin.integers(0, 2**62)


def test_mean_graph_edges_rebuild_its_adjacency():
    from netalloc import GraphSample

    L = mean_laplacian(GraphModel.erdos_renyi_pool(7, 10, 0.2, 0.6, seed=8))
    g = GraphSample.from_adjacency(np.diag(np.diag(L)) - L)
    np.testing.assert_array_equal(g.adjacency, np.diag(np.diag(L)) - L)
    np.testing.assert_allclose(g.laplacian, L, rtol=0.0, atol=1e-14)


def test_mean_laplacian_is_cached_and_read_only():
    model = GraphModel.gossip(5)
    L = mean_laplacian(model)
    assert mean_laplacian(model) is L
    with pytest.raises(ValueError):
        L[0, 0] = 1.0
    assert validate_model(model) is validate_model(model)


def test_sampled_laplacians_row_sums_and_diagonal():
    for model in (GraphModel.erdos_renyi_pool(8, 10, 0.2, 0.5, seed=0),
                  GraphModel.gossip(5),
                  GraphModel.broadcast(PATH3)):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = sample_graph(model, rng)
            assert np.abs(g.laplacian.sum(axis=1)).max() == 0.0
            assert np.diag(g.laplacian).min() >= 0.0


def test_broadcast_checks_its_base_as_an_adjacency():
    with pytest.raises(ValueError, match="adjacency must be square"):
        GraphModel.broadcast(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="adjacency must be square"):
        GraphModel.broadcast(np.zeros(3))
    with pytest.raises(ValueError, match="adjacency diagonal must be zero"):
        GraphModel.broadcast(PATH3 + np.eye(3))


def test_broadcast_sample_points_to_waker():
    model = GraphModel.broadcast(PATH3)
    rng = np.random.default_rng(4)
    g = sample_graph(model, rng)
    # exactly one column is populated: receivers hear the waking node
    cols = np.nonzero(g.adjacency.sum(axis=0))[0]
    assert cols.size == 1


# ---------------------------------------------------------------------------
# mean Laplacians


def test_mean_laplacian_two_graph_pool():
    model = GraphModel.fixed_pool([np.zeros((2, 2)), K2])
    np.testing.assert_allclose(mean_laplacian(model), 0.5 * K2_LAP)


def test_mean_laplacian_single_graph_pool():
    model = GraphModel.fixed_pool([PATH3])
    np.testing.assert_array_equal(mean_laplacian(model), laplacian(PATH3))


def test_mean_laplacian_gossip_closed_form():
    model = GraphModel.gossip(3)
    Lbar = mean_laplacian(model)
    off = Lbar[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / 3.0)
    np.testing.assert_allclose(Lbar.sum(axis=1), 0.0, atol=1e-15)


def test_mean_laplacian_broadcast_closed_form():
    model = GraphModel.broadcast(PATH3)
    np.testing.assert_allclose(mean_laplacian(model), laplacian(PATH3) / 3.0)


def test_mean_laplacian_mc_matches_exact_within_3se():
    ring3 = np.ones((3, 3)) - np.eye(3)
    model = GraphModel.fixed_pool([np.zeros((3, 3)), PATH3, ring3])
    est, se = mean_laplacian_mc(model, draws=100_000, seed=5)
    exact = mean_laplacian(model)
    gap = np.abs(est - exact)
    assert (gap <= 3.0 * se + 1e-12).all()


def _mean_laplacian_mc_dense(model, draws, seed):
    """The estimate from one dense Laplacian per draw of the per-step
    reference `sample_graph`."""
    from reference import sample_graph as reference_sample_graph

    rng = np.random.default_rng(seed)
    acc = np.zeros((model.n, model.n))
    acc2 = np.zeros((model.n, model.n))
    for _ in range(draws):
        L = reference_sample_graph(model, rng).laplacian
        acc += L
        acc2 += L * L
    mean = acc / draws
    return mean, np.sqrt(np.maximum(acc2 / draws - mean**2, 0.0) / draws)


@pytest.mark.parametrize("block_bytes", [None, 3 * 2**12], ids=["budget", "small-blocks"])
def test_mean_laplacian_mc_sums_the_dense_draws(monkeypatch, block_bytes):
    """Summed from each draw's edges, block by block, the estimate and its
    standard errors are the per-draw dense sums: bit for bit on 0/1 models,
    to roundoff on a weighted pool."""
    from netalloc import network

    if block_bytes is not None:
        monkeypatch.setattr(network, "BLOCK_BYTES", block_bytes)
    ring = np.roll(np.eye(40), 1, axis=1) + np.roll(np.eye(40), -1, axis=1)
    for model in (GraphModel.erdos_renyi_pool(10, 12, 0.2, 0.6, seed=6), GraphModel.gossip(8),
                  GraphModel.broadcast(ring)):
        got = mean_laplacian_mc(model, draws=1_500, seed=3)
        want = _mean_laplacian_mc_dense(model, 1_500, 3)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    rng = np.random.default_rng(7)
    weighted = [np.triu(rng.random((12, 12)) < 0.4, 1) * rng.uniform(0.1, 3.0, (12, 12))
                for _ in range(6)]
    model = GraphModel.fixed_pool([A + A.T for A in weighted])
    for a, b in zip(mean_laplacian_mc(model, draws=3_000, seed=4),
                    _mean_laplacian_mc_dense(model, 3_000, 4)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


def test_mean_laplacian_mc_memory_does_not_grow_with_draws():
    """On a pool of complete graphs, ten times the draws peak no higher: the
    draws are summed block by block, never held all at once."""
    import tracemalloc

    model = GraphModel.fixed_pool([np.ones((30, 30)) - np.eye(30)] * 3)
    mean_laplacian_mc(model, draws=10)  # first use: the model's edge table
    peaks = []
    for draws in (300, 3_000):
        tracemalloc.start()
        try:
            mean_laplacian_mc(model, draws=draws)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


# ---------------------------------------------------------------------------
# algebraic connectivity


def test_s2_complete_pair():
    assert algebraic_connectivity(K2_LAP) == pytest.approx(2.0)


def test_s2_zero_matrix():
    assert algebraic_connectivity(np.zeros((3, 3))) == pytest.approx(0.0)


def test_s2_path():
    assert algebraic_connectivity(laplacian(PATH3)) == pytest.approx(1.0)


def test_s2_rejects_asymmetric():
    with pytest.raises(ValueError):
        algebraic_connectivity(np.array([[1.0, 0.5], [-0.5, 1.0]]))


def test_s2_permutation_invariant():
    rng = np.random.default_rng(6)
    model = GraphModel.erdos_renyi_pool(8, 5, 0.4, 0.7, seed=11)
    L = mean_laplacian(model)
    s2 = algebraic_connectivity(L)
    for _ in range(5):
        perm = rng.permutation(8)
        P = np.eye(8)[perm]
        assert algebraic_connectivity(P @ L @ P.T) == pytest.approx(s2, abs=1e-9)


# ---------------------------------------------------------------------------
# model validation


def test_validate_connected_pool_passes():
    model = GraphModel.erdos_renyi_pool(10, 30, 0.05, 0.1, seed=12)
    report = validate_model(model)
    assert report.passed and report.method == "exact"


def test_validate_empty_pool_fails():
    model = GraphModel.fixed_pool([np.zeros((4, 4))])
    report = validate_model(model)
    assert not report.passed
    assert report.s2 == pytest.approx(0.0, abs=1e-12)


def test_validate_gossip_passes():
    report = validate_model(GraphModel.gossip(4))
    assert report.passed
    # closed form: s2 of (n I - 11')/C(n,2) is n/C(n,2)
    assert report.s2 == pytest.approx(4.0 / 6.0)


@pytest.mark.parametrize("n", [2, 3, 4, 50, 400])
def test_gossip_validation_in_closed_form_matches_the_dense_spectrum(n):
    report = validate_model(GraphModel.gossip(n))
    dense = algebraic_connectivity(mean_laplacian(GraphModel.gossip(n)))
    assert report.s2 == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert report.symmetry_defect == 0.0
    assert report.passed and report.method == "closed form"


def test_gossip_validation_at_ten_thousand_agents_builds_no_matrix(monkeypatch):
    import tracemalloc
    from time import perf_counter

    from netalloc import network

    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append("eigvalsh"))
    monkeypatch.setattr(network, "_mean_laplacian", lambda model: calls.append("mean_laplacian"))
    model = GraphModel.gossip(10_000)
    tracemalloc.start()
    try:
        report = validate_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and model._mean_L is None
    assert report.passed and report.s2 == 2.0 / 9_999
    assert peak <= 2**20
    start = perf_counter()
    validate_model(GraphModel.gossip(10_000))
    assert perf_counter() - start <= 0.01


def test_validate_directed_pool_with_symmetric_mean():
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    down = up.T
    report = validate_model(GraphModel.fixed_pool([up, down]))
    assert report.passed


def test_validate_asymmetric_mean_fails():
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = validate_model(GraphModel.fixed_pool([up]))
    assert not report.passed
    assert report.symmetry_defect > 1e-8


def test_model_json_roundtrip():
    from netalloc.network import model_from_json, model_to_json

    model = GraphModel.erdos_renyi_pool(6, 8, 0.2, 0.6, seed=3)
    doc = model_to_json(model)
    assert doc["kind"] == "erdos_renyi_pool" and doc["pool_size"] == 8
    back = model_from_json(doc)
    np.testing.assert_array_equal(back.graphs, model.graphs)
    np.testing.assert_allclose(mean_laplacian(back), mean_laplacian(model))

    goss = GraphModel.gossip(5)
    assert model_from_json(model_to_json(goss)).kind == "gossip"
    bc = GraphModel.broadcast(PATH3)
    np.testing.assert_array_equal(model_from_json(model_to_json(bc)).base, PATH3)


def test_build_graph_pool_failure():
    import pytest as _pytest

    from netalloc import GenerationError, build_graph_pool

    with _pytest.raises(GenerationError):
        build_graph_pool(0, n=10, pool_size=2, p_lo=0.0, p_hi=0.0, max_attempts=3)
