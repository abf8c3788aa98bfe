"""Random communication graph models and mean-Laplacian analysis.

Per-step graphs may be directed; only the mean Laplacian must be symmetric
with positive algebraic connectivity for the allocation dynamics to mix.
Sampled adjacencies are 0/1 with zero diagonal; weighted adjacencies are
accepted for diagnostics (e.g. stepping the recursion with the mean graph).
A drawn graph is only its directed edges, so a gossip or broadcast step
touches its own links only and never builds an n x n matrix.  Dense
Laplacians exist only where a step multiplies them: a pool's member stack
`GraphModel.laplacians` and the mean Laplacian.  Graphs are drawn a block
of steps per call by `sample_graphs`; `sample_graph` is that draw for one
step.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# draws made a block of K steps per call keep one block's arrays within this
# many bytes (`engine.block_steps`, `mean_laplacian_mc`)
BLOCK_BYTES = 2 * 2**20


def _adjacency(adjacency) -> np.ndarray:
    A = np.asarray(adjacency, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency must be square")
    if np.abs(np.diag(A)).max(initial=0.0) != 0.0:
        raise ValueError("adjacency diagonal must be zero")
    return A


def laplacian(adjacency) -> np.ndarray:
    """Graph Laplacian: degree matrix minus adjacency. Rows sum to zero."""
    A = _adjacency(adjacency)
    return np.diag(A.sum(axis=1)) - A


@dataclass
class GraphSample:
    """One drawn communication graph as directed edges: dst[e] hears src[e]
    with weight w[e].

    The edge order is the order in which per-link channel noise is drawn.
    The edges are all a sample holds: `adjacency` and `laplacian` build the
    dense matrices on demand.
    """

    n: int
    dst: np.ndarray
    src: np.ndarray
    w: np.ndarray

    @classmethod
    def from_adjacency(cls, adjacency):
        """The edges of a square, zero-diagonal adjacency, in row-major order."""
        A = _adjacency(adjacency)
        dst, src = np.nonzero(A)
        return cls(n=A.shape[0], dst=dst, src=src, w=A[dst, src])

    @property
    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[self.dst, self.src] = self.w
        return A

    @property
    def laplacian(self) -> np.ndarray:
        return laplacian(self.adjacency)

    def scatter(self, *cols):
        """Weighted sums onto the receivers: each (E, m) block becomes the
        (n, m) array sum over edges e into i of w[e] * col[e], all in one
        np.bincount binned block by block, so each sum is C-contiguous.  A
        None block gives 0.0."""
        live = [c for c in cols if c is not None]
        if not live:
            return (0.0,) * len(cols)
        k, m = len(live), live[0].shape[1]
        vals = np.concatenate(live, axis=1) * self.w[:, None]
        # column j of block c of edge e goes to bin (c, dst[e], j)
        offsets = (np.arange(k)[:, None] * (self.n * m) + np.arange(m)).ravel()
        idx = (self.dst[:, None] * m + offsets).ravel()
        # astype: with no edges, bincount returns integers
        out = np.bincount(idx, vals.ravel(), minlength=k * self.n * m).astype(float, copy=False)
        sums = iter(out.reshape(k, self.n, m))
        return tuple(0.0 if c is None else next(sums) for c in cols)


@dataclass
class GraphModel:
    """A distribution over communication graphs, drawn i.i.d. across steps.

    Kinds
    -----
    fixed_pool:       uniform draw from a given list of adjacency matrices
                      (directed entries allowed).
    erdos_renyi_pool: a pool of `pool_size` undirected G(n, p) graphs,
                      materialized once at construction with p drawn
                      uniformly from [p_lo, p_hi] per graph; sampling then
                      draws uniformly from the pool.
    gossip:           a single uniformly random undirected edge per step.
    broadcast:        a single uniformly random node wakes and is heard by
                      its neighbors in a base graph.

    Pools keep their members' adjacencies `graphs` and Laplacians
    `laplacians`, the stack a batch of paths multiplies.  The edge table
    `sample_graphs` gathers from, the exact mean Laplacian and the
    validation report are computed once, on first use, and kept in the
    model: a model is not to be changed after it has been used.
    """

    kind: str
    n: int
    graphs: Optional[np.ndarray] = field(default=None, repr=False)  # (pool, n, n)
    laplacians: Optional[np.ndarray] = field(default=None, repr=False)
    base: Optional[np.ndarray] = field(default=None, repr=False)
    p_lo: Optional[float] = None
    p_hi: Optional[float] = None
    pool_size: Optional[int] = None
    _members: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)
    _mean_L: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)
    _report: Optional["ValidationReport"] = field(default=None, init=False, compare=False,
                                                  repr=False)

    @property
    def pooled(self):
        """True for the pool kinds, which keep their members' dense Laplacians."""
        return self.kind in ("fixed_pool", "erdos_renyi_pool")

    @classmethod
    def fixed_pool(cls, graphs):
        graphs = np.array([np.asarray(g, dtype=float) for g in graphs])
        if graphs.ndim != 3 or graphs.shape[1] != graphs.shape[2]:
            raise ValueError("fixed_pool needs a list of square adjacency matrices")
        for g in graphs:
            if np.abs(np.diag(g)).max(initial=0.0) != 0.0:
                raise ValueError("adjacency diagonal must be zero")
        laps = np.array([laplacian(g) for g in graphs])
        return cls(kind="fixed_pool", n=graphs.shape[1], graphs=graphs, laplacians=laps,
                   pool_size=graphs.shape[0])

    @classmethod
    def erdos_renyi_pool(cls, n, pool_size, p_lo, p_hi, seed):
        if not (0.0 <= p_lo <= p_hi <= 1.0):
            raise ValueError("need 0 <= p_lo <= p_hi <= 1")
        rng = np.random.default_rng(seed)
        graphs = np.empty((pool_size, n, n))
        for k in range(pool_size):
            p = rng.uniform(p_lo, p_hi)
            A = (rng.random((n, n)) < p).astype(float)
            A = np.triu(A, 1)
            graphs[k] = A + A.T
        laps = np.array([laplacian(g) for g in graphs])
        return cls(kind="erdos_renyi_pool", n=n, graphs=graphs, laplacians=laps,
                   p_lo=float(p_lo), p_hi=float(p_hi), pool_size=int(pool_size))

    @classmethod
    def gossip(cls, n):
        if n < 2:
            raise ValueError("gossip needs n >= 2")
        return cls(kind="gossip", n=int(n))

    @classmethod
    def broadcast(cls, base):
        base = _adjacency(base)
        if np.abs(base - base.T).max() > 0:
            raise ValueError("broadcast base graph must be undirected")
        return cls(kind="broadcast", n=base.shape[0], base=base)


@dataclass
class GraphDraws:
    """Consecutive graph draws of one path: step k's edges are
    dst/src/w[start[k]:start[k + 1]] in `sample_graphs`' edge order, and
    ids[k] is the pool member (or broadcasting node) drawn, None for gossip."""

    ids: Optional[np.ndarray]
    start: np.ndarray
    dst: np.ndarray
    src: np.ndarray
    w: np.ndarray


def _member_edges(model: GraphModel):
    """(start, dst, src, w): the edges of every pool member, or of every
    node's broadcast, one after another; member g's are [start[g], start[g + 1])."""
    if model._members is None:
        if model.pooled:
            g, dst, src = np.nonzero(model.graphs)
            w = model.graphs[g, dst, src]
        else:  # node g broadcasts: its neighbors hear it
            g, dst = np.nonzero(model.base)
            src, w = g, model.base[g, dst]
        start = np.searchsorted(g, np.arange(len(model.graphs) if model.pooled else model.n) + 1)
        model._members = (np.r_[0, start], dst, src, w)
    return model._members


def max_edges(model: GraphModel) -> int:
    """The most directed edges one draw of the model can have."""
    if model.kind == "gossip":
        return 2
    return int(np.diff(_member_edges(model)[0]).max(initial=0))


def sample_graphs(model: GraphModel, rng, steps) -> GraphDraws:
    """`steps` consecutive i.i.d. draws from the model, consuming `rng`
    deterministically: one integer per step, two for gossip, so a call for
    K steps leaves `rng` where K calls for one step leave it.

    Edge order: a pool member's adjacency in row-major order; for gossip on
    the pair (i, j), i hears j and then j hears i; for broadcast from node
    v, v's neighbors in increasing order hear v.
    """
    n = model.n
    if model.kind == "gossip":
        i, j = rng.integers(0, np.tile([n, n - 1], steps)).reshape(steps, 2).T
        j = j + (j >= i)
        return GraphDraws(None, np.arange(0, 2 * steps + 1, 2), np.stack([i, j], axis=1).ravel(),
                          np.stack([j, i], axis=1).ravel(), np.ones(2 * steps))
    if not (model.pooled or model.kind == "broadcast"):
        raise ValueError(f"unknown model kind {model.kind!r}")
    start, dst, src, w = _member_edges(model)
    ids = rng.integers(0, len(start) - 1, size=steps)
    counts = start[ids + 1] - start[ids]
    begin = np.concatenate(([0], np.cumsum(counts)))
    take = np.repeat(start[ids] - begin[:-1], counts) + np.arange(begin[-1])
    return GraphDraws(ids, begin, dst[take], src[take], w[take])


def sample_graph(model: GraphModel, rng) -> GraphSample:
    """One draw from the model: the edges of `sample_graphs(model, rng, 1)`."""
    g = sample_graphs(model, rng, 1)
    return GraphSample(n=model.n, dst=g.dst, src=g.src, w=g.w)


def mean_laplacian(model: GraphModel) -> np.ndarray:
    """Exact expectation of the per-step Laplacian, computed once per model
    and returned read-only."""
    if model._mean_L is None:
        model._mean_L = _mean_laplacian(model)
    model._mean_L.flags.writeable = False  # again here: an unpickled copy comes back writeable
    return model._mean_L


def _mean_laplacian(model: GraphModel) -> np.ndarray:
    n = model.n
    if model.pooled:
        return model.laplacians.mean(axis=0)
    if model.kind == "gossip":
        # each of the n(n-1)/2 edges appears with equal probability
        pairs = n * (n - 1) / 2.0
        return (n * np.eye(n) - np.ones((n, n))) / pairs
    if model.kind == "broadcast":
        return laplacian(model.base) / n
    raise ValueError(f"unknown model kind {model.kind!r}")


def mean_laplacian_mc(model: GraphModel, draws=100_000, seed=0):
    """Monte Carlo estimate of the mean Laplacian with entrywise standard errors.

    The draws come in `sample_graphs` blocks whose edge arrays fit
    BLOCK_BYTES, consuming `rng` as `draws` single draws would,
    and each draw's Laplacian is summed from its edges: -w at (dst, src) and
    its in-weights on the diagonal.  Memory is O(n^2 + BLOCK_BYTES).
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    n = model.n
    acc = np.zeros((n, n))
    acc2 = np.zeros((n, n))
    # per draw: its edge arrays, gathers and bins, and its n in-weights and their squares
    K = max(1, BLOCK_BYTES // (8 * (8 * max_edges(model) + 2 * n)))
    for done in range(0, draws, K):
        k = min(K, draws - done)
        g = sample_graphs(model, rng, k)
        cell = g.dst * n + g.src
        acc -= np.bincount(cell, g.w, minlength=n * n).reshape(n, n)
        acc2 += np.bincount(cell, g.w * g.w, minlength=n * n).reshape(n, n)
        step = np.repeat(np.arange(k) * n, np.diff(g.start))
        deg = np.bincount(step + g.dst, g.w, minlength=k * n).reshape(k, n)
        acc.flat[::n + 1] += deg.sum(axis=0)
        acc2.flat[::n + 1] += (deg * deg).sum(axis=0)
    mean = acc / draws
    var = np.maximum(acc2 / draws - mean**2, 0.0)
    stderr = np.sqrt(var / draws)
    return mean, stderr


def algebraic_connectivity(L) -> float:
    """Second-smallest eigenvalue of a symmetric Laplacian."""
    L = np.asarray(L, dtype=float)
    if np.abs(L - L.T).max(initial=0.0) > 1e-9:
        raise ValueError("matrix must be symmetric within 1e-9")
    return float(np.linalg.eigvalsh(0.5 * (L + L.T))[1])


@dataclass
class ValidationReport:
    """Outcome of the connectivity-in-mean check on a graph model.

    `method` says how s2 was found: "exact" from an eigen-decomposition of
    the mean Laplacian, "closed form" where the model's spectrum is known
    (gossip)."""

    symmetry_defect: float
    s2: float
    passed: bool
    method: str = "exact"

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] mean-Laplacian symmetry defect {self.symmetry_defect:.3e}, "
            f"algebraic connectivity {self.s2:.6g} ({self.method})"
        )


def validate_model(model: GraphModel) -> ValidationReport:
    """Check that the exact mean Laplacian is symmetric with s2 > 1e-8; the
    report is computed once per model.

    Gossip's mean Laplacian (n I - 1 1')/C(n, 2) is symmetric with s2 =
    n/C(n, 2) = 2/(n - 1), so a gossip model is validated in closed form,
    without building or factoring an n x n matrix.  Pools and broadcast
    factor their dense mean Laplacian."""
    if model._report is None:
        method = "exact"
        if model.kind == "gossip":
            defect, s2, method = 0.0, 2.0 / (model.n - 1), "closed form"
        else:
            Lbar = mean_laplacian(model)
            defect = float(np.abs(Lbar - Lbar.T).max())
            if defect < 1e-8:
                s2 = float(np.linalg.eigvalsh(0.5 * (Lbar + Lbar.T))[1])
            else:
                s2 = float("nan")
        passed = defect < 1e-8 and s2 > 1e-8
        model._report = ValidationReport(symmetry_defect=defect, s2=s2, passed=passed,
                                         method=method)
    return model._report


# ---------------------------------------------------------------------------
# JSON serialization


def model_to_json(model: GraphModel) -> dict:
    doc = {"n": model.n, "kind": model.kind}
    if model.pooled:
        doc["graphs"] = [g.ravel().tolist() for g in model.graphs]
        doc["pool_size"] = model.pool_size
        if model.kind == "erdos_renyi_pool":
            doc["p_lo"] = model.p_lo
            doc["p_hi"] = model.p_hi
    elif model.kind == "broadcast":
        doc["graphs"] = [model.base.ravel().tolist()]
    return doc


def model_from_json(doc: dict) -> GraphModel:
    kind = doc["kind"]
    n = int(doc["n"])
    if kind in ("fixed_pool", "erdos_renyi_pool"):
        graphs = [np.asarray(g, dtype=float).reshape(n, n) for g in doc["graphs"]]
        model = GraphModel.fixed_pool(graphs)
        if kind == "erdos_renyi_pool":
            model.kind = "erdos_renyi_pool"
            model.p_lo = doc.get("p_lo")
            model.p_hi = doc.get("p_hi")
        return model
    if kind == "gossip":
        return GraphModel.gossip(n)
    if kind == "broadcast":
        return GraphModel.broadcast(np.asarray(doc["graphs"][0], dtype=float).reshape(n, n))
    raise ValueError(f"unknown model kind {kind!r}")
