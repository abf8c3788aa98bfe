"""The stochastic-approximation recursion over sampled graphs.

Synchronous rounds: every agent updates its allocation, multiplier and
consensus auxiliary from the time-k state.  The allocation update is
projected onto the agent's feasible set, so feasibility holds after every
step.  The multiplier received from a neighbor carries one shared noise
realization per (receiver, sender, step), drawn only for the links of the
step's graph: the same draw enters both the multiplier and the auxiliary
update lines.

Paths step as a batch: the states of a worker's P paths are one (P, n, m)
stack, and every operation acts row by row or path by path, so each path's
values come out bit for bit as when it runs alone.  Graphs and noise are
drawn a block of K steps per call (`sample_graphs`, `draw_block_noise`);
the single-step `sample_graph` and `draw_step_noise` are those draws for
one step.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, NetallocError, ProjectionError
# sample_graph is kept importable here, where perfbench/tracer.py wraps it
from .network import (BLOCK_BYTES, GraphModel, GraphSample, max_edges, mean_laplacian,  # noqa: F401
                      sample_graph, sample_graphs, validate_model)
from .problem import ProblemSpec
from .streams import CHANNEL_LAMBDA, CHANNEL_Z, GRADIENT, GRAPH, RESOURCE, PathStream, path_seed
from .trace import METRICS, Trace, build_trace, mean_trace

DIVERGENCE_GUARD = 1e12


# ---------------------------------------------------------------------------
# state and schedules


@dataclass
class NetworkState:
    """Stacked algorithm state: allocations X, multipliers Lam, auxiliaries Z."""

    X: np.ndarray
    Lam: np.ndarray
    Z: np.ndarray
    k: int = 0

    def norm(self):
        return float(
            np.sqrt((self.X * self.X).sum() + (self.Lam * self.Lam).sum() + (self.Z * self.Z).sum())
        )

    def copy(self):
        return NetworkState(self.X.copy(), self.Lam.copy(), self.Z.copy(), self.k)

    def path(self, i):
        """Path i of a (P, n, m) stack of paths' states."""
        return NetworkState(self.X[i], self.Lam[i], self.Z[i], self.k)

    def take(self, paths):
        """The stack of the listed paths."""
        return NetworkState(self.X[paths], self.Lam[paths], self.Z[paths], self.k)

    @classmethod
    def stack(cls, state, paths):
        """`paths` copies of one state as a (P, n, m) stack."""
        return cls(*(np.repeat(a[None], paths, axis=0) for a in (state.X, state.Lam, state.Z)),
                   k=state.k)


def initial_state(problem: ProblemSpec) -> NetworkState:
    """Default start: zero allocations projected into the sets, zero Lam and Z."""
    zeros = np.zeros((problem.n, problem.m))
    return NetworkState(X=problem.project_all(zeros), Lam=zeros.copy(), Z=zeros.copy(), k=0)


@dataclass
class StepSchedule:
    """Step-size sequence. Power schedules a/(k+1)^beta with beta in (0.5, 1]
    are square-summable but not summable; constant schedules are flagged
    non-convergent, for diagnostics only."""

    kind: str
    a: float
    beta: Optional[float] = None

    @classmethod
    def power(cls, a, beta):
        if a <= 0:
            raise ValueError("a must be positive")
        if not (0.5 < beta <= 1.0):
            raise ValueError("beta must lie in (0.5, 1]")
        return cls(kind="power", a=float(a), beta=float(beta))

    @classmethod
    def constant(cls, a):
        if a <= 0:
            raise ValueError("a must be positive")
        return cls(kind="constant", a=float(a))

    @property
    def convergent(self):
        return self.kind == "power"

    def to_json(self):
        doc = {"kind": self.kind, "a": self.a}
        if self.beta is not None:
            doc["beta"] = self.beta
        return doc

    @classmethod
    def from_json(cls, doc):
        if doc["kind"] == "power":
            return cls.power(doc["a"], doc["beta"])
        if doc["kind"] == "constant":
            return cls.constant(doc["a"])
        raise ValueError(f"unknown schedule kind {doc['kind']!r}")


def step_size(schedule: StepSchedule, k: int) -> float:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if schedule.kind == "power":
        return schedule.a / (k + 1.0) ** schedule.beta
    return schedule.a


# ---------------------------------------------------------------------------
# noise configuration


@dataclass
class GaussianNoise:
    sigma: float

    def to_json(self):
        return {"kind": "gaussian", "sigma": self.sigma}


@dataclass
class SampledQuadraticNoise:
    """Gradient noise from sampling the quadratic's coefficients each step:
    nu = 2 Psi x + theta with i.i.d. Gaussian Psi, theta.  Zero conditional
    mean with state-dependent second moment m(4 sigma_psi^2 ||x||^2 + sigma_theta^2)."""

    sigma_psi: float
    sigma_theta: float

    def to_json(self):
        return {
            "kind": "sampled_quadratic",
            "sigma_psi": self.sigma_psi,
            "sigma_theta": self.sigma_theta,
        }


def _channel_from_json(doc):
    if doc is None or doc["kind"] == "none":
        return None
    if doc["kind"] == "gaussian":
        return GaussianNoise(float(doc["sigma"]))
    if doc["kind"] == "sampled_quadratic":
        return SampledQuadraticNoise(float(doc["sigma_psi"]), float(doc["sigma_theta"]))
    raise ValueError(f"unknown noise kind {doc['kind']!r}")


@dataclass
class NoiseConfig:
    """The four noise processes: gradient, resource, and the two channel noises."""

    gradient: Optional[object] = None
    resource: Optional[GaussianNoise] = None
    channel_lambda: Optional[GaussianNoise] = None
    channel_z: Optional[GaussianNoise] = None

    def __post_init__(self):
        if isinstance(self.gradient, GaussianNoise) or self.gradient is None \
                or isinstance(self.gradient, SampledQuadraticNoise):
            pass
        else:
            raise ValueError("gradient noise must be gaussian, sampled_quadratic or None")
        for name in ("resource", "channel_lambda", "channel_z"):
            v = getattr(self, name)
            if v is not None and not isinstance(v, GaussianNoise):
                raise ValueError(f"{name} noise must be gaussian or None")

    @classmethod
    def noiseless(cls):
        return cls()

    def gradient_bound_constant(self, m):
        """The constant c with E||nu||^2 <= c(1 + ||x||^2) for the gradient channel."""
        g = self.gradient
        if g is None:
            return 0.0
        if isinstance(g, GaussianNoise):
            return m * g.sigma**2
        return max(4.0 * m * g.sigma_psi**2, m * g.sigma_theta**2)

    def to_json(self):
        def enc(ch):
            return {"kind": "none"} if ch is None else ch.to_json()

        return {
            "gradient": enc(self.gradient),
            "resource": enc(self.resource),
            "channel_lambda": enc(self.channel_lambda),
            "channel_z": enc(self.channel_z),
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            gradient=_channel_from_json(doc.get("gradient")),
            resource=_channel_from_json(doc.get("resource")),
            channel_lambda=_channel_from_json(doc.get("channel_lambda")),
            channel_z=_channel_from_json(doc.get("channel_z")),
        )


@dataclass
class StepNoise:
    """Realized noise draws for one step (None = channel disabled)."""

    nu: Optional[np.ndarray] = None       # (n, m) gradient noise
    delta: Optional[np.ndarray] = None    # (n, m) resource noise
    zeta: Optional[np.ndarray] = None     # (E, m) multiplier channel noise, one row per edge
    eps: Optional[np.ndarray] = None      # (E, m) auxiliary channel noise


# ---------------------------------------------------------------------------
# block draws


def draw_block_noise(noise: NoiseConfig, problem: ProblemSpec, streams, K, edges):
    """K steps of noise for each path's stream, in the order and amount K
    single steps take: (nu, psi, theta, delta, zeta, eps), None for a
    disabled channel.  The gradient noise nu, or the sampled quadratic's psi
    and theta, and the resource noise delta are (P, K, ...), path by path;
    the channel noises zeta and eps are (E, m), one row per edge of the
    block's graphs in their edge order: path p's `edges[p]` rows after those
    of the paths before it."""
    n, m, P = problem.n, problem.m, len(streams)

    def normals(channel, shape, sigma):
        out = np.empty((P, K) + shape)
        for s, o in zip(streams, out):
            s.channel(channel).standard_normal((K,) + shape, out=o)
        out *= sigma
        return out

    g = noise.gradient
    nu = psi = theta = delta = None
    if isinstance(g, GaussianNoise):
        nu = normals(GRADIENT, (n, m), g.sigma)
    elif isinstance(g, SampledQuadraticNoise):
        # per step: psi (n, m, m), then theta (n, m)
        both = normals(GRADIENT, (n * m * m + n * m,), 1.0)
        psi = g.sigma_psi * both[..., :n * m * m].reshape(P, K, n, m, m)
        theta = g.sigma_theta * both[..., n * m * m:].reshape(P, K, n, m)
    if noise.resource is not None:
        delta = normals(RESOURCE, (n, m), noise.resource.sigma)
    zeta, eps = (None if ch is None else np.concatenate(
        [ch.sigma * s.channel(c).standard_normal((e, m)) for s, e in zip(streams, edges)])
        for c, ch in ((CHANNEL_LAMBDA, noise.channel_lambda), (CHANNEL_Z, noise.channel_z)))
    return nu, psi, theta, delta, zeta, eps


def draw_step_noise(noise: NoiseConfig, problem: ProblemSpec, X, stream: PathStream,
                    graph: GraphSample) -> StepNoise:
    """`draw_block_noise` for one path and one step on `graph`'s edges; a
    sampled quadratic's nu is taken at X."""
    nu, psi, theta, delta, zeta, eps = draw_block_noise(noise, problem, [stream], 1, [graph.dst.size])
    if psi is not None:
        nu = 2.0 * np.einsum("nij,nj->ni", psi[0, 0], X) + theta[0, 0]
    elif nu is not None:
        nu = nu[0, 0]
    return StepNoise(nu=nu, delta=None if delta is None else delta[0, 0], zeta=zeta, eps=eps)


def block_steps(problem: ProblemSpec, model: GraphModel, paths: int) -> int:
    """Steps K per block for a batch of `paths` paths: as many as fit
    BLOCK_BYTES.  A path-step is counted at its largest: the sampled
    quadratic's psi and theta and the resource noise, each drawn and then
    scaled into a copy; the received sums of both channel noises; and, on
    the most edges one graph draw can have, both channel draws, their
    bincount weights and bin indices."""
    n, m = problem.n, problem.m
    doubles = 2 * (n * m * (m + 1) + n * m) + 2 * n * m + 6 * m * max_edges(model)
    return max(1, BLOCK_BYTES // (8 * doubles * paths))


class PathDraws:
    """The step inputs of a batch of sample paths, drawn a block ahead.

    Each path keeps its own PathStream.  Once per block of K steps each
    channel of each path is drawn in one call: the graphs first
    (`sample_graphs`), then the noise on the block's edges
    (`draw_block_noise`), in the order and amount K single steps take.  The
    block's received channel noise is one `GraphSample.scatter` over the
    block's edges, with receivers offset by path and step; it adds in input
    order, so every sum is the per-step scatter's.  Calling the object
    returns the next step's StepInputs for all P paths.
    """

    def __init__(self, problem, model, noise, seeds, iterations):
        self.problem, self.model, self.noise = problem, model, noise
        self.streams = [PathStream(seed) for seed in seeds]
        self.left = iterations
        self.K = block_steps(problem, model, len(seeds))
        self.j = self.size = 0

    def __call__(self, state=None):
        if self.j == self.size:
            self._draw(min(self.K, self.left))
        j, self.j = self.j, self.j + 1
        lap = self.laps[self.ids[:, j]] if self.model.pooled else tuple(
            a[self.bounds[j]:self.bounds[j + 1]] for a in self.edges)
        return StepInputs(lap, *(a if a is None or isinstance(a, float) else a[:, j] for a in (
            self.nu, self.psi, self.theta, self.delta, self.zrow, self.erow)))

    def _draw(self, K):
        """Draw the next K steps; arrays are (P, K, ...), path by path."""
        self.left -= K
        self.j, self.size = 0, K
        n, m, P = self.problem.n, self.problem.m, len(self.streams)
        graphs = [sample_graphs(self.model, s.channel(GRAPH), K) for s in self.streams]
        self.nu, self.psi, self.theta, self.delta, zeta, eps = draw_block_noise(
            self.noise, self.problem, self.streams, K, [gr.dst.size for gr in graphs])

        steps = [np.repeat(np.arange(K), np.diff(gr.start)) for gr in graphs]
        dst, src, w = (np.concatenate([getattr(gr, f) for gr in graphs]) for f in ("dst", "src", "w"))
        # the block's edges as one graph, receiver i of step k of path p as node (p * K + k) * n + i
        off = np.concatenate([(p * K + k) * n for p, k in enumerate(steps)])
        sums = GraphSample(P * K * n, off + dst, off + src, w).scatter(zeta, eps)
        self.zrow, self.erow = (r if v is None else r.reshape(P, K, n, m) for v, r in zip((zeta, eps), sums))

        if self.model.pooled:
            self.laps = self.model.laplacians
            self.ids = np.stack([gr.ids for gr in graphs])
        else:
            # the batch's edges step by step, each step's path by path
            step = np.concatenate(steps)
            order = np.argsort(step, kind="stable")
            self.bounds = np.searchsorted(step[order], np.arange(K + 1))
            path = np.concatenate([np.full(gr.dst.size, p) for p, gr in enumerate(graphs)])
            self.edges = tuple(a[order] for a in (path, dst, src, w))


# ---------------------------------------------------------------------------
# the recursion


@dataclass
class StepInputs:
    """One step's graph and noise for a batch of P paths.

    `lap` is the Laplacian: a dense (n, n) matrix the batch shares, a
    (P, n, n) stack, or the batch's edges (path, dst, src, w), where path p's
    node i is row i of its (n, m) block.  The noise is stacked (P, n, m), None
    for a disabled channel: the gradient noise `nu`, or the sampled
    quadratic's `psi` (P, n, m, m) and `theta` giving nu = 2 psi x + theta;
    the resource noise `delta`; the received channel noises `zrow` and
    `erow`, 0.0 when disabled.
    """

    lap: object
    nu: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None
    zrow: object = 0.0
    erow: object = 0.0

    def take(self, paths):
        """The inputs of the listed batch positions (ascending)."""
        def sub(a):
            return a[paths] if isinstance(a, np.ndarray) else a

        lap = self.lap
        if isinstance(lap, tuple):
            keep = np.isin(lap[0], paths)
            lap = (np.searchsorted(paths, lap[0][keep]),) + tuple(a[keep] for a in lap[1:])
        elif lap.ndim == 3:
            lap = lap[paths]
        return StepInputs(lap, *(sub(a) for a in (self.nu, self.psi, self.theta, self.delta,
                                                   self.zrow, self.erow)))


def step_batch(state: NetworkState, problem: ProblemSpec, inputs: StepInputs,
               alpha: float) -> NetworkState:
    """One synchronous round of a (P, n, m) stack of paths from the time-k
    state.  Every operation acts row by row or path by path, so each path
    gets the bits it gets alone."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    X, Lam, Z = state.X, state.Lam, state.Z

    step = problem.grad_all(X)
    if inputs.psi is not None:
        step += 2.0 * np.einsum("...nij,...nj->...ni", inputs.psi, X) + inputs.theta
    elif inputs.nu is not None:
        step += inputs.nu
    # X + alpha (Lam - grad), in place
    np.subtract(Lam, step, out=step)
    step *= alpha
    step += X
    Xn = problem.project_paths(step)

    if isinstance(inputs.lap, tuple):
        # L @ V sums w * (V[dst] - V[src]) onto dst, path p's nodes offset by p * n
        path, dst, src, w = inputs.lap
        P, n, m = X.shape
        dst, src = path * n + dst, path * n + src
        Lf, Zf = Lam.reshape(-1, m), Z.reshape(-1, m)
        LLam, LZ = (v.reshape(X.shape) for v in GraphSample(P * n, dst, src, w).scatter(
            Lf[dst] - Lf[src], Zf[dst] - Zf[src]))
    else:
        LLam, LZ = inputs.lap @ Lam, inputs.lap @ Z
    # Lam + alpha (D - X + delta - L Lam - L Z + zrow + erow) and, in L Lam's
    # buffer, Z + alpha (L Lam - zrow); a disabled channel adds nothing
    Ln = problem.D_stack - X
    if inputs.delta is not None:
        Ln += inputs.delta
    Ln -= LLam
    Ln -= LZ
    Zn = LLam
    if not isinstance(inputs.zrow, float):
        Ln += inputs.zrow
        Zn -= inputs.zrow
    if not isinstance(inputs.erow, float):
        Ln += inputs.erow
    Ln *= alpha
    Ln += Lam
    Zn *= alpha
    Zn += Z
    return NetworkState(X=Xn, Lam=Ln, Z=Zn, k=state.k + 1)


def apply_step(
    state: NetworkState, problem: ProblemSpec, graph: GraphSample, draws: StepNoise, alpha: float
) -> NetworkState:
    """One synchronous round from the time-k state with given noise draws:
    `step_batch` on a batch of one, over the graph's edges."""
    lap = (np.zeros(graph.dst.size, dtype=int), graph.dst, graph.src, graph.w)
    zrow, erow = graph.scatter(draws.zeta, draws.eps)
    inputs = StepInputs(lap, nu=draws.nu, delta=draws.delta, zrow=zrow, erow=erow)
    return step_batch(NetworkState.stack(state, 1), problem, inputs, alpha).path(0)


def aggregate_noise(
    state: NetworkState,
    problem: ProblemSpec,
    graph: GraphSample,
    draws: StepNoise,
    mean_L: np.ndarray,
):
    """The stacked effective noise entering the mean-dynamics decomposition.

    Returns the three blocks (xi_x, xi_lambda, xi_z): the gradient noise with
    its sign, the multiplier block combining the Laplacian fluctuation around
    its mean with the additive observation/channel noises, and the auxiliary
    block.  Diagnostic only; the recursion itself never needs the mean.
    """
    Lam, Z = state.Lam, state.Z
    dL = mean_L - graph.laplacian
    zrow, erow = graph.scatter(draws.zeta, draws.eps)
    delta = draws.delta if draws.delta is not None else 0.0
    nu = draws.nu if draws.nu is not None else np.zeros_like(Lam)
    e1 = dL @ (Lam + Z)
    e2 = zrow + delta + erow
    e3 = -dL @ Lam - zrow
    return -nu, e1 + e2, e3


# ---------------------------------------------------------------------------
# paths and Monte Carlo


@dataclass
class RunResult:
    trace: Trace
    final_state: NetworkState
    final_metrics: dict
    watched: Optional[np.ndarray] = None  # (records, len(watch)) allocation components


def state_metrics(state, problem, mean_L, reference=None) -> dict:
    """The recorded metrics of one state, keyed by METRICS.

    `dist` is None without a reference, `obj` when some objective value is
    unavailable.
    """
    return {
        "dist": float(np.linalg.norm(state.X - reference)) if reference is not None else None,
        "obj": problem.objective_value(state.X),
        "consensus": float(np.linalg.norm(mean_L @ state.Lam)),
        "balance": float(np.linalg.norm((state.X - problem.D).sum(axis=0))),
        "state_norm": state.norm(),
    }


@dataclass
class PathRun:
    """One path's part of an `iterate` call: its records, and either its
    final state or the error that ended it at `iteration`."""

    rows: list = field(default_factory=list)
    watched: list = field(default_factory=list)
    final: Optional[NetworkState] = None
    error: Optional[NetallocError] = None
    iteration: Optional[int] = None

    def end(self, error, iteration):
        self.error, self.iteration = error, iteration


def iterate(state, problem, schedule, iterations, inputs, mean_L, reference=None, cadence=10,
            watch=None):
    """The step loop of every sample path and of the flow, over a batch.

    `state` stacks P paths' states, (P, n, m) each, at one counter.  Step
    k = 0, ..., iterations-1 (k counts the steps taken in this call) records
    each live path's state before the step when k % cadence == 0, then
    applies `step_batch` with step size step_size(schedule, k) and the
    StepInputs that `inputs(state)` returns for all P paths, of which the
    live paths' share is taken.  A record is a row of k, alpha and the
    METRICS, where k is the state's own counter `state.k`, plus the
    allocation components listed by `watch` as (agent, component) pairs.

    A path ends when its new state's squared norm, one sum of squares over
    its three stacked blocks, passes DIVERGENCE_GUARD**2 or is not finite
    (a NaN or inf in any block; a DivergenceError at the new counter), or
    when its rows fail the projection certificate (the ProjectionError it
    raises alone, at the counter it did not reach); the others step on, bit
    for bit as alone.  Returns one PathRun per path.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    P = len(state.X)
    runs = [PathRun() for _ in range(P)]
    live = np.arange(P)
    guard = DIVERGENCE_GUARD**2
    for k in range(iterations):
        alpha = step_size(schedule, k)
        if k % cadence == 0:
            for j, p in enumerate(live):
                path = state.path(j)
                runs[p].rows.append({"k": state.k, "alpha": alpha,
                                     **state_metrics(path, problem, mean_L, reference)})
                if watch:
                    runs[p].watched.append([path.X[i, c] for i, c in watch])
        step = inputs(state)
        if live.size < P:
            step = step.take(live)
        try:
            nxt = step_batch(state, problem, step, alpha)
        except ProjectionError as exc:
            bad = np.unique(exc.rows // problem.n)
            for j in bad:
                if live.size > 1:
                    # the path's own error, as it raises alone
                    try:
                        step_batch(state.take([j]), problem, step.take([j]), alpha)
                    except ProjectionError as own:
                        exc = own
                runs[live[j]].end(exc, state.k + 1)
            keep = np.setdiff1d(np.arange(live.size), bad)
            live, state, step = live[keep], state.take(keep), step.take(keep)
            if not live.size:
                return runs
            nxt = step_batch(state, problem, step, alpha)
        # each path's squared norm: one sum over its three blocks, squared in place
        sq = np.concatenate((nxt.X, nxt.Lam, nxt.Z), axis=1)
        np.multiply(sq, sq, out=sq)
        sq = np.add.reduce(sq, axis=(1, 2))
        state = nxt
        if not np.maximum.reduce(sq) <= guard:  # a NaN fails the test too
            bad = np.flatnonzero(~(sq <= guard))
            for j in bad:
                runs[live[j]].end(DivergenceError(iteration=state.k, norm=float(np.sqrt(sq[j]))), state.k)
            keep = np.setdiff1d(np.arange(live.size), bad)
            live, state = live[keep], state.take(keep)
            if not live.size:
                return runs
    for j, p in enumerate(live):
        runs[p].final = state.path(j)
    return runs


def run_paths(problem, model, noise, schedule, iterations, seeds, reference=None, cadence=10,
              initial=None, watch=None) -> list:
    """Sample paths with the given seeds, stepped as one batch: per path its
    RunResult, or the PathRun that ended early.  See `run_path`."""
    report = validate_model(model)
    if not report.passed:
        raise ValueError(f"graph model failed validation: {report}")
    mean_L = mean_laplacian(model)
    state = NetworkState.stack(initial if initial is not None else initial_state(problem), len(seeds))
    runs = iterate(state, problem, schedule, iterations,
                   PathDraws(problem, model, noise, seeds, iterations), mean_L, reference, cadence,
                   watch)
    return [run if run.error is not None else RunResult(
        trace=build_trace(run.rows),
        final_state=run.final,
        final_metrics=state_metrics(run.final, problem, mean_L, reference),
        watched=np.array(run.watched) if watch else None,
    ) for run in runs]


def run_path(
    problem: ProblemSpec,
    model: GraphModel,
    noise: NoiseConfig,
    schedule: StepSchedule,
    iterations: int,
    seed: int,
    reference=None,
    cadence: int = 10,
    initial: Optional[NetworkState] = None,
    watch=None,
) -> RunResult:
    """One sample path of `iterate`, a batch of one; deterministic for a fixed seed.

    Each step draws its graph from `model` and its noise from the path's
    streams, the channel noise on that graph's edges.  The trace holds
    ceil(iterations/cadence) records, the states before steps 0, cadence,
    2*cadence, ...; final-state metrics are returned separately.  `watch` lists (agent, component) pairs whose
    allocation values are recorded on the same grid.  Raises the
    DivergenceError or ProjectionError that ends the path.
    """
    res = run_paths(problem, model, noise, schedule, iterations, [seed], reference, cadence,
                    initial, watch)[0]
    if isinstance(res, PathRun):
        raise res.error
    return res


@dataclass
class MonteCarloResult:
    paths: int
    mean_trace: Optional[Trace]
    finals: list          # per completed path: (path, final-metric dict)
    diverged: list        # (path, iteration) pairs
    path_seeds: list
    traces: list          # per completed path: (path, trace)
    watched_mean: Optional[np.ndarray] = None
    failed: list = field(default_factory=list)  # (path, iteration, kind, message) of other errors

    def summary(self):
        return summarize_finals([f for _, f in self.finals], self.paths, len(self.diverged),
                                len(self.failed))


def summarize_finals(finals, paths, diverged, failed) -> dict:
    """Mean, median and 90th percentile of each final metric over the
    completed paths' final-metric dicts."""
    out = {"paths": paths, "diverged": diverged, "failed": failed, "final": {}}
    for name in METRICS:
        vals = [f[name] for f in finals if f.get(name) is not None]
        if vals:
            arr = np.array(vals, dtype=float)
            out["final"][name] = {
                "mean": float(arr.mean()),
                "median": float(np.median(arr)),
                "p90": float(np.percentile(arr, 90)),
            }
    return out


def _mc_worker(args):
    """One block of paths: per path its RunResult, or (iteration, error)."""
    return [res if isinstance(res, RunResult) else (res.iteration, res.error)
            for res in run_paths(*args)]


def monte_carlo(
    problem: ProblemSpec,
    model: GraphModel,
    noise: NoiseConfig,
    schedule: StepSchedule,
    iterations: int,
    paths: int,
    master_seed: int,
    reference=None,
    cadence: int = 10,
    threads: int = 1,
    watch=None,
) -> MonteCarloResult:
    """Average independent sample paths.

    Path p runs with seed path_seed(master_seed, p).  The paths are split
    into min(threads, paths) contiguous blocks, each stepped as one batch in
    its own worker process (in this process for one block); a path's values
    do not depend on its block, and the averaged trace is the arithmetic
    mean of the per-path metric curves, so the result is independent of
    execution order and of the `threads` knob.  Diverged paths, and paths
    whose projection failed, are excluded from averages and listed.  The
    process pool (`concurrent.futures`) is imported only when more than one
    block starts one, so importing netalloc does not load it.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    seeds = [path_seed(master_seed, p) for p in range(paths)]
    # run_paths' positional arguments; None is the default initial state
    jobs = [(problem, model, noise, schedule, iterations, [seeds[p] for p in block], reference,
             cadence, None, watch) for block in np.array_split(np.arange(paths), min(threads, paths))]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = [res for block in pool.map(_mc_worker, jobs) for res in block]
    else:
        results = _mc_worker(jobs[0])

    traces, finals, diverged, failed, watched = [], [], [], [], []
    for p, res in enumerate(results):
        if isinstance(res, RunResult):
            traces.append((p, res.trace))
            finals.append((p, res.final_metrics))
            if res.watched is not None:
                watched.append(res.watched)
        elif isinstance(res[1], DivergenceError):
            diverged.append((p, res[0]))
        else:
            failed.append((p, res[0], type(res[1]).__name__, str(res[1])))
    return MonteCarloResult(
        paths=paths, mean_trace=mean_trace([t for _, t in traces]) if traces else None,
        finals=finals, diverged=diverged, path_seeds=seeds, traces=traces,
        watched_mean=np.mean(np.stack(watched, axis=0), axis=0) if watched else None,
        failed=failed,
    )
