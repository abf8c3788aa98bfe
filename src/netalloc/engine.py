"""The stochastic-approximation recursion over sampled graphs.

Synchronous rounds: every agent updates its allocation, multiplier and
consensus auxiliary from the time-k state.  The allocation update is
projected onto the agent's feasible set, so feasibility holds after every
step.  The multiplier received from a neighbor carries one shared noise
realization per (receiver, sender, step), drawn only for the links of the
step's graph: the same draw enters both the multiplier and the auxiliary
update lines.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .network import GraphModel, GraphSample, mean_laplacian, sample_graph, validate_model
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
    zeta: Optional[np.ndarray] = None     # multiplier channel noise: (E, m) per edge or (n, n, m)
    eps: Optional[np.ndarray] = None      # auxiliary channel noise, shaped like zeta


def draw_step_noise(noise: NoiseConfig, problem: ProblemSpec, X, stream: PathStream,
                    graph: Optional[GraphSample] = None) -> StepNoise:
    """Draw one step's noise from the per-channel streams.

    The channel noises zeta and eps are drawn as (E, m), one row per edge of
    `graph` in its edge order (stream version 2), or as all-pairs (n, n, m)
    arrays, indexed [receiver, sender], when no graph is given.
    """
    n, m = problem.n, problem.m
    links = (n, n, m) if graph is None else (graph.dst.size, m)
    draws = StepNoise()
    g = noise.gradient
    if isinstance(g, GaussianNoise):
        draws.nu = g.sigma * stream.channel(GRADIENT).standard_normal((n, m))
    elif isinstance(g, SampledQuadraticNoise):
        gen = stream.channel(GRADIENT)
        psi = g.sigma_psi * gen.standard_normal((n, m, m))
        theta = g.sigma_theta * gen.standard_normal((n, m))
        draws.nu = 2.0 * np.einsum("nij,nj->ni", psi, X) + theta
    if noise.resource is not None:
        draws.delta = noise.resource.sigma * stream.channel(RESOURCE).standard_normal((n, m))
    if noise.channel_lambda is not None:
        draws.zeta = noise.channel_lambda.sigma * stream.channel(CHANNEL_LAMBDA).standard_normal(
            links)
    if noise.channel_z is not None:
        draws.eps = noise.channel_z.sigma * stream.channel(CHANNEL_Z).standard_normal(links)
    return draws


# ---------------------------------------------------------------------------
# the recursion


def edge_noise(graph: GraphSample, draws: StepNoise):
    """The channel draws (zeta, eps) on the graph's edges, (E, m) each; an
    all-pairs draw is gathered as zeta[dst, src], None stays None."""
    return tuple(d[graph.dst, graph.src] if d is not None and d.ndim == 3 else d
                 for d in (draws.zeta, draws.eps))


def received_noise(graph: GraphSample, draws: StepNoise):
    """Received multiplier and auxiliary channel noise, each summed over
    in-neighbors: (zrow, erow), 0.0 for a disabled channel."""
    return graph.scatter(*edge_noise(graph, draws))


def apply_step(
    state: NetworkState, problem: ProblemSpec, graph: GraphSample, draws: StepNoise, alpha: float
) -> NetworkState:
    """One synchronous round from the time-k state with given noise draws."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    X, Lam, Z = state.X, state.Lam, state.Z

    gradX = problem.grad_all(X)
    if draws.nu is not None:
        gradX = gradX + draws.nu
    Xn = problem.project_all(X + alpha * (Lam - gradX))

    res = problem.D - X
    if draws.delta is not None:
        res = res + draws.delta
    L = graph.dense_laplacian
    if L is None:
        # L @ V sums w * (V[dst] - V[src]) onto dst, in the noise's scatter
        zrow, erow, LLam, LZ = graph.scatter(*edge_noise(graph, draws),
                                             Lam[graph.dst] - Lam[graph.src],
                                             Z[graph.dst] - Z[graph.src])
    else:
        zrow, erow = received_noise(graph, draws)
        LLam, LZ = L @ Lam, L @ Z
    Ln = Lam + alpha * (res - LLam - LZ + zrow + erow)
    Zn = Z + alpha * (LLam - zrow)
    return NetworkState(X=Xn, Lam=Ln, Z=Zn, k=state.k + 1)


def sa_step(
    state: NetworkState,
    problem: ProblemSpec,
    graph: GraphSample,
    noise: NoiseConfig,
    alpha: float,
    stream: PathStream,
) -> NetworkState:
    """Draw this step's noise on the graph's edges and apply the recursion."""
    draws = draw_step_noise(noise, problem, state.X, stream, graph)
    return apply_step(state, problem, graph, draws, alpha)


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
    zrow, erow = received_noise(graph, draws)
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


def check_divergence(state, iteration):
    """Raise DivergenceError when the state norm is not finite or passes
    DIVERGENCE_GUARD."""
    norm = state.norm()
    if not np.isfinite(norm) or norm > DIVERGENCE_GUARD:
        raise DivergenceError(iteration=iteration, norm=norm)


def iterate(state, problem, schedule, iterations, inputs, mean_L, reference=None, cadence=10,
            watch=None):
    """The step loop of every sample path and of the flow.

    Step k = 0, ..., iterations-1 (k counts the steps taken in this call)
    records the state before the step when k % cadence == 0, then applies
    `apply_step` with step size step_size(schedule, k) and the (graph, draws)
    pair `inputs(state)` returns, then checks the new state for divergence.
    A record is a row of k, alpha and the METRICS, where k is the state's
    own counter `state.k` (equal to the steps taken for a start with k = 0),
    plus the allocation components listed by `watch` as (agent, component)
    pairs.  Returns (final state, rows, watched rows).  Raises
    DivergenceError, carrying the diverged state's counter, when the state
    norm passes DIVERGENCE_GUARD or is not finite.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if cadence < 1:
        raise ValueError("cadence must be >= 1")
    rows, watched = [], []
    for k in range(iterations):
        alpha = step_size(schedule, k)
        if k % cadence == 0:
            rows.append({"k": state.k, "alpha": alpha,
                         **state_metrics(state, problem, mean_L, reference)})
            if watch:
                watched.append([state.X[i, j] for i, j in watch])
        state = apply_step(state, problem, *inputs(state), alpha)
        check_divergence(state, state.k)
    return state, rows, watched


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
    """One sample path of `iterate`; deterministic for a fixed seed.

    Each step draws its graph from `model` and its noise from the path's
    streams, the channel noise on that graph's edges.  The trace holds
    ceil(iterations/cadence) records, the states before steps 0, cadence,
    2*cadence, ...; final-state metrics are returned separately.  `watch` lists (agent, component) pairs whose
    allocation values are recorded on the same grid.
    """
    report = validate_model(model)
    if not report.passed:
        raise ValueError(f"graph model failed validation: {report}")
    mean_L = mean_laplacian(model)
    stream = PathStream(seed)
    graph_gen = stream.channel(GRAPH)

    def inputs(s):
        graph = sample_graph(model, graph_gen)
        return graph, draw_step_noise(noise, problem, s.X, stream, graph)

    state, rows, watched = iterate(
        initial if initial is not None else initial_state(problem), problem, schedule,
        iterations, inputs, mean_L, reference, cadence, watch,
    )
    return RunResult(
        trace=build_trace(rows),
        final_state=state,
        final_metrics=state_metrics(state, problem, mean_L, reference),
        watched=np.array(watched) if watch else None,
    )


@dataclass
class MonteCarloResult:
    paths: int
    mean_trace: Optional[Trace]
    finals: list          # per completed path: (path, final-metric dict)
    diverged: list        # (path, iteration) pairs
    path_seeds: list
    traces: list          # per completed path: (path, trace)
    watched_mean: Optional[np.ndarray] = None

    def summary(self):
        return summarize_finals([f for _, f in self.finals], self.paths, len(self.diverged))


def summarize_finals(finals, paths, diverged) -> dict:
    """Mean, median and 90th percentile of each final metric over the
    completed paths' final-metric dicts."""
    out = {"paths": paths, "diverged": diverged, "final": {}}
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
    """One path's RunResult, or the iteration at which it diverged."""
    try:
        return run_path(*args)
    except DivergenceError as exc:
        return exc.iteration


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

    Path p runs with seed path_seed(master_seed, p); the averaged trace is
    the arithmetic mean of the per-path metric curves, so the result is
    independent of execution order and of the `threads` knob.  Diverged
    paths are excluded from averages and counted.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    seeds = [path_seed(master_seed, p) for p in range(paths)]
    # run_path's positional arguments; None is the default initial state
    jobs = [(problem, model, noise, schedule, iterations, seed, reference, cadence, None, watch)
            for seed in seeds]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_mc_worker, jobs))
    else:
        results = [_mc_worker(j) for j in jobs]

    traces, finals, diverged, watched = [], [], [], []
    for p, res in enumerate(results):
        if isinstance(res, RunResult):
            traces.append((p, res.trace))
            finals.append((p, res.final_metrics))
            if res.watched is not None:
                watched.append(res.watched)
        else:
            diverged.append((p, res))
    return MonteCarloResult(
        paths=paths, mean_trace=mean_trace([t for _, t in traces]) if traces else None,
        finals=finals, diverged=diverged, path_seeds=seeds, traces=traces,
        watched_mean=np.mean(np.stack(watched, axis=0), axis=0) if watched else None,
    )
