"""Multi-period demand-response studies on randomly generated settings.

Ten load aggregators schedule demand over three periods to track their
generation schedules while minimizing quadratic disutility, under per-period
bounds, ramping bounds and a total-demand bound.  Study 1 averages many
sample paths of one setting; study 2 redraws the setting every round and
histograms the final performance indexes.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    GaussianNoise,
    NetworkState,
    NoiseConfig,
    SampledQuadraticNoise,
    StepSchedule,
    monte_carlo,
    run_path,
    state_metrics,
)
from .errors import GenerationError
from .network import GraphModel, mean_laplacian, validate_model, model_to_json
from .oracle import solve_dual
from .problem import AgentSpec, LocalSet, ObjectiveSpec, ProblemSpec, problem_to_json
from .streams import subseed
from .trace import write_columns, write_csv, write_json

N_AGGREGATORS = 10
PERIODS = 3


def constraint_template() -> np.ndarray:
    """The fixed 12-row constraint matrix: two-sided total, ramp and level bounds.

    Row order (upper then lower per quantity): total demand, period-1 minus
    period-2 ramp, period-2 minus period-3 ramp, then each period's level.
    """
    e = np.eye(PERIODS)
    quantities = [np.ones(PERIODS), e[0] - e[1], e[1] - e[2], e[0], e[1], e[2]]
    rows = []
    for q in quantities:
        rows.append(q)
        rows.append(-q)
    return np.array(rows)


@dataclass
class DemandResponseSpec:
    """The generated data of one demand-response setting."""

    n: int
    periods: int
    Q: np.ndarray          # (n, T, T) SPD disutility matrices
    c: np.ndarray          # (n, T)
    P_g: np.ndarray        # (n, T) generation schedules (the local resources)
    R: np.ndarray          # (12, T) shared constraint template
    l: np.ndarray          # (n, 12) per-aggregator bound values
    seed: int


def default_noise() -> NoiseConfig:
    """Sampled-coefficient gradient noise (variance 0.5) and unit-covariance
    resource/channel noises."""
    s = float(np.sqrt(0.5))
    return NoiseConfig(
        gradient=SampledQuadraticNoise(sigma_psi=s, sigma_theta=s),
        resource=GaussianNoise(1.0),
        channel_lambda=GaussianNoise(1.0),
        channel_z=GaussianNoise(1.0),
    )


def demand_response_instance(seed):
    """Random certified instance: (ProblemSpec, DemandResponseSpec).

    Bounds are placed around a coupled-feasible nominal profile at margins
    drawn from [0.5, 1.5], which guarantees a strict interior.
    """
    rng = np.random.default_rng(seed)
    R = constraint_template()
    for _ in range(100):
        try:
            return _generate_dr(rng, R, seed)
        except ValueError:
            continue
    raise GenerationError("failed to generate a certified demand-response instance")


def _generate_dr(rng, R, seed):
    n, T = N_AGGREGATORS, PERIODS
    Qs = np.empty((n, T, T))
    cs = rng.uniform(-1.0, 1.0, (n, T))
    P_g = rng.uniform(-1.0, 1.0, (n, T))
    nominal = rng.uniform(-1.0, 1.0, (n, T))
    nominal += (P_g.sum(axis=0) - nominal.sum(axis=0)) / n
    ls = np.empty((n, R.shape[0]))
    agents = []
    for i in range(n):
        eigs = rng.uniform(0.5, 5.0, T)
        U = np.linalg.qr(rng.standard_normal((T, T)))[0]
        Qs[i] = U @ np.diag(eigs) @ U.T
        quantities = R[0::2] @ nominal[i]
        margins = rng.uniform(0.5, 1.5, quantities.size)
        ls[i, 0::2] = quantities + margins
        ls[i, 1::2] = -(quantities - margins)
        agents.append(
            AgentSpec(
                ObjectiveSpec.quadratic(Qs[i], cs[i]),
                LocalSet.polyhedron(R, ls[i]),
                P_g[i],
            )
        )
    problem = ProblemSpec(agents)
    spec = DemandResponseSpec(n=n, periods=T, Q=Qs, c=cs, P_g=P_g, R=R, l=ls, seed=seed)
    return problem, spec


def build_graph_pool(seed, n=N_AGGREGATORS, pool_size=30, p_lo=0.05, p_hi=0.1, max_attempts=200):
    """Sample sparse-graph pools until one passes the connectivity-in-mean check.

    Returns (model, attempts).
    """
    for attempt in range(max_attempts):
        model = GraphModel.erdos_renyi_pool(n, pool_size, p_lo, p_hi, seed=(seed, attempt))
        if validate_model(model).passed:
            return model, attempt + 1
    raise GenerationError(f"no valid graph pool after {max_attempts} attempts")


@dataclass
class ExperimentConfig:
    """Study defaults: 200 paths or 100 rounds of 8000 iterations with step
    size (k+1)^-0.6, a 30-graph pool with edge probabilities in [0.05, 0.1],
    variance-0.5 coefficient noise and unit-covariance observation/channel
    noises."""

    paths: int = 200
    rounds: int = 100
    iterations: int = 8000
    master_seed: int = 0
    pool_size: int = 30
    p_lo: float = 0.05
    p_hi: float = 0.1
    cadence: int = 10
    threads: int = 1
    schedule: StepSchedule = field(default_factory=lambda: StepSchedule.power(1.0, 0.6))
    noise: NoiseConfig = field(default_factory=default_noise)
    watch_agents: tuple = (0, 1, 2)
    watch_component: int = 0

    def to_json(self):
        return {
            "paths": self.paths,
            "rounds": self.rounds,
            "iterations": self.iterations,
            "master_seed": self.master_seed,
            "pool_size": self.pool_size,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "cadence": self.cadence,
            "threads": self.threads,
            "schedule": self.schedule.to_json(),
            "noise": self.noise.to_json(),
            "watch_agents": list(self.watch_agents),
            "watch_component": self.watch_component,
        }


@dataclass
class Experiment1Report:
    config: ExperimentConfig
    problem: ProblemSpec
    dr_spec: DemandResponseSpec
    model: GraphModel
    pool_attempts: int
    oracle: object
    result: object            # MonteCarloResult

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "config.json"), self.config.to_json())
        write_json(os.path.join(out_dir, "instance.json"), {
            "problem": problem_to_json(self.problem),
            "graph": model_to_json(self.model),
            "pool_attempts": self.pool_attempts,
            "seed": self.dr_spec.seed,
        })
        write_json(os.path.join(out_dir, "oracle.json"), self.oracle.to_json())
        write_csv(self.result.mean_trace, os.path.join(out_dir, "trace_mean.csv"))
        watched = self.result.watched_mean
        write_columns(os.path.join(out_dir, "agents_mean.csv"), {
            "k": self.result.mean_trace.k,
            **{f"agent{i}_p{self.config.watch_component}": watched[:, j]
               for j, i in enumerate(self.config.watch_agents)},
        })
        write_json(os.path.join(out_dir, "summary.json"), self.result.summary())


def experiment1(config: ExperimentConfig, out_dir=None) -> Experiment1Report:
    """Fixed setting, averaged sample paths (allocation curves + four indexes)."""
    problem, dr_spec = demand_response_instance(config.master_seed)
    model, attempts = build_graph_pool(
        subseed(config.master_seed, 1), pool_size=config.pool_size,
        p_lo=config.p_lo, p_hi=config.p_hi,
    )
    oracle = solve_dual(problem, tol=1e-9)
    watch = [(i, config.watch_component) for i in config.watch_agents]
    result = monte_carlo(
        problem, model, config.noise, config.schedule,
        iterations=config.iterations, paths=config.paths,
        master_seed=config.master_seed, reference=oracle.X_star,
        cadence=config.cadence, threads=config.threads, watch=watch,
    )
    report = Experiment1Report(
        config=config, problem=problem, dr_spec=dr_spec, model=model,
        pool_attempts=attempts, oracle=oracle, result=result,
    )
    if out_dir is not None:
        report.write(out_dir)
    return report


@dataclass
class Experiment2Report:
    config: ExperimentConfig
    rounds: list              # per round: {"initial": {...}, "final": {...}, ...}
    resampled_pools: int

    def histogram(self, index, bins=20):
        """Log-spaced histogram of a final-metric index across rounds."""
        vals = np.array([r["final"][index] for r in self.rounds], dtype=float)
        vals = np.maximum(vals, 1e-16)
        lo, hi = vals.min(), vals.max()
        if hi <= lo * (1 + 1e-12):
            hi = lo * 10.0
        edges = np.logspace(np.log10(lo), np.log10(hi), bins + 1)
        edges[0] = min(edges[0], lo)
        edges[-1] = max(edges[-1], hi)
        counts, _ = np.histogram(vals, bins=edges)
        return edges, counts

    def write(self, out_dir, bins=20):
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "config.json"), self.config.to_json())
        write_json(os.path.join(out_dir, "rounds.json"), {
            "rounds": self.rounds, "resampled_pools": self.resampled_pools,
        })
        for index in ("dist", "obj_gap", "consensus", "balance"):
            edges, counts = self.histogram(index, bins=bins)
            write_columns(os.path.join(out_dir, f"hist_{index}.csv"),
                          {"bin_lo": edges[:-1], "bin_hi": edges[1:], "count": counts})


def experiment2(config: ExperimentConfig, out_dir=None) -> Experiment2Report:
    """Fresh setting and fresh pool each round, one path per round.

    Rounds start from a random finite state (allocations projected into the
    sets; multipliers and auxiliaries standard normal) so the consensus and
    balance indexes decay from nonzero initial values.
    """
    rounds = []
    resampled = 0
    for r in range(config.rounds):
        problem, dr_spec = demand_response_instance(subseed(config.master_seed, 2, r))
        model, attempts = build_graph_pool(
            subseed(config.master_seed, 3, r), pool_size=config.pool_size,
            p_lo=config.p_lo, p_hi=config.p_hi,
        )
        resampled += attempts - 1
        oracle = solve_dual(problem, tol=1e-8)
        init_rng = np.random.default_rng(subseed(config.master_seed, 4, r))
        initial = NetworkState(
            X=problem.project_all(init_rng.standard_normal((problem.n, problem.m))),
            Lam=init_rng.standard_normal((problem.n, problem.m)),
            Z=init_rng.standard_normal((problem.n, problem.m)),
            k=0,
        )
        initial_metrics = state_metrics(initial, problem, mean_laplacian(model), oracle.X_star)
        res = run_path(
            problem, model, config.noise, config.schedule,
            iterations=config.iterations, seed=subseed(config.master_seed, 5, r),
            reference=oracle.X_star, cadence=config.cadence, initial=initial,
        )
        final = dict(res.final_metrics)
        f_star = problem.objective_value(oracle.X_star)
        for metrics in (initial_metrics, final):
            metrics["obj_gap"] = abs(metrics["obj"] - f_star)
        rounds.append({
            "round": r,
            "pool_attempts": attempts,
            "initial": initial_metrics,
            "final": final,
        })
    report = Experiment2Report(config=config, rounds=rounds, resampled_pools=resampled)
    if out_dir is not None:
        report.write(out_dir)
    return report
