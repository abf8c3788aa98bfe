"""The three benchmark workloads, their correctness gates and fingerprints.

Each workload builds its inputs from the seed in `setup` (everything a
`netalloc` CLI call pays before its first step) and then repeats one timed
call, `rep`, for each of its stream-seed variants.  Repeats of a variant use
the same inputs and seeds, so they must produce the same trace CSV; its
sha256 is the determinism fingerprint.

The workloads call the library through module attributes
(`engine.monte_carlo`, `odeflow.flow`, ...), so the tracer's rebound
wrappers see every call.
"""

import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from netalloc import engine, experiments, network, odeflow, oracle, problem, streams, trace
from netalloc.engine import GaussianNoise, NetworkState, NoiseConfig, StepSchedule
from netalloc.errors import DivergenceError
from netalloc.projection import MEMBER_TOL

# The instances are fixed and the seed drives the random streams (Monte Carlo
# master seed, flow starts, gossip path), so that steps_per_s measures the
# code rather than how hard one instance happens to be.  The demand-response
# setting is the acceptance suite's (instance 0, graph pool 12).  Timed calls
# cycle through `variants` stream seeds per seed, so that final_dist_ratio
# averages over enough paths or starts to be steady from seed to seed.
DR_INSTANCE_SEED, DR_POOL_SEED, GOSSIP_INSTANCE_SEED = 0, 12, 0

# criterion 2: the averaged final distance must fall below this share of the initial one
DIST_RATIO_GATE = 0.25
# criterion 6: per-step Lyapunov increase allowed by roundoff, relative to 1 + V
LYAPUNOV_SLACK = 1e-10
# dr_mc's worker processes: one per core of the 2-core machine the baseline was measured on
MC_THREADS = 2


@dataclass
class Sizes:
    """Work done by one timed call of each workload."""

    mc_paths: int = 4
    mc_iterations: int = 4000
    flow_starts: int = 5
    flow_steps: int = 2000
    gossip_n: int = 400
    gossip_iterations: int = 50


# small enough that the smoke check runs every workload in seconds, large
# enough that every gate still passes
TINY = Sizes(mc_paths=2, mc_iterations=3000, flow_starts=2, flow_steps=300,
             gossip_n=40, gossip_iterations=5)


@dataclass
class RepResult:
    """What one timed call produced."""

    steps: int                 # path-steps or Euler steps completed
    units: int                 # paths or flow starts attempted
    variant: int = 0
    failures: list = field(default_factory=list)
    wall_ns: int = 0           # time inside the library calls only
    fingerprint: str = ""
    dist_ratio: float = float("nan")
    diverged: int = 0


def _csv_sha(traces, path):
    """sha256 over the trace CSVs written one after another by `trace.write_csv`."""
    h = hashlib.sha256()
    for t in traces:
        trace.write_csv(t, path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    os.remove(path)
    return h.hexdigest()


def member_failures(problem_, X, what):
    worst = float(problem_.membership_violations(X).max())
    if not worst <= MEMBER_TOL:
        return [f"{what}: membership violation {worst:.3e} > MEMBER_TOL {MEMBER_TOL:g}"]
    return []


def kkt_failures(problem_, X, lam):
    rep = oracle.kkt_check(problem_, X, lam)
    return [] if rep.passed else [f"oracle KKT check failed: {rep}"]


# 0 on every workload whenever the gates pass
ALWAYS_ZERO = ("engine.diverged_paths",)
ODEFLOW_LAYERS = ("odeflow.projected_euler_step.self_s", "odeflow.lyapunov.s",
                  "odeflow.flow.self_s", "odeflow.equilibrium_construct.s")


class Workload:
    """Base: `setup()` builds inputs, `rep()` runs the timed call once."""

    name = ""
    procs = 1          # processes the timed call keeps busy
    variants = 1       # stream seeds the timed calls cycle through
    # per-layer metrics that are 0 on this workload: its timed call never
    # reaches the layer, or the layer's result makes them 0 (a box clip
    # returns rows exactly inside)
    zero_layers = ALWAYS_ZERO

    def __init__(self, seed, sizes, scratch_dir):
        self.seed = int(seed)
        self.sizes = sizes
        self.csv_path = os.path.join(scratch_dir, "%s-%d-%d.csv" % (self.name, self.seed, os.getpid()))

    def stream_seed(self, variant):
        """Seed of one variant's random streams; seed 0, variant 0 is the acceptance suite's."""
        return self.seed * self.variants + variant

    def setup(self):
        raise NotImplementedError

    def rep(self, variant):
        raise NotImplementedError

    def final_checks(self, dist_ratio):
        """Gates run once per run, outside timing, given final_dist_ratio; failure strings."""
        return kkt_failures(self.problem, self.oracle.X_star, self.oracle.lambda_star)


class DrMonteCarlo(Workload):
    """Experiment 1 / criterion 2: averaged noisy paths on the demand-response
    setting, fanned out over two worker processes.  Covers projection, noise
    draws, graph sampling, metric recording, fan-out and `mean_trace`."""

    name = "dr_mc"
    procs = MC_THREADS
    variants = 6
    zero_layers = ALWAYS_ZERO + ODEFLOW_LAYERS

    def setup(self):
        self.path0_final = None
        self.problem, _ = experiments.demand_response_instance(DR_INSTANCE_SEED)
        self.model, _ = experiments.build_graph_pool(DR_POOL_SEED)
        self.oracle = oracle.solve_dual(self.problem, tol=1e-9)
        self.reference = self.oracle.X_star
        self.noise = experiments.default_noise()
        self.schedule = StepSchedule.power(1.0, 0.6)

    def rep(self, variant, reference=None):
        s = self.sizes
        t0 = perf_counter_ns()
        mc = engine.monte_carlo(
            self.problem, self.model, self.noise, self.schedule,
            iterations=s.mc_iterations, paths=s.mc_paths, master_seed=self.stream_seed(variant),
            reference=self.reference if reference is None else reference,
            cadence=10, threads=MC_THREADS,
        )
        out = RepResult(steps=s.mc_paths * s.mc_iterations, units=s.mc_paths, variant=variant,
                        wall_ns=perf_counter_ns() - t0, diverged=len(mc.diverged))
        out.failures += [f"path {p} diverged at iteration {k}" for p, k in mc.diverged]
        if mc.finals:
            finals = np.mean([f["dist"] for _, f in mc.finals])
            out.dist_ratio = float(finals / mc.mean_trace.dist[0])
            out.fingerprint = _csv_sha([mc.mean_trace], self.csv_path)
            if variant == 0:
                self.path0_final = mc.finals[0]
        return out

    @staticmethod
    def ratio_failures(dist_ratio):
        if not dist_ratio < DIST_RATIO_GATE:
            return [f"averaged final dist ratio {dist_ratio:.4f} not below {DIST_RATIO_GATE}"]
        return []

    def final_checks(self, dist_ratio):
        """The averaged dist ratio over all variants' paths must pass criterion 2's
        gate.  Path 0 of variant 0 is replayed alone: its final rows must be
        feasible and its final metrics must equal the fanned-out run's."""
        s = self.sizes
        res = engine.run_path(
            self.problem, self.model, self.noise, self.schedule, s.mc_iterations,
            streams.path_seed(self.stream_seed(0), 0), reference=self.reference, cadence=10,
        )
        fails = super().final_checks(dist_ratio) + self.ratio_failures(dist_ratio)
        fails += member_failures(self.problem, res.final_state.X, "path 0 final state")
        if self.path0_final != (0, res.final_metrics):
            fails.append("path 0 replayed alone disagrees with the Monte Carlo run")
        return fails


class DrFlow(Workload):
    """Criterion 6: the deterministic projected-Euler flow from seeded random
    starts on the same setting, Lyapunov value recorded every step.  No noise,
    no graph sampling, no fan-out."""

    name = "dr_flow"
    variants = 6
    zero_layers = ALWAYS_ZERO + (
        "network.sample_graph.calls", "network.sample_graph.s", "network.validate_model.s",
        "network.mean_laplacian.s", "engine.draw_step_noise.s", "engine.draw_step_noise.bytes_per_step",
        "engine.apply_step.self_s", "engine.run_path.self_s", "trace.mean_trace.s",
        "share.noise", "share.graph", "share.update",
        # no flow row gets past the per-row solver
        "projection.dykstra.calls", "projection.dykstra.s",
    )

    def setup(self):
        self.problem, _ = experiments.demand_response_instance(DR_INSTANCE_SEED)
        self.model, _ = experiments.build_graph_pool(DR_POOL_SEED)
        self.oracle = oracle.solve_dual(self.problem, tol=1e-9)
        self.mean_L = network.mean_laplacian(self.model)
        self.eq = odeflow.equilibrium_construct(
            self.problem, self.mean_L, self.oracle.X_star, self.oracle.lambda_star)
        self.reference = self.eq.state.X
        n, m, k = self.problem.n, self.problem.m, self.sizes.flow_starts
        self.starts = []   # per variant; variant 0 of seed 0 has criterion 6's starts
        for v in range(self.variants):
            rngs = [np.random.default_rng(self.stream_seed(v) * k + s) for s in range(k)]
            self.starts.append([NetworkState(
                X=self.problem.project_all(rng.standard_normal((n, m))),
                Lam=rng.standard_normal((n, m)),
                Z=rng.standard_normal((n, m)),
            ) for rng in rngs])

    def rep(self, variant):
        s = self.sizes
        out = RepResult(steps=s.flow_starts * s.flow_steps, units=s.flow_starts, variant=variant)
        traces, d0, d1 = [], [], []
        for i, start in enumerate(self.starts[variant]):
            t0 = perf_counter_ns()
            try:
                res = odeflow.flow(start, self.problem, self.mean_L, h=1e-3, steps=s.flow_steps,
                                   equilibrium=self.eq.state, cadence=100)
            except DivergenceError as exc:
                out.wall_ns += perf_counter_ns() - t0
                out.diverged += 1
                out.failures.append(f"start {i}: {exc}")
                continue
            out.wall_ns += perf_counter_ns() - t0
            V = res.lyapunov
            excess = float((np.diff(V) - LYAPUNOV_SLACK * (1.0 + V[:-1])).max())
            if excess > 0.0:
                out.failures.append(f"start {i}: Lyapunov rose by {excess:.3e} beyond the slack")
            if not V[-1] < V[0]:
                out.failures.append(f"start {i}: final V {V[-1]:.6g} not below initial {V[0]:.6g}")
            out.failures += member_failures(self.problem, res.final_state.X, f"start {i} final state")
            traces.append(res.trace)
            d0.append(np.linalg.norm(start.X - self.reference))
            d1.append(np.linalg.norm(res.final_state.X - self.reference))
        if traces:
            out.dist_ratio = float(np.mean(d1) / np.mean(d0))
            out.fingerprint = _csv_sha(traces, self.csv_path)
        return out


class GossipWide(Workload):
    """One noisy path on a 400-agent box instance with randomized gossip (one
    random edge per step, Boyd et al. 2006) and all four noise channels
    Gaussian.  The dense (n, n, m) channel draws dominate and projection is a
    box clip, so edge-sparse graphs and noise should move it."""

    name = "gossip_wide"
    zero_layers = ALWAYS_ZERO + ODEFLOW_LAYERS + (
        "problem.project_polyhedron_batch.s", "projection.project_polyhedron.calls",
        "projection.dykstra.calls", "projection.dykstra.s", "projection.max_violation",
        "trace.mean_trace.s",
    )

    def setup(self):
        n = self.sizes.gossip_n
        self.problem = problem.random_instance(GOSSIP_INSTANCE_SEED, n, 3, "box")
        self.model = network.GraphModel.gossip(n)
        report = network.validate_model(self.model)
        if not report.passed:
            raise ValueError(f"gossip model failed validation: {report}")
        self.oracle = oracle.solve_dual(self.problem)
        self.reference = self.oracle.X_star
        self.noise = NoiseConfig(
            gradient=GaussianNoise(1.0), resource=GaussianNoise(1.0),
            channel_lambda=GaussianNoise(1.0), channel_z=GaussianNoise(1.0),
        )
        self.schedule = StepSchedule.power(1.0, 0.6)

    def rep(self, variant):
        out = RepResult(steps=self.sizes.gossip_iterations, units=1, variant=variant)
        t0 = perf_counter_ns()
        try:
            res = engine.run_path(self.problem, self.model, self.noise, self.schedule,
                                  self.sizes.gossip_iterations, self.stream_seed(variant),
                                  reference=self.reference, cadence=10)
        except DivergenceError as exc:
            out.wall_ns = perf_counter_ns() - t0
            out.diverged = 1
            out.failures.append(str(exc))
            return out
        out.wall_ns = perf_counter_ns() - t0
        st = res.final_state
        if not all(np.isfinite(a).all() for a in (st.X, st.Lam, st.Z)):
            out.failures.append("final state is not finite")
        out.failures += member_failures(self.problem, st.X, "final state")
        out.dist_ratio = float(res.final_metrics["dist"] / res.trace.dist[0])
        out.fingerprint = _csv_sha([res.trace], self.csv_path)
        return out


WORKLOADS = {w.name: w for w in (DrMonteCarlo, DrFlow, GossipWide)}
