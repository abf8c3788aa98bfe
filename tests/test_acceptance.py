"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the summary
lines).  Heavy Monte Carlo cases use two worker processes.
"""

import time

import numpy as np
import pytest

from netalloc import (
    ExperimentConfig,
    GaussianNoise,
    GraphModel,
    GraphSample,
    NoiseConfig,
    PathStream,
    SampledQuadraticNoise,
    StepSchedule,
    build_graph_pool,
    demand_response_instance,
    equilibrium_construct,
    experiment2,
    flow,
    mean_laplacian,
    monte_carlo,
    project,
    random_instance,
    run_path,
    solve_dual,
    brute_force_tiny,
    kkt_check,
)
from netalloc.engine import NetworkState, apply_step, draw_step_noise
from netalloc.problem import LocalSet


def announce(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def ring_model(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return GraphModel.fixed_pool([A])


@pytest.fixture(scope="module")
def dr_setting():
    problem, spec = demand_response_instance(0)
    model, _ = build_graph_pool(12)
    oracle = solve_dual(problem, tol=1e-9)
    return problem, spec, model, oracle


@pytest.fixture(scope="module")
def certified_instances():
    """Twenty certified oracle solutions over n in {2,5,10}, m in {1,3}."""
    out = []
    for i in range(20):
        n = (2, 5, 10)[i % 3]
        m = (1, 3)[i % 2]
        kind = ("box", "polyhedron", "unconstrained")[i % 3]
        problem = random_instance(1000 + i, n, m, set_kind=kind)
        sol = solve_dual(problem, tol=1e-9)
        out.append((i, problem, sol))
    return out


def test_criterion_1_noiseless_regression(dr_setting):
    problem, _, _, oracle = dr_setting
    model = ring_model(problem.n)
    t0 = time.perf_counter()
    res = run_path(
        problem, model, NoiseConfig.noiseless(), StepSchedule.power(1.0, 0.6),
        iterations=50_000, seed=0, reference=oracle.X_star, cadence=100,
    )
    elapsed = time.perf_counter() - t0
    ratio = res.final_metrics["dist"] / res.trace.dist[0]
    announce(1, ratio < 1e-2 and elapsed < 10.0,
             f"noiseless 5e4-iteration run: dist ratio {ratio:.3e} (< 1e-2), "
             f"runtime {elapsed:.1f} s (< 10 s)")


def test_criterion_2_experiment1_desk_scale(dr_setting):
    problem, _, model, oracle = dr_setting
    t0 = time.perf_counter()
    mc = monte_carlo(
        problem, model, NoiseConfig(
            gradient=SampledQuadraticNoise(np.sqrt(0.5), np.sqrt(0.5)),
            resource=GaussianNoise(1.0),
            channel_lambda=GaussianNoise(1.0),
            channel_z=GaussianNoise(1.0),
        ),
        StepSchedule.power(1.0, 0.6), iterations=8000, paths=50,
        master_seed=0, reference=oracle.X_star, cadence=10, threads=2,
    )
    elapsed = time.perf_counter() - t0
    finals = np.array([f["dist"] for _, f in mc.finals])
    d0 = mc.mean_trace.dist[0]
    d_end = finals.mean()
    ratio = d_end / d0

    # monotone-trend test on trailing 500-iteration windows: no window-to-window
    # increase may be statistically significant (3 standard errors of the
    # across-path window difference), and the trend must clearly decrease
    ks = mc.mean_trace.k
    stack = np.stack([t.dist for _, t in mc.traces], axis=0)
    per_path_windows = []
    for start in range(2000, 8000, 500):
        sel = (ks >= start) & (ks < start + 500)
        per_path_windows.append(stack[:, sel].mean(axis=1))
    pw = np.stack(per_path_windows, axis=0)          # (windows, paths)
    windows = pw.mean(axis=1)
    diffs = np.diff(pw, axis=0)                       # per-path window changes
    se = diffs.std(axis=1, ddof=1) / np.sqrt(diffs.shape[1])
    monotone = bool((np.diff(windows) <= 3.0 * se).all()
                    and windows[-1] <= 0.9 * windows[0])
    announce(2, ratio < 0.25 and monotone and elapsed < 120.0 and not mc.diverged,
             f"50-path averaged dist at k=8000 is {100 * ratio:.1f}% of k=0 "
             f"(< 25%), trailing 500-iteration windows non-increasing within "
             f"noise: {monotone}, runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_3_experiment2_desk_scale():
    cfg = ExperimentConfig(rounds=20, iterations=8000, master_seed=1)
    t0 = time.perf_counter()
    rep = experiment2(cfg)
    elapsed = time.perf_counter() - t0
    good = 0
    for rec in rep.rounds:
        bal_ok = rec["final"]["balance"] < 0.25 * rec["initial"]["balance"]
        con_ok = rec["final"]["consensus"] < 0.25 * rec["initial"]["consensus"]
        good += bal_ok and con_ok
    frac = good / len(rep.rounds)
    announce(3, frac >= 0.9 and elapsed < 120.0,
             f"{good}/20 rounds reduced balance and consensus residuals below "
             f"25% of initial (need >= 90%), runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_4_kkt_certification(certified_instances):
    failures = []
    brute_checked = 0
    for i, problem, sol in certified_instances:
        rep = kkt_check(problem, sol.X_star, sol.lambda_star, tol=1e-6)
        if not rep.passed:
            failures.append((i, str(rep)))
        if problem.n == 2 and problem.m == 1 and \
                all(a.local_set.kind == "box" for a in problem.agents):
            ref = brute_force_tiny(problem, grid_step=1e-3)
            if np.abs(sol.X_star - ref.X_star).max() >= 2e-3:
                failures.append((i, "brute-force disagreement"))
            brute_checked += 1
    announce(4, not failures and brute_checked >= 4,
             f"20/20 oracle solutions pass the optimality check at 1e-6; "
             f"{brute_checked} tiny box instances agree with the grid oracle "
             f"within 2e-3{'; failures: ' + repr(failures) if failures else ''}")


def test_criterion_5_equilibrium_fixed_points(dr_setting, certified_instances):
    problem_dr, _, model_dr, oracle_dr = dr_setting
    cases = [(problem_dr, oracle_dr, mean_laplacian(model_dr))]
    for _, problem, sol in certified_instances:
        cases.append((problem, sol, mean_laplacian(ring_model(problem.n))))
    worst_residual = 0.0
    worst_move = 0.0
    for problem, sol, mean_L in cases:
        eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
        worst_residual = max(worst_residual, eq.residual)
        mean_graph = GraphSample.from_adjacency(np.diag(np.diag(mean_L)) - mean_L)
        draws = draw_step_noise(NoiseConfig.noiseless(), problem, eq.state.X, PathStream(0),
                                mean_graph)
        nxt = apply_step(eq.state, problem, mean_graph, draws, alpha=1e-3)
        move = np.sqrt(
            np.linalg.norm(nxt.X - eq.state.X) ** 2
            + np.linalg.norm(nxt.Lam - eq.state.Lam) ** 2
            + np.linalg.norm(nxt.Z - eq.state.Z) ** 2
        )
        worst_move = max(worst_move, move)
    announce(5, worst_residual < 1e-8 and worst_move <= 1e-12,
             f"21 constructed equilibria: worst residual {worst_residual:.2e} "
             f"(< 1e-8), worst mean-graph noiseless step move {worst_move:.2e} "
             f"(<= 1e-12)")


def test_criterion_6_flow_lyapunov(dr_setting):
    problem, _, model, oracle = dr_setting
    mean_L = mean_laplacian(model)
    eq = equilibrium_construct(problem, mean_L, oracle.X_star, oracle.lambda_star)
    worst_excess = -np.inf
    worst_terminal = 0.0
    for s in range(5):
        rng = np.random.default_rng(s)
        start = NetworkState(
            X=problem.project_all(rng.standard_normal((problem.n, problem.m))),
            Lam=rng.standard_normal((problem.n, problem.m)),
            Z=rng.standard_normal((problem.n, problem.m)),
        )
        res = flow(start, problem, mean_L, h=1e-3, steps=100_000,
                   equilibrium=eq.state, cadence=10_000)
        V = res.lyapunov
        excess = float((np.diff(V) - 1e-10 * (1.0 + V[:-1])).max())
        worst_excess = max(worst_excess, excess)
        worst_terminal = max(
            worst_terminal, float(np.linalg.norm(res.final_state.X - oracle.X_star))
        )
    announce(6, worst_excess <= 0.0 and worst_terminal < 1e-3,
             f"5 random starts, 1e5 projected-Euler steps: worst per-step "
             f"Lyapunov excess {worst_excess:.2e} (<= 0 beyond slack), worst "
             f"terminal allocation error {worst_terminal:.2e} (< 1e-3)")


def test_criterion_7_noise_moment_suite():
    problem = random_instance(0, 2, 3, set_kind="unconstrained")
    n, m = problem.n, problem.m
    noise = NoiseConfig(
        gradient=SampledQuadraticNoise(np.sqrt(0.5), np.sqrt(0.5)),
        resource=GaussianNoise(1.0),
        channel_lambda=GaussianNoise(1.0),
        channel_z=GaussianNoise(1.0),
    )
    ok = True
    details = []

    # zero mean and second moments for the additive channels, drawn on the
    # complete graph's n(n - 1) links: n * 100_000 channel draws each
    complete = GraphSample.from_adjacency(np.ones((n, n)) - np.eye(n))
    stream = PathStream(3)
    reps = 100_000 // ((n - 1) * m)
    X0 = np.zeros((n, m))
    acc = {"delta": [], "zeta": [], "eps": []}
    for _ in range(reps):
        d = draw_step_noise(noise, problem, X0, stream, complete)
        acc["delta"].append(d.delta.ravel())
        acc["zeta"].append(d.zeta.ravel())
        acc["eps"].append(d.eps.ravel())
    for name, sigma in (("delta", 1.0), ("zeta", 1.0), ("eps", 1.0)):
        samples = np.concatenate(acc[name])
        mean_ok = abs(samples.mean()) < 4 * sigma / np.sqrt(samples.size)
        mom_ok = abs((samples**2).mean() - sigma**2) < 0.1 * sigma**2
        ok &= mean_ok and mom_ok
        details.append(f"{name}: mean|4se {mean_ok}, m2|10% {mom_ok}")

    # sampled-coefficient gradient envelope at three state magnitudes
    c = noise.gradient_bound_constant(m)
    for mag in (0.0, 1.0, 10.0):
        X = np.zeros((n, m))
        X[:, 0] = mag
        stream = PathStream(int(mag) + 11)
        sq = []
        for _ in range(100_000 // n):
            d = draw_step_noise(noise, problem, X, stream, complete)
            sq.append((d.nu**2).sum(axis=1))
        emp = float(np.concatenate(sq).mean())
        env_ok = emp <= c * (1.0 + mag**2)
        ok &= env_ok
        details.append(f"||x||={mag:g}: E||nu||^2={emp:.1f} <= {c * (1 + mag**2):.1f} {env_ok}")
    announce(7, ok, "; ".join(details))


def test_criterion_8_projection_property_suite():
    rng = np.random.default_rng(8)
    worst_nonexp = -np.inf
    worst_idem = 0.0
    worst_vi = -np.inf
    cases = 0
    while cases < 1000:
        m = int(rng.integers(1, 4))
        kind = ("unconstrained", "box", "polyhedron")[cases % 3]
        anchor = rng.uniform(-1, 1, m)
        if kind == "unconstrained":
            s = LocalSet.unconstrained(m)
        elif kind == "box":
            s = LocalSet.box(anchor - rng.uniform(0.3, 1.5, m),
                             anchor + rng.uniform(0.3, 1.5, m))
        else:
            k = 2 * m + 2
            R = rng.standard_normal((k, m))
            R /= np.linalg.norm(R, axis=1, keepdims=True)
            try:
                s = LocalSet.polyhedron(R, R @ anchor + rng.uniform(0.4, 1.5, k))
            except ValueError:
                continue
        y1 = rng.normal(0, 2.0, m)
        y2 = rng.normal(0, 2.0, m)
        p1, p2 = project(s, y1), project(s, y2)
        worst_nonexp = max(worst_nonexp,
                           np.linalg.norm(p1 - p2) - np.linalg.norm(y1 - y2))
        worst_idem = max(worst_idem, float(np.linalg.norm(project(s, p1) - p1)))
        w = project(s, rng.normal(0, 2.0, m))
        worst_vi = max(worst_vi, float((y1 - p1) @ (w - p1)))
        cases += 1
    ok = worst_nonexp <= 1e-9 and worst_idem <= 1e-9 and worst_vi <= 1e-8
    announce(8, ok,
             f"1000 cases: non-expansiveness excess {worst_nonexp:.2e} (<= 1e-9), "
             f"idempotence gap {worst_idem:.2e} (<= 1e-9), variational "
             f"inequality max {worst_vi:.2e} (<= 1e-8)")


def test_criterion_9_thread_determinism(tmp_path):
    import json as _json

    from netalloc.cli import main

    cfg = {
        "instance_seed": 0,
        "graph": {"kind": "erdos_renyi_pool", "n": 10, "pool_size": 30,
                  "p_lo": 0.05, "p_hi": 0.1, "seed": 12},
        "noise": {
            "gradient": {"kind": "sampled_quadratic",
                         "sigma_psi": 0.7071067811865476,
                         "sigma_theta": 0.7071067811865476},
            "resource": {"kind": "gaussian", "sigma": 1.0},
            "channel_lambda": {"kind": "gaussian", "sigma": 1.0},
            "channel_z": {"kind": "gaussian", "sigma": 1.0},
        },
        "schedule": {"kind": "power", "a": 1.0, "beta": 0.6},
        "run": {"seed": 5, "iterations": 500, "paths": 8, "cadence": 10,
                "reference": "none"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_json.dumps(cfg))
    assert main(["mc", "--config", str(cfg_path), "--out", str(tmp_path / "one"),
                 "--threads", "1"]) == 0
    assert main(["mc", "--config", str(cfg_path), "--out", str(tmp_path / "eight"),
                 "--threads", "8"]) == 0
    same_mean = ((tmp_path / "one" / "trace_mean.csv").read_bytes()
                 == (tmp_path / "eight" / "trace_mean.csv").read_bytes())
    import os
    same_paths = all(
        (tmp_path / "one" / "paths" / p).read_bytes()
        == (tmp_path / "eight" / "paths" / p).read_bytes()
        for p in sorted(os.listdir(tmp_path / "one" / "paths"))
    )
    announce(9, same_mean and same_paths,
             "mc outputs byte-identical across --threads 1 and --threads 8 "
             f"(mean trace: {same_mean}, all 8 path traces: {same_paths})")
