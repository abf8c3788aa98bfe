import json
import os

import numpy as np
import pytest

from netalloc import (
    ExperimentConfig,
    build_graph_pool,
    constraint_template,
    default_noise,
    demand_response_instance,
    experiment1,
    experiment2,
    validate_model,
)
from netalloc.engine import SampledQuadraticNoise


def desk_config(**kw):
    base = dict(paths=3, rounds=2, iterations=200, master_seed=0, cadence=10, threads=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_template_reproduces_the_six_quantities_row_by_row():
    R = constraint_template()
    assert R.shape == (12, 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=3)
        q = np.array([x.sum(), x[0] - x[1], x[1] - x[2], x[0], x[1], x[2]])
        np.testing.assert_array_equal(R[0::2] @ x, q)
        np.testing.assert_array_equal(R[1::2] @ x, -q)


def test_instance_dimensions():
    problem, spec = demand_response_instance(123)
    assert problem.n == 10 and problem.m == 3
    assert spec.R.shape == (12, 3)
    assert spec.l.shape == (10, 12)
    for agent in problem.agents:
        assert agent.local_set.R.shape == (12, 3)


def test_instance_certified_interior():
    problem, _ = demand_response_instance(5)
    for agent in problem.agents:
        assert agent.local_set.interior_slack > 1e-6


def test_instance_deterministic():
    p1, s1 = demand_response_instance(7)
    p2, s2 = demand_response_instance(7)
    np.testing.assert_array_equal(s1.Q, s2.Q)
    np.testing.assert_array_equal(s1.l, s2.l)
    np.testing.assert_array_equal(s1.P_g, s2.P_g)


def test_default_noise_settings():
    noise = default_noise()
    assert isinstance(noise.gradient, SampledQuadraticNoise)
    assert noise.gradient.sigma_psi == pytest.approx(np.sqrt(0.5))
    assert noise.gradient.sigma_theta == pytest.approx(np.sqrt(0.5))
    assert noise.resource.sigma == 1.0
    assert noise.channel_lambda.sigma == 1.0
    assert noise.channel_z.sigma == 1.0


def test_default_experiment_config():
    cfg = ExperimentConfig()
    assert cfg.paths == 200 and cfg.rounds == 100 and cfg.iterations == 8000
    assert cfg.pool_size == 30 and (cfg.p_lo, cfg.p_hi) == (0.05, 0.1)
    assert cfg.schedule.kind == "power" and cfg.schedule.a == 1.0 and cfg.schedule.beta == 0.6


def test_build_graph_pool_validates():
    model, attempts = build_graph_pool(3)
    assert attempts >= 1
    assert validate_model(model).passed


def test_experiment1_report_files(tmp_path):
    cfg = desk_config()
    rep = experiment1(cfg, out_dir=str(tmp_path))
    for name in ("config.json", "instance.json", "oracle.json", "trace_mean.csv",
                 "agents_mean.csv", "summary.json"):
        assert os.path.exists(tmp_path / name), name
    assert rep.result.mean_trace is not None
    assert rep.result.watched_mean.shape == (len(rep.result.mean_trace), 3)
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary["final"]) >= {"dist", "consensus", "balance"}


def test_experiment2_round_count_and_histograms(tmp_path):
    cfg = desk_config()
    rep = experiment2(cfg, out_dir=str(tmp_path))
    assert len(rep.rounds) == 2
    for index in ("dist", "obj_gap", "consensus", "balance"):
        path = tmp_path / f"hist_{index}.csv"
        assert path.exists()
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "bin_lo,bin_hi,count"
        assert len(rows) == 21  # 20 bins
        cells = [r.split(",") for r in rows[1:]]
        assert sum(int(c[2]) for c in cells) == 2
        lo = [float(c[0]) for c in cells]
        hi = [float(c[1]) for c in cells]
        assert lo[1:] == hi[:-1]
    # nonzero initial values so decay ratios are well defined
    for rec in rep.rounds:
        assert rec["initial"]["consensus"] > 0
        assert rec["initial"]["balance"] > 0


def test_experiment2_single_round():
    cfg = desk_config(rounds=1)
    rep = experiment2(cfg)
    edges, counts = rep.histogram("balance")
    assert counts.sum() == 1


def test_experiment_reports_deterministic(tmp_path):
    cfg = desk_config()
    a = experiment2(cfg)
    b = experiment2(cfg)
    assert a.rounds == b.rounds
