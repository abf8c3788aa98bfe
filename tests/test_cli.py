import json
import os

import numpy as np
import pytest

from netalloc.cli import main


def base_config(**run):
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
        "run": {"seed": 1, "iterations": 300, "paths": 3, "cadence": 10, "threads": 1},
    }
    cfg["run"].update(run)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_passes_on_reference_settings(tmp_path, capsys):
    rc = main(["validate", "--config", write_config(tmp_path, base_config())])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS connectivity-in-mean" in out


@pytest.mark.parametrize("graph, method", [
    (None, "exact"),
    ({"kind": "gossip", "n": 10}, "closed form"),
])
def test_validate_json_names_how_s2_was_found(tmp_path, graph, method):
    cfg = base_config()
    if graph is not None:
        cfg["graph"] = graph
    assert main(["validate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "v")]) == 0
    doc = json.loads((tmp_path / "v" / "validate.json").read_text())
    (check,) = [c for c in doc["checks"] if c["check"] == "connectivity-in-mean"]
    assert check["method"] == method and check["s2"] > 0


def test_validate_fails_on_disconnected_pool(tmp_path, capsys):
    cfg = base_config()
    cfg["graph"] = {"kind": "fixed_pool", "n": 10,
                    "graphs": [np.zeros((10, 10)).ravel().tolist()]}
    rc = main(["validate", "--config", write_config(tmp_path, cfg)])
    assert rc == 1
    assert "FAIL connectivity-in-mean" in capsys.readouterr().out


def test_validate_fails_on_indefinite_objective(tmp_path, capsys):
    cfg = base_config()
    del cfg["instance_seed"]
    cfg["problem"] = {
        "n": 2, "m": 1,
        "agents": [
            {"Q": [-1.0], "c": [0.0], "set": {"kind": "unconstrained", "m": 1}, "d": [0.1]},
            {"Q": [1.0], "c": [0.0], "set": {"kind": "unconstrained", "m": 1}, "d": [0.2]},
        ],
    }
    rc = main(["validate", "--config", write_config(tmp_path, cfg)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL objective-and-set-certification" in out
    assert "positive definite" in out


def one_period_problem(Q0=1.0, d0=0.1):
    cfg = base_config()
    del cfg["instance_seed"]
    cfg["problem"] = {
        "n": 2, "m": 1,
        "agents": [
            {"Q": [Q0], "c": [0.0], "set": {"kind": "unconstrained", "m": 1}, "d": [d0]},
            {"Q": [1.0], "c": [0.0], "set": {"kind": "unconstrained", "m": 1}, "d": [0.2]},
        ],
    }
    return cfg


@pytest.mark.parametrize("field", ["Q0", "d0"])
def test_non_finite_problem_data_fails_certification(tmp_path, capsys, field):
    """JSON reads NaN: a config holding one fails `validate`'s certification
    (and `solve` exits 2 with a ConfigError) instead of passing into the oracle."""
    cfg = write_config(tmp_path, one_period_problem(**{field: float("nan")}))
    assert "NaN" in open(cfg).read()
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL objective-and-set-certification" in out
    assert "coupled-feasibility" not in out
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ConfigError" and "finite" in doc["error"]["message"]


def test_config_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert doc["error"]["type"] == "ConfigError"
    assert "line" in doc["error"]["message"]


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("config", ["absent.json", "."], ids=["missing-file", "directory"])
def test_unreadable_config_is_a_json_config_error(tmp_path, capsys, config):
    rc = main(["run", "--config", str(tmp_path / config), "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ConfigError"
    assert str(tmp_path / config) in doc["error"]["message"]


def test_mc_with_zero_threads_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(reference="none", iterations=20, paths=2))
    rc = main(["mc", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == {"type": "ValueError", "message": "threads must be >= 1"}


def test_failed_command_manifest_records_its_error(tmp_path, capsys):
    """A command that fails once its output directory exists leaves a manifest
    with its wall time and the error it printed on stderr; a finished
    command's manifest has no error."""
    cfg = write_config(tmp_path, base_config(reference="none", iterations=20, paths=2))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert doc["error"] == err["error"] == {"type": "ValueError",
                                            "message": "threads must be >= 1"}
    assert doc["command"] == "mc" and doc["wall_s"] > 0.0
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "p"), "--threads", "1"]) == 0
    assert "error" not in json.loads((tmp_path / "p" / "manifest.json").read_text())


def test_run_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path, base_config(reference="none"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    ta = (tmp_path / "a" / "trace.csv").read_bytes()
    tb = (tmp_path / "b" / "trace.csv").read_bytes()
    assert ta == tb


def test_run_manifest_reproducibility_fields(tmp_path):
    cfg = write_config(tmp_path, base_config(reference="none"))
    main(["run", "--config", cfg, "--out", str(tmp_path / "m"), "--seed", "9"])
    doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert doc["command"] == "run"
    assert doc["seed"] == 9
    assert doc["version"]
    assert doc["config"]["run"]["seed"] == 9
    assert doc["overrides"] == {"run.seed": 9}


def test_manifest_records_stream_version_and_environment(tmp_path):
    import platform

    from netalloc.streams import STREAM_VERSION

    cfg = write_config(tmp_path, base_config(reference="none", iterations=20))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert doc["stream_version"] == STREAM_VERSION == 2
    assert doc["numpy"] == np.__version__
    assert doc["python"] == platform.python_version()
    assert doc["cpu_count"] == os.cpu_count()


def test_manifest_records_blas_and_wall_time(tmp_path):
    """The manifest names the BLAS (a projected row's bits rest on its rounding)
    and, once the command has finished, its wall time."""
    from time import perf_counter

    cfg = write_config(tmp_path, base_config(reference="none", iterations=20))
    start = perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    elapsed = perf_counter() - start
    doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (doc["blas"], doc["blas_version"]) == (blas["name"], blas["version"])
    assert doc["blas"] and doc["blas_version"]
    assert 0.0 < doc["wall_s"] <= elapsed


def test_mc_thread_invariance_and_report_roundtrip(tmp_path):
    cfg = write_config(tmp_path, base_config(reference="none", iterations=200, paths=4))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "t8"), "--threads", "8"]) == 0
    m1 = (tmp_path / "t1" / "trace_mean.csv").read_bytes()
    m8 = (tmp_path / "t8" / "trace_mean.csv").read_bytes()
    assert m1 == m8
    for p in sorted(os.listdir(tmp_path / "t1" / "paths")):
        a = (tmp_path / "t1" / "paths" / p).read_bytes()
        b = (tmp_path / "t8" / "paths" / p).read_bytes()
        assert a == b
    # report regenerates the same derived artifacts from the stored paths
    before = (tmp_path / "t1" / "summary.json").read_bytes()
    assert main(["report", "--out", str(tmp_path / "t1")]) == 0
    assert (tmp_path / "t1" / "trace_mean.csv").read_bytes() == m1
    assert (tmp_path / "t1" / "summary.json").read_bytes() == before


def test_ode_lyapunov_monotone(tmp_path):
    cfg = write_config(tmp_path, base_config())
    rc = main(["ode", "--config", cfg, "--out", str(tmp_path / "ode"),
               "--h", "1e-3", "--steps", "2000"])
    assert rc == 0
    rows = (tmp_path / "ode" / "ode_trace.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    li = header.index("lyapunov")
    V = np.array([float(r.split(",")[li]) for r in rows[1:]])
    assert (np.diff(V) <= 1e-10 * (1.0 + V[:-1])).all()
    eq = json.loads((tmp_path / "ode" / "equilibrium.json").read_text())
    assert eq["residual"] < 1e-8


def test_solve_writes_oracle_json(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "sol")]) == 0
    doc = json.loads((tmp_path / "sol" / "oracle.json").read_text())
    assert len(doc["X"]) == 30  # 10 agents x 3 periods, row-major
    assert len(doc["lambda"]) == 3
    assert doc["residuals"]["dual"] < 1e-6


def test_report_on_unknown_dir_exits_2(tmp_path, capsys):
    os.makedirs(tmp_path / "empty")
    assert main(["report", "--out", str(tmp_path / "empty")]) == 2


def test_report_without_finals_names_the_missing_file(tmp_path, capsys):
    """Stored path traces without finals.json: a JSON ConfigError naming the
    file, and nothing rewritten."""
    cfg = write_config(tmp_path, base_config(reference="none", iterations=20, paths=2))
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    os.remove(tmp_path / "o" / "finals.json")
    os.remove(tmp_path / "o" / "trace_mean.csv")
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "o")]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ConfigError"
    assert str(tmp_path / "o" / "finals.json") in doc["error"]["message"]
    assert not (tmp_path / "o" / "trace_mean.csv").exists()



def _malformed(key, value):
    def edit(cfg):
        cfg[key] = value
        return cfg
    return edit


def _malformed_run_field(key, value):
    def edit(cfg):
        cfg["run"][key] = value
        return cfg
    return edit


def _problem_with_string_agents(cfg):
    del cfg["instance_seed"]
    cfg["problem"] = {"n": 2, "m": 1, "agents": "ab"}
    return cfg


@pytest.mark.parametrize("edit, named", [
    (_malformed("graph", "erdos_renyi_pool"), "graph section"),
    (_malformed("noise", [{"kind": "gaussian", "sigma": 1.0}]), "noise section"),
    (_malformed("schedule", 0.6), "schedule section"),
    (_malformed("run", 20), "run section"),
    (_malformed("instance_seed", [0]), "instance_seed"),
    (_malformed_run_field("iterations", [20]), "run.iterations"),
    (_malformed_run_field("reference", "nonee"), "run.reference"),
    (_problem_with_string_agents, "problem section"),
    (lambda cfg: [cfg], "config.json"),
    ({}, "finals.json"),
    ({"finals": {"path": 0, "final": {}}, "diverged": []}, "finals.json"),
], ids=["graph-string", "noise-list", "schedule-number", "run-number", "instance-seed-list",
        "iterations-list", "reference-typo", "agents-string", "top-level-array",
        "finals-empty", "finals-not-a-list"])
def test_malformed_input_is_one_json_config_error(tmp_path, capsys, edit, named):
    """A section, field or finals.json of the wrong JSON type, or a
    `run.reference` other than "oracle" or "none" (which would otherwise run
    the oracle): exit 2 with one JSON ConfigError line naming it, no output
    directory for a config, and nothing rewritten by `report`."""
    out = tmp_path / "o"
    if isinstance(edit, dict):  # a finals.json document for `report`
        cfg = write_config(tmp_path, base_config(reference="none", iterations=20, paths=2))
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
        for name in ("trace_mean.csv", "summary.json"):
            os.remove(out / name)
        (out / "finals.json").write_text(json.dumps(edit))
        capsys.readouterr()
        rc = main(["report", "--out", str(out)])
    else:
        cfg = write_config(tmp_path, edit(base_config(reference="none", iterations=20)))
        rc = main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    doc = json.loads(line)
    assert doc["error"]["type"] == "ConfigError" and named in doc["error"]["message"]
    if isinstance(edit, dict):
        assert sorted(os.listdir(out)) == ["finals.json", "manifest.json", "paths"]
    else:
        assert not out.exists()
