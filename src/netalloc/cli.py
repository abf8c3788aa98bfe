"""Command-line front end.

Subcommands: validate, solve, run, mc, ode, report.  One JSON config
document drives every subcommand, with sections {problem | instance_seed,
graph, noise, schedule, run}; named flags override the matching config
fields.  Exit codes: 0 ok, 1 numeric/convergence failure, 2 config error;
a failure's JSON error goes to stderr and to the manifest, if one was made.
"""

import argparse
import json
import os
import platform
import sys
from time import perf_counter

import numpy as np

from . import __version__
from .engine import (
    NoiseConfig,
    StepSchedule,
    initial_state,
    monte_carlo,
    run_path,
    summarize_finals,
)
from .errors import ConfigError, ConvergenceError, NetallocError
from .experiments import demand_response_instance
from .network import GraphModel, mean_laplacian, model_from_json, validate_model
from .odeflow import equilibrium_construct, flow
from .oracle import kkt_check, solve_dual
from .problem import problem_from_json
from .streams import STREAM_VERSION
from .trace import mean_trace, read_csv, write_csv, write_json


# ---------------------------------------------------------------------------
# config handling


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def apply_overrides(config, args):
    """Named flags override config fields by their dotted paths (run.*)."""
    overrides = {}
    run = config.setdefault("run", {})
    for flag, key in (("seed", "seed"), ("paths", "paths"), ("iters", "iterations"),
                      ("threads", "threads"), ("cadence", "cadence"),
                      ("h", "h"), ("steps", "steps")):
        val = getattr(args, flag, None)
        if val is not None:
            run[key] = val
            overrides[f"run.{key}"] = val
    return overrides


def build_problem(config):
    if "problem" in config:
        try:
            return problem_from_json(config["problem"]), None
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"problem section: {exc}")
    if "instance_seed" in config:
        problem, dr = demand_response_instance(int(config["instance_seed"]))
        return problem, dr
    raise ConfigError("config needs either a 'problem' section or an 'instance_seed'")


def build_model(config):
    doc = config.get("graph")
    if doc is None:
        raise ConfigError("config needs a 'graph' section")
    try:
        if "graphs" in doc or doc.get("kind") in ("gossip", "broadcast"):
            return model_from_json(doc)
        if doc.get("kind") == "erdos_renyi_pool":
            return GraphModel.erdos_renyi_pool(
                int(doc["n"]), int(doc.get("pool_size", 30)),
                float(doc.get("p_lo", 0.05)), float(doc.get("p_hi", 0.1)),
                seed=int(doc.get("seed", 0)),
            )
        raise ConfigError(f"graph section: cannot build kind {doc.get('kind')!r}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"graph section: {exc}")


def build_noise(config):
    try:
        return NoiseConfig.from_json(config.get("noise", {}))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"noise section: {exc}")


def build_schedule(config):
    doc = config.get("schedule", {"kind": "power", "a": 1.0, "beta": 0.6})
    try:
        return StepSchedule.from_json(doc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"schedule section: {exc}")


def run_section(config):
    run = dict(config.get("run", {}))
    run.setdefault("seed", 0)
    run.setdefault("iterations", 8000)
    run.setdefault("paths", 1)
    run.setdefault("cadence", 10)
    run.setdefault("threads", 1)
    run.setdefault("h", 1e-3)
    run.setdefault("steps", 100_000)
    run.setdefault("reference", "oracle")
    return run


def blas_info():
    """(name, version) of the BLAS numpy was built against, or (None, None)
    where numpy cannot say.  Every projected row's bits rest on its rounding."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None, None
    return blas.get("name"), blas.get("version")


def prepare_out(args, command, config, overrides):
    """Create the output directory and build its manifest as `args.manifest`;
    `main` writes it once the command has returned or raised, with the
    command's wall time `wall_s` and, on failure, its `error`."""
    out = args.out
    if out is None:
        raise ConfigError(f"'{command}' needs --out")
    os.makedirs(out, exist_ok=True)
    blas, blas_version = blas_info()
    args.manifest = {
        "command": command,
        "version": __version__,
        "seed": run_section(config).get("seed"),
        "stream_version": STREAM_VERSION,
        "numpy": np.__version__,
        "blas": blas,
        "blas_version": blas_version,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "overrides": overrides,
        "config": config,
    }
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    config = load_config(args.config)
    apply_overrides(config, args)
    checks = []

    problem = None
    try:
        problem, _ = build_problem(config)
        checks.append({"check": "objective-and-set-certification", "passed": True,
                       "detail": "all objectives strictly convex; all sets certified"})
    except ConfigError as exc:
        checks.append({"check": "objective-and-set-certification", "passed": False,
                       "detail": str(exc)})

    model = None
    try:
        model = build_model(config)
        report = validate_model(model)
        checks.append({
            "check": "connectivity-in-mean", "passed": bool(report.passed),
            "detail": str(report),
            "s2": None if np.isnan(report.s2) else report.s2,
            "method": report.method,
            "symmetry_defect": report.symmetry_defect,
        })
    except ConfigError as exc:
        checks.append({"check": "connectivity-in-mean", "passed": False, "detail": str(exc)})

    if problem is not None:
        try:
            sol = solve_dual(problem, tol=1e-6)
            rep = kkt_check(problem, sol.X_star, sol.lambda_star, tol=1e-5)
            checks.append({"check": "coupled-feasibility", "passed": bool(rep.passed),
                           "detail": str(rep)})
        except (ConvergenceError, ValueError) as exc:
            checks.append({"check": "coupled-feasibility", "passed": False, "detail": str(exc)})

    passed = all(c["passed"] for c in checks)
    doc = {"passed": passed, "checks": checks}
    for c in checks:
        print(("PASS " if c["passed"] else "FAIL ") + c["check"] + ": " + c["detail"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "validate.json"), doc)
    else:
        print(json.dumps(doc, sort_keys=True))
    return 0 if passed else 1


def cmd_solve(args):
    config = load_config(args.config)
    overrides = apply_overrides(config, args)
    problem, _ = build_problem(config)
    out = prepare_out(args, "solve", config, overrides)
    sol = solve_dual(problem)
    write_json(os.path.join(out, "oracle.json"), sol.to_json())
    print(f"solved: dual residual {sol.dual_residual:.3e}, {sol.kkt}")
    return 0 if sol.kkt.passed else 1


def _reference_for(problem, run):
    if run.get("reference") == "none":
        return None
    return solve_dual(problem).X_star


def cmd_run(args):
    config = load_config(args.config)
    overrides = apply_overrides(config, args)
    problem, _ = build_problem(config)
    model = build_model(config)
    noise = build_noise(config)
    schedule = build_schedule(config)
    run = run_section(config)
    out = prepare_out(args, "run", config, overrides)
    reference = _reference_for(problem, run)
    res = run_path(
        problem, model, noise, schedule, iterations=int(run["iterations"]),
        seed=int(run["seed"]), reference=reference, cadence=int(run["cadence"]),
    )
    write_csv(res.trace, os.path.join(out, "trace.csv"))
    write_json(os.path.join(out, "final.json"), res.final_metrics)
    print(f"run complete: {len(res.trace)} records -> {out}")
    return 0


def cmd_mc(args):
    config = load_config(args.config)
    overrides = apply_overrides(config, args)
    problem, _ = build_problem(config)
    model = build_model(config)
    noise = build_noise(config)
    schedule = build_schedule(config)
    run = run_section(config)
    out = prepare_out(args, "mc", config, overrides)
    reference = _reference_for(problem, run)
    result = monte_carlo(
        problem, model, noise, schedule, iterations=int(run["iterations"]),
        paths=int(run["paths"]), master_seed=int(run["seed"]), reference=reference,
        cadence=int(run["cadence"]), threads=int(run["threads"]),
    )
    paths_dir = os.path.join(out, "paths")
    os.makedirs(paths_dir, exist_ok=True)
    for p, trace_p in result.traces:
        write_csv(trace_p, os.path.join(paths_dir, f"path_{p:04d}.csv"))
    write_json(os.path.join(out, "finals.json"), {
        "finals": [{"path": p, "final": final} for p, final in result.finals],
        "diverged": [{"path": p, "iteration": it} for p, it in result.diverged],
        "failed": [{"path": p, "iteration": it, "kind": kind, "message": msg}
                   for p, it, kind, msg in result.failed],
        "path_seeds": result.path_seeds,
    })
    if result.mean_trace is not None:
        write_csv(result.mean_trace, os.path.join(out, "trace_mean.csv"))
    write_json(os.path.join(out, "summary.json"), result.summary())
    print(f"mc complete: {result.paths} paths ({len(result.diverged)} diverged, "
          f"{len(result.failed)} failed) -> {out}")
    return 0


def cmd_ode(args):
    config = load_config(args.config)
    overrides = apply_overrides(config, args)
    problem, _ = build_problem(config)
    model = build_model(config)
    run = run_section(config)
    out = prepare_out(args, "ode", config, overrides)
    sol = solve_dual(problem)
    mean_L = mean_laplacian(model)
    eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
    res = flow(
        initial_state(problem), problem, mean_L, h=float(run["h"]),
        steps=int(run["steps"]), equilibrium=eq.state,
        cadence=max(1, int(run["steps"]) // 1000),
    )
    write_csv(res.trace, os.path.join(out, "ode_trace.csv"))
    write_json(os.path.join(out, "equilibrium.json"), {
        "residual": eq.residual,
        "lambda": eq.lambda_star.tolist(),
        "final_dist": float(np.linalg.norm(res.final_state.X - sol.X_star)),
    })
    print(f"ode flow complete: {len(res.trace)} records -> {out}")
    return 0


def cmd_report(args):
    out = args.out
    if out is None or not os.path.isdir(out):
        raise ConfigError("'report' needs --out pointing at an existing output directory")
    paths_dir = os.path.join(out, "paths")
    if os.path.isdir(paths_dir) and os.listdir(paths_dir):
        traces = []
        for name in sorted(os.listdir(paths_dir)):
            if name.endswith(".csv"):
                traces.append(read_csv(os.path.join(paths_dir, name)))
        if not traces:
            raise ConfigError(f"no stored path traces under {paths_dir}")
        finals_path = os.path.join(out, "finals.json")
        if not os.path.isfile(finals_path):
            raise ConfigError(f"stored path traces but no {finals_path}")
        write_csv(mean_trace(traces), os.path.join(out, "trace_mean.csv"))
        with open(finals_path) as fh:
            finals_doc = json.load(fh)
        finals, diverged = finals_doc["finals"], len(finals_doc["diverged"])
        failed = len(finals_doc.get("failed", []))  # absent from directories written before failures were listed
        summary = summarize_finals([r["final"] for r in finals], len(finals) + diverged + failed,
                                   diverged, failed)
        write_json(os.path.join(out, "summary.json"), summary)
        print(f"report regenerated from {len(traces)} stored paths -> {out}")
        return 0
    trace_path = os.path.join(out, "trace.csv")
    if os.path.exists(trace_path):
        trace = read_csv(trace_path)
        last = {name: (None if col is None else float(col[-1]))
                for name, col in trace.columns().items()}
        write_json(os.path.join(out, "summary.json"), {"last_record": last})
        print(f"report regenerated from trace.csv -> {out}")
        return 0
    raise ConfigError(f"nothing to report on in {out}")


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub):
    sub.add_argument("--config", required=False, help="JSON config document")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--paths", type=int, default=None)
    sub.add_argument("--iters", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--cadence", type=int, default=None)
    sub.add_argument("--h", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="netalloc",
        description="Distributed resource allocation over random networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "validate": cmd_validate, "solve": cmd_solve, "run": cmd_run,
        "mc": cmd_mc, "ode": cmd_ode, "report": cmd_report,
    }
    for name in handlers:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)

    if args.command != "report" and args.config is None:
        print(json.dumps({"error": {"type": "ConfigError",
                                    "message": f"'{args.command}' needs --config"}}),
              file=sys.stderr)
        return 2
    start, error = perf_counter(), None
    try:
        code = handlers[args.command](args)
    except (ValueError, NetallocError) as exc:
        code = 2 if isinstance(exc, (ConfigError, ValueError)) else 1
        error = {"type": type(exc).__name__, "message": str(exc)}
    if getattr(args, "manifest", None) is not None:
        args.manifest["wall_s"] = perf_counter() - start
        if error is not None:
            args.manifest["error"] = error
        write_json(os.path.join(args.out, "manifest.json"), args.manifest)
    if error is not None:
        print(json.dumps({"error": error}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
