"""Command-line front end.

Subcommands: validate, solve, run, mc, ode, report.  One JSON config
document drives every subcommand, with sections {problem | instance_seed,
graph, noise, schedule, run}; named flags override the matching config
fields.  Every section a command reads is checked before the command makes
its output directory; a malformed one is a ConfigError naming it.  Exit
codes: 0 ok, 1 numeric/convergence failure, 2 config error; a failure's
JSON error goes to stderr and to the manifest, if one was made.
"""

import argparse
import json
import math
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
# config handling: one reader, the one place a section is checked


# the numeric run.* fields, each with a flag, and their defaults; a field
# takes its default's type
RUN_DEFAULTS = {"seed": 0, "iterations": 8000, "paths": 1, "cadence": 10, "threads": 1,
                "h": 1e-3, "steps": 100_000}


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def checked(name, build, doc):
    """`build(doc)`, with a ConfigError naming `name` if `doc` is not a JSON
    object or `build` meets a field of the wrong type or value."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    try:
        return build(doc)
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}")


def read_config(args):
    """The config document with the named flags applied to its run.* fields,
    and those overrides by their dotted paths."""
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise ConfigError(f"config {args.config} must be a JSON object")
    run = config.setdefault("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run section must be a JSON object")
    overrides = {}
    for key in RUN_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            run[key] = overrides[f"run.{key}"] = val
    return config, overrides


def number(path, value, kind=int):
    """The JSON number at the dotted `path` as `kind`, int or float; a
    ConfigError naming `path` if it is not finite, or not whole for an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or kind(value) != value:
        raise ConfigError(f"{path} must be a finite {kind.__name__}, not {json.dumps(value)}")
    return kind(value)


def build_model(doc):
    if "graphs" in doc or doc.get("kind") in ("gossip", "broadcast"):
        return model_from_json(doc)
    if doc.get("kind") == "erdos_renyi_pool":
        return GraphModel.erdos_renyi_pool(
            number("graph.n", doc["n"]), number("graph.pool_size", doc.get("pool_size", 30)),
            number("graph.p_lo", doc.get("p_lo", 0.05), float),
            number("graph.p_hi", doc.get("p_hi", 0.1), float),
            seed=number("graph.seed", doc.get("seed", 0)),
        )
    raise ValueError(f"cannot build kind {doc.get('kind')!r}")


def build_run(doc):
    run = {key: number(f"run.{key}", doc.get(key, default), type(default))
           for key, default in RUN_DEFAULTS.items()}
    run["reference"] = reference = doc.get("reference", "oracle")
    if reference not in ("oracle", "none"):
        raise ConfigError(f"run.reference must be 'oracle' or 'none', not {json.dumps(reference)}")
    return run


BUILDERS = {
    "problem": problem_from_json,
    "graph": build_model,
    "noise": NoiseConfig.from_json,
    "schedule": StepSchedule.from_json,
    "run": build_run,
}
DEFAULTS = {"noise": {}, "schedule": {"kind": "power", "a": 1.0, "beta": 0.6}}


def build_section(config, name):
    """The named section of `config`, built; a problem without a 'problem'
    section is the demand-response instance of `instance_seed`."""
    if name == "problem" and "problem" not in config and "instance_seed" in config:
        return demand_response_instance(number("instance_seed", config["instance_seed"]))[0]
    doc = config.get(name, DEFAULTS.get(name))
    if doc is None:
        raise ConfigError(f"config needs a '{name}' section"
                          + (" or an 'instance_seed'" if name == "problem" else ""))
    return checked(f"{name} section", BUILDERS[name], doc)


def blas_info():
    """(name, version) of the BLAS numpy was built against, or (None, None)
    where numpy cannot say.  Every projected row's bits rest on its rounding."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None, None
    return blas.get("name"), blas.get("version")


def setup(args, command, *names):
    """Read the config and build the named sections and the run section; only
    then create the output directory and the manifest `main` writes, as
    `args.manifest`.  Returns the output directory, the named sections and
    the run section."""
    config, overrides = read_config(args)
    sections = [build_section(config, name) for name in names + ("run",)]
    if args.out is None:
        raise ConfigError(f"'{command}' needs --out")
    os.makedirs(args.out, exist_ok=True)
    blas, blas_version = blas_info()
    args.manifest = {
        "command": command,
        "version": __version__,
        "seed": sections[-1]["seed"],
        "stream_version": STREAM_VERSION,
        "numpy": np.__version__,
        "blas": blas,
        "blas_version": blas_version,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "overrides": overrides,
        "config": config,
    }
    return (args.out, *sections)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    config, _ = read_config(args)
    checks = []

    problem = None
    try:
        problem = build_section(config, "problem")
        checks.append({"check": "objective-and-set-certification", "passed": True,
                       "detail": "all objectives strictly convex; all sets certified"})
    except ConfigError as exc:
        checks.append({"check": "objective-and-set-certification", "passed": False,
                       "detail": str(exc)})

    try:
        report = validate_model(build_section(config, "graph"))
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
    out, problem, _ = setup(args, "solve", "problem")
    sol = solve_dual(problem)
    write_json(os.path.join(out, "oracle.json"), sol.to_json())
    print(f"solved: dual residual {sol.dual_residual:.3e}, {sol.kkt}")
    return 0 if sol.kkt.passed else 1


def _reference_for(problem, run):
    return None if run["reference"] == "none" else solve_dual(problem).X_star


def cmd_run(args):
    out, problem, model, noise, schedule, run = setup(
        args, "run", "problem", "graph", "noise", "schedule")
    res = run_path(
        problem, model, noise, schedule, iterations=run["iterations"], seed=run["seed"],
        reference=_reference_for(problem, run), cadence=run["cadence"],
    )
    write_csv(res.trace, os.path.join(out, "trace.csv"))
    write_json(os.path.join(out, "final.json"), res.final_metrics)
    print(f"run complete: {len(res.trace)} records -> {out}")
    return 0


def cmd_mc(args):
    out, problem, model, noise, schedule, run = setup(
        args, "mc", "problem", "graph", "noise", "schedule")
    result = monte_carlo(
        problem, model, noise, schedule, iterations=run["iterations"], paths=run["paths"],
        master_seed=run["seed"], reference=_reference_for(problem, run),
        cadence=run["cadence"], threads=run["threads"],
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
    out, problem, model, run = setup(args, "ode", "problem", "graph")
    sol = solve_dual(problem)
    mean_L = mean_laplacian(model)
    eq = equilibrium_construct(problem, mean_L, sol.X_star, sol.lambda_star)
    res = flow(
        initial_state(problem), problem, mean_L, h=run["h"], steps=run["steps"],
        equilibrium=eq.state, cadence=max(1, run["steps"] // 1000),
    )
    write_csv(res.trace, os.path.join(out, "ode_trace.csv"))
    write_json(os.path.join(out, "equilibrium.json"), {
        "residual": eq.residual,
        "lambda": eq.lambda_star.tolist(),
        "final_dist": float(np.linalg.norm(res.final_state.X - sol.X_star)),
    })
    print(f"ode flow complete: {len(res.trace)} records -> {out}")
    return 0


def summarize_finals_doc(doc):
    """summary.json from a finals.json document; its `failed` list is absent
    from directories written before failures were listed."""
    finals, diverged, failed = doc["finals"], doc["diverged"], doc.get("failed", [])
    if not all(isinstance(v, list) for v in (finals, diverged, failed)) \
            or not all(isinstance(r, dict) and isinstance(r.get("final"), dict) for r in finals):
        raise TypeError("finals, diverged and failed must be lists, and each final an object")
    return summarize_finals([r["final"] for r in finals], len(finals) + len(diverged) + len(failed),
                            len(diverged), len(failed))


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
        summary = checked(finals_path, summarize_finals_doc, read_json(finals_path))
        write_csv(mean_trace(traces), os.path.join(out, "trace_mean.csv"))
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
    sub.add_argument("--iters", dest="iterations", type=int, default=None)
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
