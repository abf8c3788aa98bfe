"""One benchmark process: set a workload up, then (in `measure` mode) time it.

Started by run.py as

    python3 perfbench/child.py --mode setup|measure --workload W --seed N
                               --seconds S --trace 0|1 [--tiny]

It prints `READY` on stdout as soon as the workload's inputs exist (run.py
times process start to that line as set-up time).  In `setup` mode it then
exits.  In `measure` mode it runs one untimed warm-up call, then repeats the
timed call for S seconds, runs the correctness gates and prints one JSON line
with the raw results.  With `--trace 1` the first half of the time is spent
untraced and the second half traced, so the tracing overhead is measured in
the same process.
"""

import argparse
import json
import multiprocessing
import os
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# one BLAS thread per process: dr_mc's two workers then use no more threads than cores
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def peak_rss_mb():
    """Largest peak RSS of this process and of its waited-for workers, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_rep(workload, variant, results):
    """Run the timed call once; its rate in steps per second, or None if it raised."""
    from netalloc.errors import NetallocError
    from workloads import RepResult

    try:
        r = workload.rep(variant)
    except NetallocError as exc:
        results.append(RepResult(steps=0, units=1, variant=variant, failures=[f"raised {exc!r}"]))
        return None
    results.append(r)
    return r.steps / (r.wall_ns * 1e-9)


def tail_us(durs_us):
    """(label, value): the highest of p99.9/p99/p90 with at least ten samples beyond it."""
    import numpy as np

    n = len(durs_us)
    for q, label in ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90")):
        if n * (1.0 - q / 100.0) >= 10:
            return label, float(np.percentile(durs_us, q))
    return "max", float(max(durs_us)) if durs_us else 0.0


def layer_metrics(records, setup_records, reps, wall_ns, procs):
    """Per-layer metrics from the traced timed calls (per call) and the traced set-up.

    `records` holds every process's (spans, counts, maxes) from `reps` traced
    calls that together took `wall_ns` inside the library.
    """
    import numpy as np

    calls, dur, self_ns, pa_us = {}, {}, {}, []
    counts, maxes = {}, {}
    for spans, cnt, mx in records:
        for name, t0, t1, own, _depth, _parent in spans:
            calls[name] = calls.get(name, 0) + 1
            dur[name] = dur.get(name, 0) + (t1 - t0)
            self_ns[name] = self_ns.get(name, 0) + own
            if name == "problem.project_all":
                pa_us.append((t1 - t0) * 1e-3)
        for k, v in cnt.items():
            counts[k] = counts.get(k, 0) + v
        for k, v in mx.items():
            maxes[k] = max(maxes.get(k, v), v)

    def per_call(d, name, scale=1e-9):
        return d.get(name, 0) * scale / reps

    # busy: all traced work; monte_carlo's own self time is waiting for workers
    busy = sum(v for k, v in self_ns.items() if k != "engine.monte_carlo")
    hook = counts.get("trace.hook_ns", 0)  # counting at the boundaries, inside no span
    loop_self = self_ns.get("engine.run_path", 0) + self_ns.get("odeflow.flow", 0)
    violated = sum(counts.get("projection.rows_v%d" % v, 0) for v in (1, 2, 3))
    fallbacks = calls.get("projection.project_polyhedron", 0)
    noise_calls = calls.get("engine.draw_step_noise", 0)
    tail_label, tail = tail_us(pa_us)
    setup_dur = {}
    for spans, _, _ in setup_records:
        for name, t0, t1, *_ in spans:
            setup_dur[name] = setup_dur.get(name, 0) + (t1 - t0)

    m = [
        ("problem.project_all.calls", "count", per_call(calls, "problem.project_all", 1)),
        ("problem.project_all.s", "s", per_call(dur, "problem.project_all")),
        ("problem.project_all.us_p50", "us", float(np.median(pa_us)) if pa_us else 0.0),
        ("problem.project_all.us_tail", "us", tail),
        ("problem.project_polyhedron_batch.s", "s", per_call(dur, "problem.project_polyhedron_batch")),
        ("projection.rows_v0", "count", counts.get("projection.rows_v0", 0) / reps),
        ("projection.rows_v1", "count", counts.get("projection.rows_v1", 0) / reps),
        ("projection.rows_v2", "count", counts.get("projection.rows_v2", 0) / reps),
        ("projection.rows_v3plus", "count", counts.get("projection.rows_v3", 0) / reps),
        ("projection.project_polyhedron.calls", "count", per_call(calls, "projection.project_polyhedron", 1)),
        ("projection.dykstra.calls", "count", per_call(calls, "projection.dykstra", 1)),
        ("projection.dykstra.s", "s", per_call(dur, "projection.dykstra")),
        ("projection.exact_frac", "frac", 1.0 - fallbacks / violated if violated else 1.0),
        ("projection.max_violation", "abs", maxes.get("projection.max_violation", 0.0)),
        ("problem.grad_all.s", "s", per_call(dur, "problem.grad_all")),
        ("problem.objective_value.s", "s", per_call(dur, "problem.objective_value")),
        ("network.sample_graph.calls", "count", per_call(calls, "network.sample_graph", 1)),
        ("network.sample_graph.s", "s", per_call(dur, "network.sample_graph")),
        ("network.validate_model.s", "s", per_call(dur, "network.validate_model")),
        ("network.mean_laplacian.s", "s", per_call(dur, "network.mean_laplacian")),
        ("engine.draw_step_noise.s", "s", per_call(dur, "engine.draw_step_noise")),
        ("engine.draw_step_noise.bytes_per_step", "B", counts.get("engine.draw_step_noise.bytes", 0) / noise_calls if noise_calls else 0.0),
        ("engine.apply_step.self_s", "s", per_call(self_ns, "engine.apply_step")),
        ("engine.run_path.self_s", "s", per_call(self_ns, "engine.run_path")),
        ("engine.monte_carlo.fanout_efficiency", "frac", (busy + hook) / (procs * wall_ns)),
        ("trace.mean_trace.s", "s", per_call(dur, "trace.mean_trace")),
        ("odeflow.projected_euler_step.self_s", "s", per_call(self_ns, "odeflow.projected_euler_step")),
        ("odeflow.lyapunov.s", "s", per_call(dur, "odeflow.lyapunov")),
        ("odeflow.flow.self_s", "s", per_call(self_ns, "odeflow.flow")),
        ("oracle.solve_dual.s", "s", setup_dur.get("oracle.solve_dual", 0) * 1e-9),
        ("odeflow.equilibrium_construct.s", "s", setup_dur.get("odeflow.equilibrium_construct", 0) * 1e-9),
        ("trace.busy_s", "s", busy * 1e-9 / reps),
        ("trace.hook_s", "s", hook * 1e-9 / reps),
        ("trace.covered_frac", "frac", 1.0 - loop_self / busy if busy else 0.0),
        ("share.projection", "frac", dur.get("problem.project_all", 0) / busy if busy else 0.0),
        ("share.noise", "frac", dur.get("engine.draw_step_noise", 0) / busy if busy else 0.0),
        ("share.graph", "frac", dur.get("network.sample_graph", 0) / busy if busy else 0.0),
        ("share.update", "frac", self_ns.get("engine.apply_step", 0) / busy if busy else 0.0),
    ]
    return {name: {"value": v, "unit": u} for name, u, v in m}, {"project_all_tail": tail_label, "project_all_samples": len(pa_us)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import netalloc

    if Path(netalloc.__file__).resolve().parent != SRC / "netalloc":
        sys.exit(f"netalloc imported from {netalloc.__file__}, not from {SRC}")
    from tracer import Tracer
    from workloads import TINY, WORKLOADS, Sizes

    out_dir = HERE / "out"
    spool = out_dir / ("spool-%d" % os.getpid())
    spool.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, TINY if args.tiny else Sizes(), str(out_dir))
    tracer = Tracer(str(spool)) if args.trace else None
    if tracer:
        tracer.install(tracer.setup_targets())
    workload.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        spool.rmdir()
        return 0

    setup_records, traced_ns = [], 0
    if tracer:
        tracer.uninstall()
        setup_records = tracer.collect()

    # untimed warm-up, then timed calls for the given seconds, cycling through
    # the variants (each at least once, and at least two timed calls); traced
    # runs follow each untraced call with a traced one, so that both see the
    # same machine and the difference is the tracing overhead
    results, rates, traced_rates, records = [], [], [], []
    ok = timed_rep(workload, 0, results) is not None
    t_end = perf_counter() + args.seconds
    calls = 1
    while ok and (len(rates) < max(2, workload.variants - 1) or perf_counter() < t_end):
        variant = calls % workload.variants
        calls += 1
        rate = timed_rep(workload, variant, results)
        ok = rate is not None
        if ok:
            rates.append(rate)
        if ok and tracer:
            tracer.install(tracer.step_targets())
            rate = timed_rep(workload, variant, results)
            tracer.uninstall()
            records += tracer.collect()
            ok = rate is not None
            if ok:
                traced_rates.append(rate)
                traced_ns += results[-1].wall_ns

    layers, layer_notes = {}, {}
    if tracer and traced_rates:
        layers, layer_notes = layer_metrics(
            records, setup_records, len(traced_rates), traced_ns, workload.procs)
        layers.update({
            "oracle.solve_dual.iterations": {"value": workload.oracle.iterations_used, "unit": "count"},
            "engine.diverged_paths": {"value": sum(r.diverged for r in results), "unit": "count"},
            "trace_overhead_frac": {"value": 1.0 - median(traced_rates) / median(rates), "unit": "frac"},
        })
        layer_notes["zero_on_this_workload"] = list(workload.zero_layers)
    spool.rmdir()

    failures = [f for r in results for f in r.failures]
    prints, ratios = {}, {}
    for r in results:
        prints.setdefault(r.variant, set()).add(r.fingerprint)
        ratios.setdefault(r.variant, r.dist_ratio)
    for v, p in sorted(prints.items()):
        if len(p) != 1:
            failures.append("variant %d: trace CSV fingerprints differ between repeats: %s" % (v, sorted(p)))
    dist_ratio = sum(ratios.values()) / len(ratios)
    failures += workload.final_checks(dist_ratio)
    print(json.dumps({
        "rates": rates,
        "traced_rates": traced_rates,
        "reps": len(results),
        "steps_per_rep": results[0].steps,
        "attempted": sum(r.units for r in results),
        "failed": len(failures),
        "failures": failures[:20],
        "dist_ratio": dist_ratio,
        "fingerprints": {v: sorted(p)[0] for v, p in sorted(prints.items())},
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
        "layer_notes": layer_notes,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
