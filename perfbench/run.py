"""netalloc benchmark: one workload, end-to-end metrics or the per-layer split.

    python3 perfbench/run.py --workload dr_mc|dr_flow|gossip_wide --seed N
                             --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's `src/`.  With `--trace 0` it prints the
end-to-end metrics (setup_s, steps_per_s, peak_rss_mb, final_dist_ratio,
passed_frac), with `--trace 1` the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every correctness gate passed.  A record of the run,
with the environment and the determinism fingerprint, is written to
perfbench/out/.

The benchmark itself uses only the standard library; the processes it starts
(child.py) use numpy and netalloc.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dr_mc", "dr_flow", "gossip_wide")

# set-up is timed in this many fresh processes, the measuring process included
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "final_dist_ratio": "ratio",
    "passed_frac": "frac",
}


class Child:
    """A child.py process in its own process group, killed at the deadline."""

    def __init__(self, args, deadline):
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")] + args,
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT), start_new_session=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - perf_counter()), self.kill)
        self.timer.start()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait_ready(self):
        """Seconds from process start until the child reported its inputs ready."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return perf_counter() - self.t0
        return None

    def finish(self):
        """Remaining stdout lines and the exit code; the process group is gone after."""
        try:
            lines = self.proc.stdout.read().splitlines()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.kill()  # workers left behind by a crashed child
            self.proc.stdout.close()
        return lines, code


def child_args(mode, a):
    args = ["--mode", mode, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    return args + (["--tiny"] if a.tiny else [])


def run(a):
    """Run one benchmark; returns (exit code, result dict or None)."""
    if not (ROOT / "src" / "netalloc" / "__init__.py").is_file():
        print(f"error: no netalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2, None
    OUT.mkdir(exist_ok=True)
    # every process this run starts is killed at this deadline: the timed phase
    # (traced runs go one call past it), warm-up, set-up probes and final checks
    deadline = perf_counter() + 3.0 * a.seconds + 80.0

    def setup_probes(count):
        for _ in range(count):
            c = Child(child_args("setup", a), deadline)
            setup.append(c.wait_ready())
            if c.finish()[1] != 0 or setup[-1] is None:
                return False
        return True

    # set-up is sampled before and after the timed phase, so that the median
    # does not rest on one moment of the machine
    probes = 0 if a.trace else SETUP_SAMPLES - 1
    setup = []
    if not setup_probes(probes // 2):
        print("error: set-up process failed", file=sys.stderr)
        return 1, None
    c = Child(child_args("measure", a), deadline)
    setup.append(c.wait_ready())
    lines, code = c.finish()
    if code != 0 or setup[-1] is None or not lines:
        print(f"error: measuring process exited with code {code}", file=sys.stderr)
        return 1, None
    doc = json.loads(lines[-1])
    if not setup_probes(probes - probes // 2):
        print("error: set-up process failed", file=sys.stderr)
        return 1, None

    failed, attempted = doc["failed"], doc["attempted"]
    if a.trace:
        metrics = doc["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "steps_per_s": statistics.median(doc["rates"]) if doc["rates"] else 0.0,
            "peak_rss_mb": doc["peak_rss_mb"],
            "final_dist_ratio": doc["dist_ratio"],
            "passed_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  "
          f"timed calls {doc['reps']} of {doc['steps_per_rep']} steps")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:14.6g} {v['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} frac  ({failed} of {attempted} units)")
    for f in doc["failures"]:
        print(f"  FAILED: {f}")
    for v, sha in doc["fingerprints"].items():
        print(f"  fingerprint, variant {v} (sha256 of CSV) {sha}")
    if not a.trace:
        print(f"  set-up samples (s)                       {' '.join('%.4f' % s for s in setup)}")
    print(f"  environment                              {json.dumps(doc['env'])}")
    record = dict(result, workload=a.workload, seed=a.seed, trace=a.trace, tiny=a.tiny,
                  setup_samples=setup, **{k: doc[k] for k in (
                      "rates", "traced_rates", "reps", "steps_per_rep", "failures",
                      "fingerprints", "layer_notes", "env")})
    name = "%s-seed%d-trace%d%s.json" % (a.workload, a.seed, a.trace, "-tiny" if a.tiny else "")
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    return (0 if result["correct"] else 1), result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the random streams (default 0: the acceptance suite's)")
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    return ap.parse_args(argv)


def main(argv=None):
    code, result = run(parse_args(argv))
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
