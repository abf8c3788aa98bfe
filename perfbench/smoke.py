"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs and passes its gates in both modes, that
each metric BENCHMARK.json names is printed with the unit it declares, that
a traced run reports 0 for exactly the per-layer metrics its workload lists
in `zero_layers`, and that the gates trip when the reference X* is perturbed.  Exits non-zero on
the first failed check.
"""

import json
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import TINY, WORKLOADS, DrMonteCarlo, kkt_failures  # noqa: E402 (needs src/)

HERE = Path(__file__).resolve().parent
# a difference of two measured rates, of either sign
SIGNED = ("trace_overhead_frac",)


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")
    for wl in run.WORKLOADS:
        for trace in (0, 1):
            code, result = run.run(run.parse_args(
                ["--workload", wl, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]))
            check(code == 0 and result["correct"], f"{wl} trace {trace}: runs and passes its gates")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], f"{wl} trace {trace}: prints exactly the declared metrics and units")
            if trace:
                zero = set(WORKLOADS[wl].zero_layers)
                check(zero <= set(declared[1]), f"{wl}: its zero layers are declared metrics")
                wrong = sorted(k for k, v in result["metrics"].items()
                               if k not in SIGNED and (v["value"] == 0) != (k in zero))
                check(not wrong, f"{wl}: exactly its listed zero layers are 0 {wrong or ''}")

    # the gates must trip on a wrong reference
    wl = DrMonteCarlo(0, TINY, str(run.OUT))
    wl.setup()
    check(not wl.ratio_failures(wl.rep(0).dist_ratio), "dr_mc: the dist-ratio gate passes against the oracle's X*")
    shifted = wl.oracle.X_star + 0.5
    check(bool(wl.ratio_failures(wl.rep(0, reference=shifted).dist_ratio)),
          "dr_mc: the dist-ratio gate trips against a perturbed X*")
    check(bool(kkt_failures(wl.problem, shifted, wl.oracle.lambda_star)),
          "the oracle KKT gate trips on a perturbed X*")
    return 0


if __name__ == "__main__":
    sys.exit(main())
