"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads dr_mc dr_flow gossip_wide
                               --seeds 0-9 [--trace 0|1] [--write results/BENCH_x.json]

Runs run.py once per (workload, seed), one run at a time, and prints per
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the bound that
BENCHMARK.json fixes for it.  `--write` stores the runs and the summary as a
BENCH file, the benchmark's trajectory point for the commit measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["dr_mc", "dr_flow", "gossip_wide"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"), help="range such as 0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="BENCH file to write, relative to perfbench/")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs, summary, ok = [], {}, True
    for wl in args.workloads:
        per_metric = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": wl, "seed": seed, **res})
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        summary[wl] = {k: summarize(v) for k, v in per_metric.items() if len(v) >= 2}
        for name, s in summary[wl].items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("  bound %.3g%s" % (bound, "" if s["iqr_frac"] < bound / 3 else "  WIDE"))
            print(f"  {wl:12s} {name:40s} median {s['median']:.6g}  iqr/median {s['iqr_frac']:.4f}{flag}")
    if args.write:
        doc = {"benchmark": bench, "trace": args.trace, "summary": summary, "runs": runs}
        path = HERE / args.write
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
