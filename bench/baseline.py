#!/usr/bin/env python3
"""Run every workload, untraced and traced, and write a BENCH_<n>.json.

    python3 bench/baseline.py --out bench/BENCH_1.json [--seed 0] [--seconds 50]

Run from the root of a checkout.  Prints every end-to-end metric of every
workload with its unit, quartiles and sample count, plus fail_ratio.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def report(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    rep = json.loads(out[-2])["report"]
    return rep, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)

    bench = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        rep, result = report(workload, args.seed, args.seconds, 0)
        traced, traced_result = report(workload, args.seed, args.seconds, 1)
        bench["env"] = rep["env"]
        bench["workloads"][workload] = {
            "correct": result["correct"] and traced_result["correct"],
            "inputs_sha256": rep["inputs_sha256"],
            "output_sha256": rep["output_sha256"],
            "fail_ratio": rep["fail_ratio"],
            "end_to_end": rep["stats"],
            "per_layer": {name: traced_result["metrics"][name] for name in run.PER_LAYER},
            "trace_spans": traced["stats"]["trace.spans"]["median"],
        }
        for name, s in rep["stats"].items():
            print(f"{workload:16s} {name:12s} {s['median']:10.4f} {s['unit']:4s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']}")
        print(f"{workload:16s} {'fail_ratio':12s} {rep['fail_ratio']:10.4f}")
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
