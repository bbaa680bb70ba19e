#!/usr/bin/env python3
"""Runs the benchmark in sets of seeded runs and checks it is steady.

From the repository root:

    python3 perfbench/compare.py                     # 2 sets x 10 runs, every workload
    python3 perfbench/compare.py --sets 1 --runs 5 --workloads persist-nc

For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and its spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. It fails
when a spread other than setup_s exceeds the metric's bound, when a later
set's median is worse than the first set's by more than the bound, when the
share of failed operations differs between sets, or when a run reports
incorrect answers. Spreads above a third of the bound are flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    a = ap.parse_args()
    metrics = spec["end_to_end"]
    ok = True
    for workload in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                r = run_once(spec["command"], workload, a.seed_base + 1000 * s + i, a.seconds)
                if not r["correct"]:
                    print(f"FAIL {workload}: run {s}/{i} reported incorrect answers")
                    ok = False
                runs.append(r)
                print(f"  {workload} set {s} run {i}: " + " ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}" for m in metrics)
                    + f" failed={r['failed']}/{r['attempted']}", flush=True)
            sets.append(runs)
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        if any(sh != shares[0] for sh in shares) or len(shares[0]) != 1:
            print(f"FAIL {workload}: failed shares differ: {shares}")
            ok = False
        print(f"{workload}: failed share {shares[0]}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                med, sp = statistics.median(vals), spread(vals)
                meds.append(med)
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag, ok = "  FAIL spread > bound", False
                elif name != "setup_s" and sp > bound / 3:
                    flag = "  (spread above a third of the bound)"
                print(f"  {name:14s} set {s}: median {med:12.6g} {m['unit']:5s} spread {sp:6.3f} (bound {bound}){flag}")
            for s in range(1, len(meds)):
                worse = (meds[s] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    print(f"  FAIL {name}: set {s} median worse than set 0 by {worse:.3f} > {bound}")
                    ok = False
    print("OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
