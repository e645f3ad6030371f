#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py [--workloads explore,validate,serve]
        [--seeds 10] [--first-seed 1] [--seconds N] [--json OUT]

Runs each workload once per seed (untraced), then reruns the first
seed.  For every end-to-end metric it prints the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.  A spread above a third of
its bound is flagged; setup_s is reported but not judged.  The
exact counts of the rerun seed must equal those of its first run.
Exits non-zero when a run fails, a spread exceeds its bound or an
exact count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.stderr.write(res.stderr)
        raise SystemExit("%s seed %d: run failed (exit %d)"
                         % (workload, seed, res.returncode))
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    everything = {}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        results = []
        for seed in seeds:
            record, result = run(workload, seed, args.seconds)
            results.append((seed, record, result))
            if not result["correct"] or result["failed"]:
                print("%s seed %d: %d of %d operations failed"
                      % (workload, seed, result["failed"],
                         result["attempted"]))
                ok = False
        record, _ = run(workload, seeds[0], args.seconds)
        if record["exact_counts"] != results[0][1]["exact_counts"]:
            print("%s: exact counts of seed %d differ between runs:\n"
                  "  %s\n  %s" % (workload, seeds[0],
                                  results[0][1]["exact_counts"],
                                  record["exact_counts"]))
            ok = False
        everything[workload] = [
            {"seed": s, "record": r, "result": x} for s, r, x in results]

        print("%s (%d seeds, %d s)" % (workload, len(seeds), args.seconds))
        for name, bound in bounds.items():
            values = [x["metrics"][name]["value"] for _, _, x in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            print("  %-28s median %14.6g  spread %7.4f  bound %.3f%s"
                  % (name, med, spread, bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
