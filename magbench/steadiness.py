#!/usr/bin/env python3
"""Steadiness runs and report for the benchmark.

Run from the repository root:

  python3 magbench/steadiness.py run --set A --seeds 1-10 --out setA.jsonl
  python3 magbench/steadiness.py run --set B --seeds 1-10 --out setB.jsonl
  python3 magbench/steadiness.py report setA.jsonl setB.jsonl

`run` executes the command in BENCHMARK.json once per (workload, seed),
untraced, and appends one JSON line per run. `report` prints, per
workload and end-to-end metric, each set's median and quartiles, the
quartile spread as a share of the median, and the drift of the second
set's median from the first's, with the bound each metric carries.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for seed in seed_list(args.seeds):
            for workload in workloads:
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                started = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
                result = json.loads(lines[-1])
                record = {
                    "set": args.set, "workload": workload, "seed": seed,
                    "run_s": round(time.time() - started, 2), "result": result,
                }
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"set {args.set} {workload} seed {seed}: {time.time() - started:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}", flush=True)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for path in args.files:
        with open(path) as f:
            runs.extend(json.loads(line) for line in f if line.strip())
    sets = sorted({r["set"] for r in runs})
    print("| workload | metric | bound | " + " | ".join(
        f"set {s}: n, median [Q1, Q3], spread" for s in sets) + " | drift of medians |")
    print("|---|---|---|" + "---|" * len(sets) + "---|")
    worst = []
    for w in [w["name"] for w in bench["workloads"]]:
        for metric, bound in bounds.items():
            cells, medians = [], []
            for s in sets:
                vals = [r["result"]["metrics"][metric]["value"]
                        for r in runs if r["set"] == s and r["workload"] == w]
                if len(vals) < 2:
                    cells.append("-")
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2
                medians.append(q2)
                cells.append(f"{len(vals)}, {q2:.4g} [{q1:.4g}, {q3:.4g}], {100 * spread:.1f}%")
                if metric != "setup_s":
                    worst.append((spread / bound, w, metric, f"set {s} spread"))
            drift = "-"
            if len(medians) == 2:
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
                d = (medians[1] - medians[0]) / medians[0]
                worse = d if better == "lower" else -d
                drift = f"{100 * d:+.1f}%"
                worst.append((max(worse, 0) / bound, w, metric, "drift"))
            print(f"| {w} | {metric} | {100 * bound:.0f}% | " + " | ".join(cells) + f" | {drift} |")
    worst.sort(reverse=True)
    print("\nLargest shares of a bound used:")
    for share, w, metric, what in worst[:6]:
        print(f"- {w}/{metric} ({what}): {100 * share:.0f}% of its bound")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--set", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    r.add_argument("--out", required=True)
    r.set_defaults(func=run)
    q = sub.add_parser("report")
    q.add_argument("files", nargs="+")
    q.set_defaults(func=report)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
