#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload, in one or more sets of
the same seeds, and records how steady each end-to-end metric is: per set
its median, first and third quartile over the runs and the spread
(Q3 - Q1) / median; across sets, how much worse each later set's median is
than the first's. BENCHMARK.json's bounds apply to both figures.

Run from the checkout root:

    python3 e2ebench/steadiness.py --sets 2 --runs 10 --out e2ebench/results/steadiness.json
    python3 e2ebench/steadiness.py --workloads predict-small --runs 5
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def run_set(workloads, seeds, seconds, trace, bounds):
    """Runs every workload on every seed and summarizes each metric."""
    out = {}
    for w in workloads:
        per_metric, walls, units = {}, [], {}
        for seed in seeds:
            res, wall = run_once(w, seed, seconds, trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            walls.append(wall)
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        entry = {"run_wall_s_max": max(walls), "metrics": {}}
        for name, vals in sorted(per_metric.items()):
            s = summarize(vals)
            s["unit"] = units[name]
            entry["metrics"][name] = s
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  above bound/3" if s["spread"] <= bound else "  ABOVE BOUND"
            print(f"{w:15s} {name:12s} median={s['median']:.6g} spread={s['spread']:.3f}"
                  f" bound={bound}{flag}", flush=True)
        print(f"{w:15s} max run wall {max(walls):.1f}s", flush=True)
        out[w] = entry
    return out


def worsening(first, later, better):
    """How much worse later is than first, as a share of first."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    sets = [run_set(args.workloads, seeds, args.seconds, args.trace, bounds) for _ in range(args.sets)]
    report = {"run_seconds": args.seconds, "runs": args.runs, "seeds": list(seeds), "workloads": {}}
    for w in args.workloads:
        entry = {"sets": [s[w] for s in sets]}
        if len(sets) > 1:
            entry["median_worsening"] = {}
            for name, first in sets[0][w]["metrics"].items():
                spec = bounds.get(name, {})
                worst = max(worsening(first["median"], s[w]["metrics"][name]["median"], spec.get("better", "lower"))
                            for s in sets[1:])
                entry["median_worsening"][name] = {"worst": worst, "bound": spec.get("bound")}
                flag = "  ABOVE BOUND" if spec.get("bound") is not None and worst > spec["bound"] else ""
                print(f"{w:15s} {name:12s} later median worse by {worst:+.3f}{flag}", flush=True)
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
