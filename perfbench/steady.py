#!/usr/bin/env python3
"""Steadiness runner: runs each workload N times and reports the spread of
every end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--out PATH]

Run from the root of a checkout.  Run i uses seed first_seed + i; the
workload order alternates between runs (forward, then reversed) so no
workload always runs first after an idle spell.  Per workload and metric
it prints the median, the quartiles (statistics.quantiles(n=4)), the
interquartile range and (max - min) as shares of the median, and flags:

    IQR>bound    the interquartile share exceeds the bound: the acceptance
                 check on the benchmark fails
    IQR>bound/3  steadier than required, but not by the margin aimed for
    range>bound  a single run strays further than the bound

The runner records nproc, pool widths, build type, git revision and seeds, and
refuses Debug or sanitizer builds and pool widths above nproc.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    if proc.returncode:
        sys.exit("steady: %s seed %d exited with %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    config = next(json.loads(l[len("config "):]) for l in lines if l.startswith("config "))
    return config, json.loads(lines[-1])


def refuse_unsound(config):
    build = config["build_type"].lower()
    if build == "debug" or not config["ndebug"]:
        sys.exit("steady: refusing a %s build without NDEBUG" % config["build_type"])
    if config["sanitize"].upper() not in ("", "OFF", "0", "FALSE"):
        sys.exit("steady: refusing a sanitizer build (%s)" % config["sanitize"])
    if config["pool_width"] > config["nproc"]:
        sys.exit("steady: %s needs pool width %d but nproc is %d" % (
            config["workload"], config["pool_width"], config["nproc"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {n: [] for n in names}
    configs = {}
    seeds = [args.first_seed + i for i in range(args.runs)]
    for i, seed in enumerate(seeds):
        for name in (names if i % 2 == 0 else list(reversed(names))):
            config, result = run_once(name, seed, bench["run_seconds"])
            refuse_unsound(config)
            configs[name] = config
            results[name].append(result)
            print("run %d/%d %s seed %d: failed %d/%d" % (
                i + 1, args.runs, name, seed, result["failed"], result["attempted"]),
                file=sys.stderr, flush=True)

    report = {"git_revision": git_revision(), "seeds": seeds,
              "nproc": next(iter(configs.values()))["nproc"],
              "build_type": next(iter(configs.values()))["build_type"],
              "pool_widths": {n: c["pool_width"] for n, c in configs.items()},
              "workloads": {}}
    print("revision %s, nproc %d, build %s, pool widths %s, seeds %s" % (
        report["git_revision"], report["nproc"], report["build_type"],
        report["pool_widths"], seeds))
    for name in names:
        rows = {}
        print("\n%s" % name)
        print("  %-20s %12s %12s %12s %8s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "flag"))
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(values) - min(values)) / med if med else float("inf")
            flag = ""
            if iqr > spec["bound"]:
                flag = "IQR>bound"
            elif iqr > spec["bound"] / 3:
                flag = "IQR>bound/3"
            if rng > spec["bound"]:
                flag = (flag + " range>bound").strip()
            rows[metric] = {"values": values, "median": med, "q1": q1, "q3": q3,
                            "iqr_share": iqr, "range_share": rng, "flag": flag}
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f  %s" % (
                metric, med, q1, q3, iqr, rng, spec["bound"], flag))
        report["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
