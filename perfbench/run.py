#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark (Release) under `.bench_build/` (or `$CARGO_TARGET_DIR` when set);
later calls reuse that build.  Build output goes to stderr.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the lines before it are
the per-layer table and the per-workload self-time table.  README.md
defines every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Mirrors kBatchSize in workloads.cpp.
SERVICE_BATCH = 4


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("library sources not found next to perfbench/; run from a "
            "full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench",
           "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return os.path.join(out, "perfbench")


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_inc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile (p in [0, 100]): a
    beta-weighted mean of the order statistics near it.  A list of a few
    distinct ops (16 IRA solves) has gaps of 30% between neighbours; the
    plain sample median jumps across such a gap whenever noise reorders
    two ops, while this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0
    q = p / 100.0
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = [_beta_inc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * xs[i] for i in range(n))


def mean(values):
    """The exact mean, rounded once: it depends neither on the order of the
    values nor on how many passes repeat the same ops, so runs whose ops
    return the same outputs report the same mean to the last bit."""
    return float(sum(map(Fraction, values)) / len(values)) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def outcome_counts(p):
    attempted = len(p["ms"])
    ok = sum(p["ok"])
    return attempted, attempted - ok, not any(p["wrong"])


def ops_per_s(p):
    """Median over passes of ops / pass wall time: robust to a slow pass
    (the first one after an idle spell, or a burst of load on the host)."""
    per_pass = len(p["ms"]) // p["passes"]
    return statistics.median(per_pass / (w / 1000.0) for w in p["pass_wall_ms"])


def end_to_end(raw):
    p = raw["timed"]
    attempted, failed, _ = outcome_counts(p)
    trees = [i for i, h in enumerate(p["has_tree"]) if h]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": ops_per_s(p),
        "op_ms.p50": percentile(p["ms"], 50),
        "op_ms.p90": percentile(p["ms"], 90),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_share": (attempted - failed) / attempted,
        "reliability.mean": mean([p["reliability"][i] for i in trees]),
        "lc_met_share": sum(p["lc_met"]) / attempted,
        "delivery_ratio.mean": mean([p["delivery"][i] for i in trees]),
    }


# ---------------------------------------------------------------- traced run

def phase_totals(phases):
    """Sums total_ms per phase name over the whole phase tree, and the time
    of each phase's direct children, so self time = total - children."""
    total, children = {}, {}

    def walk(nodes):
        for n in nodes:
            total[n["name"]] = total.get(n["name"], 0.0) + n["total_ms"]
            kids = sum(c["total_ms"] for c in n["children"])
            children[n["name"]] = children.get(n["name"], 0.0) + kids
            walk(n["children"])

    walk(phases)
    return total, children


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_ms(s):
    return (s["end_ns"] - s["start_ns"]) / 1e6


def setup_stats(spans):
    """Per set-up medians of the scenario and LC-point spans."""
    setups = [s for s in spans if s["name"] == "setup"]
    gen, lc = [], []
    for st in setups:
        kids = [s for s in spans if s["parent"] == st["id"]]
        gen.append(sum(span_ms(s) for s in kids if s["name"].startswith("scenario.")))
        points = [s for s in kids if s["name"].startswith(("baselines.", "core."))]
        instances = sum(1 for s in points if s["name"] == "baselines.mst_baseline")
        lc.append(ratio(sum(span_ms(s) for s in points), instances))
    return (statistics.median(gen) if gen else 0.0,
            statistics.median(lc) if lc else 0.0)


def per_layer(raw, spans):
    """Every per-layer metric of BENCHMARK.json, plus the self-time table."""
    m = raw["metrics"]
    c = m["counters"]
    total, kids = phase_totals(m["phases"])
    traced = raw["traced"]
    untraced = raw["timed"]
    reruns = raw["reruns"]
    workload = raw["workload"]
    solves = c.get("ira.solves", 0)
    ops_in_pass = [s for s in spans if s["op"] >= 0 and s["name"] in (
        "core.IterativeRelaxation::solve", "distributed.run_dataplane",
        "service.submit_payload->reply")]
    op_ms = sum(span_ms(s) for s in ops_in_pass)

    sep = total.get("separation", 0.0)
    simplex = total.get("simplex", 0.0)
    cut_lp = total.get("cut_lp", 0.0)
    ira = total.get("ira", 0.0)
    dataplane = total.get("dataplane", 0.0)
    is_service = workload.startswith("service")
    # Time inside IRA solves: the solve spans (ira workload) or the
    # service's own per-request solve times.
    solve_ms = sum(traced["solve_ms"]) if is_service else op_ms

    gen_ms, lc_ms = setup_stats(spans)
    out = {}
    out["core.ira.self_ms_per_solve"] = ratio(ira - kids.get("ira", 0.0), solves)
    out["core.ira.outer_iterations_per_solve"] = ratio(c.get("ira.outer_iterations", 0), solves)
    out["core.cut_lp.self_ms_per_solve"] = ratio(cut_lp - kids.get("cut_lp", 0.0), solves)
    out["core.cut_lp.lp_solves_per_solve"] = ratio(c.get("ira.lp_solves", 0), solves)
    out["core.cut_lp.cuts_per_solve"] = ratio(c.get("ira.cuts_added", 0), solves)
    out["core.separation.ms_per_solve"] = ratio(sep, solves)
    out["core.separation.share"] = ratio(sep, solve_ms)
    out["core.separation.pool_hits_per_solve"] = ratio(c.get("separation.pool_hits", 0), solves)
    out["core.separation.violated_sets_per_maxflow"] = ratio(
        c.get("separation.violated_sets", 0), c.get("separation.maxflow_calls", 0))
    out["graph.maxflow_calls_per_solve"] = ratio(c.get("separation.maxflow_calls", 0), solves)
    out["lp.simplex.ms_per_solve"] = ratio(simplex, solves)
    out["lp.simplex.share"] = ratio(simplex, solve_ms)
    out["lp.pivots_per_solve"] = ratio(c.get("simplex.pivots", 0), solves)
    out["lp.warm_solve_share"] = ratio(c.get("simplex.warm_solves", 0), c.get("simplex.solves", 0))
    out["lp.refactorizations_per_solve"] = ratio(c.get("simplex.sparse_refactorizations", 0), solves)
    out["lp.cold_fallbacks"] = c.get("simplex.cold_fallbacks", 0)
    out["baselines.lc_points_ms_per_instance"] = lc_ms
    out["scenario.generate_ms"] = gen_ms

    rounds = sum(traced["rounds"])
    out["distributed.ms_per_round"] = ratio(op_ms, rounds) if dataplane else 0.0
    out["distributed.events_per_s"] = ratio(c.get("dataplane.events_processed", 0), dataplane / 1000.0)
    out["distributed.des.windows_per_round"] = ratio(c.get("des.windows", 0), c.get("dataplane.rounds", 0))
    out["radio.arq.tx_per_transaction"] = ratio(c.get("arq.data_tx", 0), c.get("arq.transactions", 0))
    out["radio.arq.retransmission_share"] = ratio(c.get("arq.retransmissions", 0), c.get("arq.data_tx", 0))
    out["radio.arq.drop_share"] = ratio(c.get("arq.packets_dropped", 0), c.get("arq.transactions", 0))

    # Fastest pass of each side: the re-runs alternate with baseline passes.
    base_ms = min(reruns["baseline"]["pass_wall_ms"])
    # Repair cost: the same ops with repair on against repair off.
    repair_ms = 0.0
    if "repair_off" in reruns:
        repair_ms = max(0.0, base_ms - min(reruns["repair_off"]["pass_wall_ms"]))
    repairs = sum(untraced["repairs"]) / untraced["passes"]
    out["distributed.repair.share"] = ratio(repair_ms, base_ms)
    out["distributed.repair.ms_per_repair"] = ratio(repair_ms, repairs)
    out["distributed.repair.repairs_per_round"] = ratio(
        sum(untraced["repairs"]), sum(untraced["rounds"]))
    out["distributed.repair.false_positive_share"] = ratio(
        c.get("dataplane.false_positives", 0),
        c.get("dataplane.detections", 0) + c.get("dataplane.false_positives", 0))

    requests = c.get("service.requests", 0)
    misses = [i for i, h in enumerate(traced["cache_hit"]) if not h]
    decode = [span_ms(s) * 1000.0 for s in spans if s["name"] == "service.decode_request"]
    parse = [span_ms(s) for s in spans if s["name"] == "wsn.network_from_string"]
    out["service.queue_ms.p50"] = percentile(traced["queue_ms"], 50) if is_service else 0.0
    out["service.solve_ms.p50"] = percentile([traced["solve_ms"][i] for i in misses], 50) if is_service else 0.0
    out["service.batch_fill"] = ratio(c.get("service.accepted", 0), c.get("service.batches", 0) * SERVICE_BATCH)
    out["service.shed_share"] = ratio(c.get("service.shed_overload", 0), requests)
    out["service.cache.hit_share"] = ratio(c.get("service.cache_hits", 0), requests)
    out["service.cache.pool_lease_share"] = ratio(traced["pool_leases"], c.get("service.cache_misses", 0))
    out["service.wire.decode_us.p50"] = percentile(decode, 50)
    out["wsn.io.parse_ms.p50"] = percentile(parse, 50)

    speedup = 0.0
    if "width4" in reruns:
        speedup = ratio(base_ms, min(reruns["width4"]["pass_wall_ms"]))
    elif "width1" in reruns:
        speedup = ratio(min(reruns["width1"]["pass_wall_ms"]), base_ms)
    out["common.parallel.speedup_4v1"] = speedup
    # The traced pass against the untraced pass just before it.
    out["common.tracing_overhead_share"] = ratio(
        traced["wall_ms"], untraced["pass_wall_ms"][-1]) - 1.0

    rows = self_time_rows(workload, traced, total, kids, op_ms, repair_ms,
                          ratio(traced["wall_ms"], base_ms))
    return out, rows


def self_time_rows(workload, traced, total, kids, op_ms, repair_ms, traced_scale):
    """(layer, ms) rows that split the traced op time; the last row is the
    part no layer accounts for."""
    def self_ms(name):
        return total.get(name, 0.0) - kids.get(name, 0.0)

    core_rows = [
        ("core.ira (self)", self_ms("ira")),
        ("core.cut_lp (self)", self_ms("cut_lp")),
        ("core.separation + graph.maxflow", total.get("separation", 0.0)),
        ("lp.simplex", total.get("simplex", 0.0)),
    ]
    if workload.startswith("ira"):
        rows = core_rows
        base = op_ms
    elif workload.startswith("dataplane"):
        # The repair cost comes from the fastest untraced passes with
        # repair on and off; scale it to the traced pass.
        repair = repair_ms * traced_scale
        rows = [("distributed rounds + radio.arq", total.get("dataplane", 0.0) - repair),
                ("distributed.repair (estimator, maintainer, prufer)", repair)]
        base = op_ms
    else:
        # A request waits in the queue, then for its batch: the batch
        # replies when its slowest solve ends.
        solve = traced["solve_ms"]
        batch_solve = sum(max(solve[k:k + SERVICE_BATCH]) * len(solve[k:k + SERVICE_BATCH])
                          for k in range(0, len(solve), SERVICE_BATCH))
        own = sum(solve)
        rows = [("service.queue", sum(traced["queue_ms"])),
                ("service.batch_wait", batch_solve - own),
                ("core.anytime (self)", self_ms("anytime")),
                ("service.worker parse/encode", own - total.get("anytime", 0.0))]
        rows += core_rows
        base = sum(traced["ms"])
    rows.append(("(no layer)", base - sum(ms for _, ms in rows)))
    return rows, base


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        spans_dir = os.path.join(os.path.dirname(build_dir()), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        die("perfbench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    attempted, failed, correct = outcome_counts(raw["timed"])
    print("config " + json.dumps({k: raw[k] for k in (
        "workload", "seed", "pool_width", "nproc", "build_type", "sanitize",
        "ndebug")}))
    for err in sorted(set(raw["timed"]["errors"])):
        print("failed op: " + err)
    if not args.trace:
        units = {d["name"]: d["unit"] for d in bench["end_to_end"]}
        values = end_to_end(raw)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for k, v in values.items():
            print("%-22s %14.6g %s" % (k, v, units[k]))
        print("op_ms samples: %d over %d passes" % (attempted, raw["timed"]["passes"]))
    else:
        units = {d["name"]: d["unit"] for d in bench["per_layer"]}
        values, (rows, base) = per_layer(raw, load_spans(spans_path))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for k, v in values.items():
            print("%-45s %14.6g %s" % (k, v, units[k]))
        print("self time per layer, %s traced pass (%.1f ms of op time):" % (args.workload, base))
        for name, ms in rows:
            print("  %-52s %12.1f ms %6.1f%%" % (name, ms, 100.0 * ratio(ms, base)))
        print("spans written to " + os.path.relpath(spans_path, ROOT))
        correct = correct and outcome_counts(raw["traced"])[2]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
