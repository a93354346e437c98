#!/usr/bin/env python3
"""Paired-run comparison of invertq_e2e results (stdlib only).

Collect runs of one checkout, or alternate a parent and a change
checkout, then judge every end-to-end metric of BENCHMARK.json per
workload:

    compare.py collect --checkout DIR --out runs.jsonl [--runs 10]
    compare.py pairs --parent DIR --change DIR --out-dir OUT [--pairs 10]
    compare.py report parent.jsonl change.jsonl

collect and pairs take --workload (repeatable; default all), --seconds
(default BENCHMARK.json's run_seconds) and --first-seed (default 1).
Run i of a set uses seed first-seed + i, and report pairs run i of
the parent set with run i of the change set. pairs alternates which
side of a pair runs first.

The rule, per (workload, metric):
  - gain: at least 10 pairs, the change wins at least 9/10 of them
    (ties count for neither side), and the medians differ by more
    than the parent's interquartile range;
  - regression: the change's median is worse than the parent's by
    more than the metric's bound in BENCHMARK.json;
  - unresolved: either side's interquartile range exceeds the bound,
    unless every change run beats every parent run;
  - a higher failed fraction is flagged on its own;
  - a host speed (host.speed) whose medians differ by more than
    HOST_SPEED_SHIFT is flagged: timings are scaled by it, and a change
    that kept CPUs busy between results would slow the reference work
    and so flatter its own times (compare the .wall metrics).
Runs whose host stamps differ in anything but git_sha, or whose
workload constants differ, are refused.

Exit status: 0 no regression, 1 a regression or more failures,
2 refused or bad input.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "..", "..", "BENCHMARK.json")
GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
HOST_SPEED_SHIFT = 0.10
# End-to-end metrics of the service workload alone. BENCHMARK.json
# lists only metrics every workload reports, so their bounds live here.
SERVICE_METRICS = [
    {"name": "latency_p99_ms.low", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms.high", "better": "lower", "bound": 0.25},
    # May not drop a ladder step.
    {"name": "slo_rate_jobs_per_s", "better": "higher", "bound": 0.0},
]


def refuse(message):
    print("compare: " + message, file=sys.stderr)
    sys.exit(2)


def load_manifest(path):
    with open(path) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in @checkout; its BENCH_e2e record."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, INVERTQ_BENCH_DIR=out)
        proc = subprocess.run(
            ["bash", "bench/e2e/run.sh", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True)
        path = os.path.join(out, f"BENCH_e2e_{workload}.json")
        if proc.returncode not in (0, 1) or not os.path.exists(path):
            refuse(f"{checkout} {workload} seed {seed} exited "
                   f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
        with open(path) as f:
            results = json.load(f)["results"]
    return {
        "workload": workload,
        "seed": seed,
        "host": results["host"],
        "constants": results["run"]["constants"],
        "correct": results["correct"],
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {k: v["value"] for k, v in results["metrics"].items()},
    }


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def stamp_without_sha(record):
    return {k: v for k, v in record["host"].items() if k != "git_sha"}


def refuse_mismatch(parent, change):
    """Exit 2 when the sets were not measured alike."""
    runs = parent + change
    first = stamp_without_sha(runs[0])
    for record in runs[1:]:
        if stamp_without_sha(record) != first:
            refuse("refusing, host stamps differ beyond git_sha:\n"
                   f"  {first}\n  {stamp_without_sha(record)}")
    constants = {}
    for record in runs:
        seen = constants.setdefault(record["workload"],
                                    record["constants"])
        if seen != record["constants"]:
            refuse(f"refusing, workload constants of {record['workload']} "
                   "differ between runs")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(metric, parent, change):
    """Verdict and table cells for one metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    worse = (cm - pm) if lower else (pm - cm)
    dominates = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    spread = max(p3 - p1, c3 - c1) / abs(pm) if pm else 0.0
    if worse > bound * abs(pm):
        verdict = "REGRESSION"
    elif (len(pairs) >= GAIN_PAIRS and wins >= GAIN_WIN_SHARE * len(pairs)
          and -worse > p3 - p1):
        verdict = "gain"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "no change"
    delta = (cm - pm) / abs(pm) * 100.0 if pm else 0.0
    return verdict, [f"{pm:.6g} [{p1:.6g}, {p3:.6g}]",
                     f"{cm:.6g} [{c1:.6g}, {c3:.6g}]",
                     f"{delta:+.1f}%", f"{wins}/{len(pairs)}",
                     f"{spread:.3f}/{bound}"]


def report(parent_path, change_path, manifest):
    parent_runs = read_runs(parent_path)
    change_runs = read_runs(change_path)
    if not parent_runs or not change_runs:
        refuse("an empty run set")
    refuse_mismatch(parent_runs, change_runs)

    rows = [["workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "delta", "wins", "spread/bound",
             "verdict"]]
    bad = False
    short = False
    for workload in [w["name"] for w in manifest["workloads"]]:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            continue
        n = min(len(parent), len(change))
        if [r["seed"] for r in parent[:n]] != [r["seed"] for r in change[:n]]:
            refuse(f"{workload}: pair seeds differ")
        short = short or n < GAIN_PAIRS
        for metric in manifest["end_to_end"] + SERVICE_METRICS:
            name = metric["name"]
            if name not in parent[0]["metrics"]:
                continue
            verdict, cells = judge(
                metric, [r["metrics"][name] for r in parent[:n]],
                [r["metrics"][name] for r in change[:n]])
            bad = bad or verdict == "REGRESSION"
            rows.append([workload, name] + cells + [verdict])
        frac = [sum(r["failed"] for r in runs) /
                max(1, sum(r["attempted"] for r in runs))
                for runs in (parent[:n], change[:n])]
        failing = frac[1] > frac[0] or not all(
            r["correct"] for r in change[:n])
        bad = bad or failing
        rows.append([workload, "failed_frac", f"{frac[0]:.6g}",
                     f"{frac[1]:.6g}", "", "", "",
                     "MORE FAILURES" if failing else "no change"])
        speed = [statistics.median(r["metrics"]["host.speed"] for r in runs)
                 for runs in (parent[:n], change[:n])]
        shifted = abs(speed[1] - speed[0]) > HOST_SPEED_SHIFT * speed[0]
        rows.append([workload, "host.speed", f"{speed[0]:.4g}",
                     f"{speed[1]:.4g}", "", "", "",
                     "SHIFTED" if shifted else "no change"])

    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if short:
        print(f"note: fewer than {GAIN_PAIRS} pairs; no gain can be "
              "claimed from these sets")
    return 1 if bad else 0


def workloads_of(args, manifest):
    return args.workload or [w["name"] for w in manifest["workloads"]]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--benchmark", default=MANIFEST,
                        help="BENCHMARK.json with metrics and bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "pairs"):
        p = sub.add_parser(name)
        p.add_argument("--workload", action="append")
        p.add_argument("--seconds", type=float)
        p.add_argument("--first-seed", type=int, default=1)
    collect = sub.choices["collect"]
    collect.add_argument("--checkout", required=True)
    collect.add_argument("--out", required=True)
    collect.add_argument("--runs", type=int, default=GAIN_PAIRS)
    pairs = sub.choices["pairs"]
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--out-dir", required=True)
    pairs.add_argument("--pairs", type=int, default=GAIN_PAIRS)
    rep = sub.add_parser("report")
    rep.add_argument("parent")
    rep.add_argument("change")
    args = parser.parse_args()

    manifest = load_manifest(args.benchmark)
    if args.command == "report":
        return report(args.parent, args.change, manifest)
    seconds = args.seconds or manifest["run_seconds"]
    if args.command == "collect":
        for workload in workloads_of(args, manifest):
            for i in range(args.runs):
                seed = args.first_seed + i
                append(args.out, run_once(args.checkout, workload, seed,
                                          seconds))
        return 0
    os.makedirs(args.out_dir, exist_ok=True)
    parent_out = os.path.join(args.out_dir, "parent.jsonl")
    change_out = os.path.join(args.out_dir, "change.jsonl")
    for path in (parent_out, change_out):
        if os.path.exists(path):
            os.remove(path)
    for workload in workloads_of(args, manifest):
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [(args.parent, parent_out), (args.change, change_out)]
            for checkout, out in (sides if i % 2 == 0 else sides[::-1]):
                append(out, run_once(checkout, workload, seed, seconds))
    return report(parent_out, change_out, manifest)


if __name__ == "__main__":
    sys.exit(main())
