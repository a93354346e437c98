#!/usr/bin/env python3
"""Smoke test of invertq_e2e (ctest E2eBenchSmoke).

Runs every workload of BENCHMARK.json at a tiny budget with the traced
run and every correctness check on, and fails unless each run passes
its checks, its result line carries exactly the per-layer metrics, and
its BENCH_e2e_<workload>.json holds every end-to-end metric.

    python3 smoke.py <path to invertq_e2e> <path to BENCHMARK.json>
"""

import json
import os
import subprocess
import sys
import tempfile

# About 1% of the 20 s measured runs.
SECONDS = "0.2"
# The open loop judges its own generator's timing, so it runs alone;
# the closed loops only check correctness here and share the CPUs.
ALONE = {"svc-open-loop"}


def start(binary, workload, out_dir):
    env = dict(os.environ, INVERTQ_BENCH_DIR=out_dir)
    return subprocess.Popen(
        [binary, "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)


def check(workload, proc, out_dir, end_to_end, per_layer):
    """Problems with one finished run, as strings."""
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        return [f"{workload}: exit {proc.returncode}: "
                f"{(stderr or stdout).strip()[-500:]}"]
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        problems.append(f"{workload}: correct is {result['correct']}")
    got = set(result["metrics"])
    if got != set(per_layer):
        problems.append(
            f"{workload}: per-layer metrics missing "
            f"{sorted(set(per_layer) - got)}, extra "
            f"{sorted(got - set(per_layer))}")
    bench_path = os.path.join(out_dir, f"BENCH_e2e_{workload}.json")
    with open(bench_path) as f:
        bench = json.load(f)["results"]
    missing = [name for name in end_to_end
               if name not in bench["metrics"]]
    if missing:
        problems.append(f"{workload}: end-to-end metrics missing {missing}")
    for key in ("nproc", "cpu_model", "avx2", "kernels", "qem_simd",
                "qem_sanitize", "build_type", "compiler", "git_sha"):
        if key not in bench["host"]:
            problems.append(f"{workload}: host stamp lacks {key}")
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, manifest = sys.argv[1], sys.argv[2]
    with open(manifest) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]

    problems = []
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in workloads:
            if workload in ALONE:
                problems += check(workload,
                                  start(binary, workload, out_dir),
                                  out_dir, end_to_end, per_layer)
        shared = {w: start(binary, w, out_dir)
                  for w in workloads if w not in ALONE}
        for workload, proc in shared.items():
            problems += check(workload, proc, out_dir, end_to_end,
                              per_layer)
    for problem in problems:
        print("FAIL", problem)
    if problems:
        return 1
    print(f"ok: {len(workloads)} workloads, {len(end_to_end)} end-to-end "
          f"and {len(per_layer)} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
