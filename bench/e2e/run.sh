#!/usr/bin/env bash
# Build (incrementally) and run the end-to-end benchmark.
#
#   bash bench/e2e/run.sh --workload q5-mix-t4 --seed 7 --seconds 20 --trace 0
#   bash bench/e2e/run.sh            # every workload once, default settings
#
# Run it from the repository root. The build lives in
# $CARGO_TARGET_DIR/e2e-<hash of this checkout's path> (default under
# .bench_build/), so checkouts sharing one CARGO_TARGET_DIR never share
# a build, and result files go to its results/ directory unless
# INVERTQ_BENCH_DIR says otherwise. Build output goes to stderr, so the
# last line of stdout is always the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
key="$(printf '%s' "$root" | cksum | cut -d' ' -f1)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e-$key"

configured="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' \
    "$build/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$configured" != "$here" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target invertq_e2e --parallel 4 >&2

# The revision of the sources being measured, read now rather than at
# configure time; "unknown" unless this checkout is a git work tree's
# root (an enclosing repository would name the wrong revision).
E2E_GIT_SHA=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
    E2E_GIT_SHA="$(git -C "$root" rev-parse HEAD)"
fi
export E2E_GIT_SHA

export INVERTQ_BENCH_DIR="${INVERTQ_BENCH_DIR:-$build/results}"
if [[ "$INVERTQ_BENCH_DIR" != off ]]; then
    mkdir -p "$INVERTQ_BENCH_DIR"
fi

if [[ $# -gt 0 ]]; then
    exec "$build/invertq_e2e" "$@"
fi
for workload in q5-mix-t4 q5-mix-serial q14-fullnoise-t4 svc-open-loop; do
    "$build/invertq_e2e" --workload "$workload"
done
