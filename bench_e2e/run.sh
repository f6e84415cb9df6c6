#!/usr/bin/env bash
# Builds bench_e2e from source and runs it. Run from the repository root.
#
#   bash bench_e2e/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
#       one workload in one process; the last stdout line is the JSON summary
#   bash bench_e2e/run.sh --smoke
#       every workload for about a second, with every correctness check
#   bash bench_e2e/run.sh [--seed N] [--seconds S] [--trace DIR]
#       all four workloads, one process each, printing every end-to-end metric
#       as "<workload> <name> <value> <unit>"; with --trace DIR a traced run
#       of each follows, printing the per-layer metrics and writing
#       DIR/<workload>.trace.json (chrome://tracing) and DIR/<workload>.json
#
# The build tree is $CARGO_TARGET_DIR/bench_e2e (default
# .bench_build/bench_e2e); build output goes to stderr.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/bench_e2e"
cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
bin="$build/bench_e2e"

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --smoke ]]; then
    exec "$bin" "$@"
  fi
done

seed=1
seconds=6
trace_dir=""
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace_dir="$2"; shift 2 ;;
    *) echo "usage: run.sh [--seed N] [--seconds S] [--trace DIR]" >&2
       exit 2 ;;
  esac
done
if [[ -n "$trace_dir" ]]; then mkdir -p "$trace_dir"; fi
for w in mono-hot mono-cold mixed-write sharded-bfs; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
    sed '$d'
  if [[ -n "$trace_dir" ]]; then
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --trace-out "$trace_dir/$w.trace.json" --json "$trace_dir/$w.json" |
      sed '$d'
  fi
done
