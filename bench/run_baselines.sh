#!/usr/bin/env bash
# Captures the committed benchmark baseline (BENCH_baseline.json).
#
# Usage: bench/run_baselines.sh [BUILD_DIR] [OUT_JSON]
#   BENCH_MIN_TIME=0.25   per-benchmark minimum running time, in seconds
#
# The workload matrices are fixed inside the bench binaries themselves
# (uniform generators with hard-coded seeds and domains), so a capture is
# reproducible up to machine noise. This script runs bench_update_throughput
# plus bench_sharded_ingest (the sharded-driver aggregate-throughput matrix)
# plus bench_serialize (wire-format encode/decode bytes-per-second) plus
# bench_snapshot_query (query serving rates, blocking vs snapshot) plus
# bench_zipf_ingest (trace-shaped batched/coalesced ingest) plus
# bench_merge_scaling (merge-tree re-merge cost under single-shard
# churn) plus bench_chh_shootout (the three correlated heavy-hitters kinds
# on shared workloads: throughput, serialized bytes, precision/recall; the
# extras are skipped with a note if the binary is missing) and
# merges the
# results into OUT_JSON via bench/merge_baseline.py, which refreshes the
# "current" section and the machine context while preserving the frozen
# "seed" section (the pre-optimization numbers that speedup claims are
# audited against).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_baseline.json}
MIN_TIME=${BENCH_MIN_TIME:-0.25}

if [ ! -x "$BUILD_DIR/bench_update_throughput" ]; then
  echo "error: $BUILD_DIR/bench_update_throughput not built" \
       "(configure with Google Benchmark installed)" >&2
  exit 1
fi

RUNS=()
cleanup() { rm -f "${RUNS[@]}"; }
trap cleanup EXIT

for bench in bench_update_throughput bench_sharded_ingest bench_serialize \
             bench_snapshot_query bench_zipf_ingest bench_merge_scaling \
             bench_chh_shootout; do
  BIN="$BUILD_DIR/$bench"
  if [ ! -x "$BIN" ]; then
    echo "note: $BIN not built; skipping it in this capture" >&2
    continue
  fi
  TMP=$(mktemp)
  RUNS+=("$TMP")
  "$BIN" --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
         --benchmark_out="$TMP" > /dev/null
done

python3 bench/merge_baseline.py "${RUNS[@]}" "$OUT"
echo "wrote $OUT"
