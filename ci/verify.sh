#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (library, test binaries,
# benches, examples), run the full CTest suite, then re-run the statistical
# (eps, delta) tests as a focused job. The full suite includes the `smoke`
# tier: quickstart, the cross-process shardctl demo (file blobs), and the
# cross-process served demo (2 castream_served workers publishing snapshots
# over TCP to an always-on reducer, verified bit-for-bit against the
# in-process oracle through kills and restarts).
#
# Parameterized so the CI matrix (compilers x build types + sanitizers) and
# local sanitizer builds never clobber each other's build trees:
#   BUILD_TYPE         CMake build type (default Release)
#   BUILD_DIR          build directory; default "build" for a plain Release
#                      build (backward compatible) and a derived
#                      "build-<type>[-<sanitizer>]" otherwise
#   GENERATOR          CMake generator passed as -G (e.g. Ninja)
#   CASTREAM_SANITIZE  forwarded to -DCASTREAM_SANITIZE
#                      (e.g. "address,undefined" or "thread")
#   CTEST_LABEL        run only tests with this CTest label (the TSan CI job
#                      sets "concurrency"); skips the extra stats pass
#   BENCH_SMOKE_OUT    file capturing the bench smoke output (default
#                      $BUILD_DIR/bench_smoke.txt; uploaded as a CI artifact)
# Compiler selection follows the standard CC/CXX environment variables, and
# ccache is picked up via CMAKE_{C,CXX}_COMPILER_LAUNCHER when CI sets them.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_TYPE=${BUILD_TYPE:-Release}
SANITIZE=${CASTREAM_SANITIZE:-}
if [ -z "${BUILD_DIR:-}" ]; then
  if [ "$BUILD_TYPE" = "Release" ] && [ -z "$SANITIZE" ]; then
    BUILD_DIR=build
  else
    BUILD_DIR="build-$(echo "$BUILD_TYPE" | tr '[:upper:]' '[:lower:]')"
    if [ -n "$SANITIZE" ]; then
      BUILD_DIR="$BUILD_DIR-$(echo "$SANITIZE" | tr ',;' '-')"
    fi
  fi
fi

CONFIG_ARGS=(-B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE")
if [ -n "${GENERATOR:-}" ]; then
  CONFIG_ARGS+=(-G "$GENERATOR")
fi
if [ -n "$SANITIZE" ]; then
  CONFIG_ARGS+=(-DCASTREAM_SANITIZE="$SANITIZE")
fi

cmake "${CONFIG_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$(nproc)"

# Guard the test tier itself: every tests/*_test.cc must be registered with
# CTest under its file-stem name. The CMake glob makes this automatic today,
# but a restructuring that drops the glob (or a stale configure) would
# otherwise silently shrink the suite — green CI with tests not running.
MISSING_TESTS=$(comm -23 \
  <(ls tests/*_test.cc | xargs -n1 basename | sed 's/\.cc$//' | sort) \
  <(cd "$BUILD_DIR" && ctest -N | sed -n 's/^ *Test *#[0-9]*: //p' | sort))
if [ -n "$MISSING_TESTS" ]; then
  echo "error: test files in tests/ not registered with CTest:" >&2
  echo "$MISSING_TESTS" >&2
  exit 1
fi

# Same guard for the bench tier: every Google-Benchmark-based bench/bench_*.cc
# must be listed in bench/run_baselines.sh, or its numbers silently fall out
# of BENCH_baseline.json captures (and out of the regression gate's view) the
# day it's added. Non-gbench bench sources (standalone timers) are exempt.
MISSING_BENCHES=$(comm -23 \
  <(grep -l "benchmark/benchmark\.h" bench/bench_*.cc \
     | xargs -n1 basename | sed 's/\.cc$//' | sort) \
  <(grep -o 'bench_[a-z_]*' bench/run_baselines.sh | sort -u))
if [ -n "$MISSING_BENCHES" ]; then
  echo "error: gbench-based bench/ sources not captured by" \
       "bench/run_baselines.sh:" >&2
  echo "$MISSING_BENCHES" >&2
  exit 1
fi

# Same guard for the cross-process drills: every ci/*_demo.sh must be wired
# into an add_test in CMakeLists.txt, or the drill stops running the day
# it's added — the exact failure mode these scripts exist to catch.
MISSING_DEMOS=$(comm -23 \
  <(ls ci/*_demo.sh | xargs -n1 basename | sort) \
  <(grep -o '[a-z_]*_demo\.sh' CMakeLists.txt | sort -u))
if [ -n "$MISSING_DEMOS" ]; then
  echo "error: ci/ demo scripts not registered with CTest:" >&2
  echo "$MISSING_DEMOS" >&2
  exit 1
fi

# Registry drift guard: the set of summary kinds the binaries actually
# register (as printed by `castream_shardctl kinds`, which walks
# SummaryRegistry) must match the committed golden fixtures one-for-one.
# A kind added without a golden_<kind>_v*.bin has no serde regression
# anchor; a fixture whose kind disappeared is dead weight hiding a removal.
REGISTRY_KINDS=$("$BUILD_DIR"/castream_shardctl kinds | awk '{print $1}' | sort)
GOLDEN_KINDS=$(ls tests/golden/golden_*_v*.bin \
  | sed 's|.*/golden_||; s|_v[0-9]*\.bin$||' | sort -u)
if [ "$REGISTRY_KINDS" != "$GOLDEN_KINDS" ]; then
  echo "error: registry kinds and tests/golden fixtures disagree" >&2
  diff <(echo "$REGISTRY_KINDS") <(echo "$GOLDEN_KINDS") >&2 || true
  exit 1
fi

# And the multi-kind demo must keep deriving its loop from the registry
# (`$BIN kinds`), never from a hardcoded list — a new kind must flow into
# the cross-process drill the day it is registered.
if ! grep -q '"\$BIN" kinds' ci/shardctl_demo.sh; then
  echo "error: ci/shardctl_demo.sh no longer derives its kind list from" \
       "'castream_shardctl kinds'; demos must enumerate the registry" >&2
  exit 1
fi

# Compile the repo benchmark harness in Release and run it briefly:
# perfbench/ drives the library only through its public API, so a public-API
# change that would break `python3 perfbench/run.py` fails here instead.
if [ "$BUILD_TYPE" = "Release" ] && [ -z "$SANITIZE" ]; then
  PERFBENCH_ARGS=(-S perfbench -B "$BUILD_DIR/perfbench"
                  -DCMAKE_BUILD_TYPE=Release)
  if [ -n "${GENERATOR:-}" ]; then
    PERFBENCH_ARGS+=(-G "$GENERATOR")
  fi
  cmake "${PERFBENCH_ARGS[@]}"
  cmake --build "$BUILD_DIR/perfbench" --target castream_perfbench \
    -j"$(nproc)"

  # One short run per workload, checked against its exact oracle: the
  # harness's result line must say "correct":true. f2_served covers the
  # served path (workers publish, the reducer decodes and merges, queries
  # answer); f2_uniform_ingest covers the sharded ingest path (every shard
  # thread feeds InsertBatch). Exit 3 means the runner has fewer CPUs than
  # the workload's threads and connections, so nothing was measured.
  for WORKLOAD in f2_served f2_uniform_ingest; do
    PERFBENCH_RC=0
    PERFBENCH_OUT=$("$BUILD_DIR/perfbench/castream_perfbench" \
      --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0) ||
      PERFBENCH_RC=$?
    if [ "$PERFBENCH_RC" -eq 3 ]; then
      echo "note: $WORKLOAD needs more CPUs than this runner has;" \
           "skipping its correctness run"
    elif [ "$PERFBENCH_RC" -ne 0 ] ||
         ! tail -n 1 <<< "$PERFBENCH_OUT" | grep -q '"correct":true'; then
      echo "error: castream_perfbench $WORKLOAD run failed" \
           "(exit $PERFBENCH_RC) or reported incorrect answers:" >&2
      echo "$PERFBENCH_OUT" >&2
      exit 1
    else
      echo "perfbench $WORKLOAD: correct"
    fi
  done
fi

cd "$BUILD_DIR"

# --no-tests=error everywhere: a label that silently matches nothing (a
# renamed test falling out of a CMake label list, a CTEST_LABEL typo in the
# workflow) must fail the job, not green-light it — the TSan job in
# particular would otherwise "pass" while running zero concurrency tests.
if [ -n "${CTEST_LABEL:-}" ]; then
  # Focused tier (e.g. the TSan job runs only the concurrency label: the
  # sharded-driver tests whose data races it exists to catch).
  ctest --output-on-failure --no-tests=error -L "$CTEST_LABEL" -j"$(nproc)"
else
  ctest --output-on-failure --no-tests=error -j"$(nproc)"
  # Focused pass over the statistical tests (the ones whose assertions
  # encode Pr[error <= eps] >= 1 - delta); kept separate so a flake is easy
  # to spot.
  ctest --output-on-failure --no-tests=error -L stats
fi

# Release-mode bench smoke: the bench targets must keep building *and*
# running (a quick timed pass, not a measurement). Skipped for Debug and
# sanitized builds (their timings are meaningless) and skipped cleanly when
# Google Benchmark is absent; the plain-number --benchmark_min_time form is
# accepted by both pre- and post-1.8 benchmark releases. Output is captured
# to BENCH_SMOKE_OUT so CI can archive it as a workflow artifact.
if [ "$BUILD_TYPE" = "Release" ] && [ -z "$SANITIZE" ]; then
  SMOKE_OUT=${BENCH_SMOKE_OUT:-bench_smoke.txt}
  : > "$SMOKE_OUT"
  for bench in bench_update_throughput bench_sharded_ingest bench_serialize \
               bench_snapshot_query bench_zipf_ingest bench_merge_scaling \
               bench_chh_shootout; do
    if [ -x "./$bench" ]; then
      echo "== bench smoke ($bench) =="
      "./$bench" --benchmark_min_time=0.05 2>&1 | tee -a "$SMOKE_OUT"
    else
      echo "Google Benchmark not found; skipping $bench smoke"
    fi
  done
else
  echo "bench smoke skipped (BUILD_TYPE=$BUILD_TYPE, sanitize='${SANITIZE}')"
fi
