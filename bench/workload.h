// Deterministic workload generators and query walks shared by the
// throughput benches (bench_update_throughput, bench_sharded_ingest,
// bench_snapshot_query, bench_zipf_ingest).
//
// Every generator is a pure function of its arguments: same (shape
// parameters, seed) -> same tuple stream, on every platform, so bench
// numbers recorded in BENCH_baseline.json stay comparable across runs and
// machines. Construction logs a one-line `# workload ...` header with the
// seed, so any recorded number can be traced back to the exact stream that
// produced it.
//
// The shapes (what batched and hot-key-coalesced ingest is exercised on):
//   * Uniform       — independent uniform x and y (the paper's baseline).
//   * Zipf          — x ~ Zipf(alpha) with y quantized to y_card distinct
//                     values: hot keys repeat whole (x, y) pairs, which is
//                     what the writer-side hot-key coalescer feeds on.
//   * Bursty        — arrival bursts: one (x, y) repeated back-to-back for
//                     a geometric-ish burst, then a new draw (trace-replay
//                     shape: packet trains / flaps).
//   * TimeSkew      — y is (jittered) arrival position, the paper's
//                     y-as-timestamp reading; recent cutoffs select a
//                     suffix.
//   * Churn         — a small working set of keys that rotates every
//                     churn_period tuples (sessions arriving and dying).
#ifndef CASTREAM_BENCH_WORKLOAD_H_
#define CASTREAM_BENCH_WORKLOAD_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/random.h"
#include "src/core/options.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"

namespace castream::bench {

/// \brief The F2-framework options every throughput bench uses (numerically
/// identical to the per-file F2Opts helpers this header replaced; the
/// default AggregateConditions equal ForFk(2)).
inline CorrelatedSketchOptions F2BenchOpts(double eps, uint64_t y_max) {
  CorrelatedSketchOptions o;
  o.eps = eps;
  o.delta = 0.1;
  o.y_max = y_max;
  o.f_max_hint = 1e12;
  o.conditions = AggregateConditions::ForFk(2.0);
  return o;
}

/// \brief The query benches' deterministic cutoff sequence (the Weyl-style
/// `c = c * 2654435761 + 1` walk every bench previously open-coded).
struct CutoffWalk {
  uint64_t c = 1;

  uint64_t Next(uint64_t range) {
    const uint64_t v = c % range;
    c = c * 2654435761 + 1;
    return v;
  }
};

inline void LogWorkload(const char* name, size_t n, uint64_t seed) {
  std::printf("# workload %s: n=%zu seed=%llu\n", name, n,
              static_cast<unsigned long long>(seed));
}

/// \brief Independent uniform draws of x in [0, x_range] and y in
/// [0, y_range] (inclusive, matching UniformGenerator) — the shape the
/// recorded "uniform" baselines ran on.
inline std::vector<Tuple> MakeUniformStream(size_t n, uint64_t x_range,
                                            uint64_t y_range, uint64_t seed) {
  LogWorkload("uniform", n, seed);
  std::vector<Tuple> out;
  out.reserve(n);
  UniformGenerator gen(x_range, y_range, seed);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// \brief x ~ Zipf(alpha) over [0, x_range); y uniform over y_card distinct
/// values spread across [0, y_range). The y quantization matters: with
/// continuous y no (x, y) pair ever repeats and pre-aggregation has nothing
/// to coalesce, while real traces carry low-cardinality y (port, status,
/// coarse timestamp) next to skewed keys.
inline std::vector<Tuple> MakeZipfStream(size_t n, uint64_t x_range,
                                         double alpha, uint64_t y_card,
                                         uint64_t y_range, uint64_t seed) {
  LogWorkload("zipf", n, seed);
  if (y_card == 0) y_card = 1;
  const uint64_t y_step = y_range / y_card > 0 ? y_range / y_card : 1;
  std::vector<Tuple> out;
  out.reserve(n);
  ZipfDistribution zipf(x_range, alpha);
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = zipf.Sample(rng);
    const uint64_t y = rng.NextBounded(y_card) * y_step;
    out.push_back(Tuple{x, y});
  }
  return out;
}

/// \brief Arrival bursts: each draw picks (x, y) — x Zipf-skewed so bursts
/// revisit hot keys — and repeats it for a burst of 1 ..= 2 * mean_burst - 1
/// tuples. Back-to-back repeats are the hot-key buffer's best case and a
/// worst case for per-tuple dispatch overhead.
inline std::vector<Tuple> MakeBurstyStream(size_t n, uint64_t x_range,
                                           double alpha, uint64_t y_range,
                                           size_t mean_burst, uint64_t seed) {
  LogWorkload("bursty", n, seed);
  if (mean_burst == 0) mean_burst = 1;
  std::vector<Tuple> out;
  out.reserve(n);
  ZipfDistribution zipf(x_range, alpha);
  Xoshiro256 rng(seed);
  while (out.size() < n) {
    const Tuple t{zipf.Sample(rng), rng.NextBounded(y_range)};
    size_t burst = 1 + rng.NextBounded(2 * mean_burst - 1);
    for (; burst > 0 && out.size() < n; --burst) out.push_back(t);
  }
  return out;
}

/// \brief y is the arrival position plus bounded jitter, scaled into
/// [0, y_range) — the y-as-timestamp reading of the paper, where a cutoff
/// selects a time suffix/prefix. x uniform.
inline std::vector<Tuple> MakeTimeSkewStream(size_t n, uint64_t x_range,
                                             uint64_t y_range, uint64_t seed) {
  LogWorkload("time_skew", n, seed);
  std::vector<Tuple> out;
  out.reserve(n);
  Xoshiro256 rng(seed);
  const uint64_t jitter = y_range / 64 > 0 ? y_range / 64 : 1;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t base =
        n > 1 ? static_cast<uint64_t>((static_cast<double>(i) / (n - 1)) *
                                      (y_range - 1))
              : 0;
    uint64_t y = base + rng.NextBounded(jitter);
    if (y >= y_range) y = y_range - 1;
    out.push_back(Tuple{rng.NextBounded(x_range), y});
  }
  return out;
}

/// \brief Key churn: draws come uniformly from a working set of
/// working_set keys whose base rotates by working_set / 2 every
/// churn_period tuples — old keys die, new keys are born, and any per-key
/// state (hot-key slots, shard routing) must adapt. y uniform.
inline std::vector<Tuple> MakeChurnStream(size_t n, uint64_t x_range,
                                          uint64_t working_set,
                                          size_t churn_period,
                                          uint64_t y_range, uint64_t seed) {
  LogWorkload("churn", n, seed);
  if (working_set == 0) working_set = 1;
  if (churn_period == 0) churn_period = 1;
  std::vector<Tuple> out;
  out.reserve(n);
  Xoshiro256 rng(seed);
  uint64_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && i % churn_period == 0) {
      base = (base + working_set / 2 + 1) % x_range;
    }
    const uint64_t x = (base + rng.NextBounded(working_set)) % x_range;
    out.push_back(Tuple{x, rng.NextBounded(y_range)});
  }
  return out;
}

}  // namespace castream::bench

#endif  // CASTREAM_BENCH_WORKLOAD_H_
