// ShardedAsyncWindow vs the unsharded AsyncSlidingWindow (label:
// concurrency): same accuracy contract under every arrival order, same
// Status codes on every error path, and snapshot window queries equal
// blocking ones once flushed.
#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/core/async_window.h"
#include "src/core/correlated_fk.h"
#include "src/driver/sharded_window.h"
#include "src/sketch/exact.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;
using test::TrialsWithin;

constexpr QueryOptions kSnapshot{.mode = QueryMode::kSnapshot};

CorrelatedSketchOptions WindowOptions(uint64_t t_max) {
  CorrelatedSketchOptions o;
  o.eps = 0.25;
  o.delta = 0.1;
  o.y_max = t_max;
  o.f_max_hint = 1e10;
  return o;
}

ShardedAsyncWindow<ExactAggregateFactory> MakeExactShardedWindow(
    uint64_t t_max, uint32_t shards) {
  ShardedDriverOptions dopts;
  dopts.shards = shards;
  dopts.batch_size = 4;
  dopts.snapshot_interval_batches = 1;
  return ShardedAsyncWindow<ExactAggregateFactory>(
      WindowOptions(t_max), ExactAggregateFactory(AggregateKind::kF2), t_max,
      dopts);
}

AsyncSlidingWindow<ExactAggregateFactory> MakeExactWindow(uint64_t t_max) {
  return AsyncSlidingWindow<ExactAggregateFactory>(
      WindowOptions(t_max), ExactAggregateFactory(AggregateKind::kF2), t_max);
}

TEST(ShardedWindowTest, ErrorPathsMatchUnshardedStatusCodes) {
  auto sharded = MakeExactShardedWindow(1000, 3);
  auto unsharded = MakeExactWindow(1000);

  // Timestamp beyond t_max, on Observe.
  const Status s_obs = sharded.Observe(1, 2000);
  const Status u_obs = unsharded.Observe(1, 2000);
  EXPECT_FALSE(s_obs.ok());
  EXPECT_EQ(s_obs.code(), u_obs.code());

  ASSERT_TRUE(sharded.Observe(1, 900).ok());
  ASSERT_TRUE(unsharded.Observe(1, 900).ok());
  sharded.Flush();

  // Watermark beyond t_max.
  const auto s_wm = sharded.QueryWindow(5000, 10);
  const auto u_wm = unsharded.QueryWindow(5000, 10);
  ASSERT_FALSE(s_wm.ok());
  EXPECT_EQ(s_wm.status().code(), u_wm.status().code());

  // Watermark before an observed timestamp (interior windows are out of
  // the model for both classes).
  const auto s_past = sharded.QueryWindow(500, 100);
  const auto u_past = unsharded.QueryWindow(500, 100);
  ASSERT_FALSE(s_past.ok());
  EXPECT_EQ(s_past.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s_past.status().code(), u_past.status().code());

  // The snapshot path surfaces the same codes as the blocking path.
  const auto snap_wm = sharded.QueryWindow(5000, 10, kSnapshot);
  ASSERT_FALSE(snap_wm.ok());
  EXPECT_EQ(snap_wm.status().code(), s_wm.status().code());
  const auto snap_past = sharded.QueryWindow(500, 100, kSnapshot);
  ASSERT_FALSE(snap_past.ok());
  EXPECT_EQ(snap_past.status().code(), s_past.status().code());

  // Width-0 windows are empty, not errors, for both.
  EXPECT_DOUBLE_EQ(sharded.QueryWindow(950, 0).value().estimate, 0.0);
  EXPECT_DOUBLE_EQ(unsharded.QueryWindow(950, 0).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      sharded.QueryWindow(950, 0, kSnapshot).value().estimate, 0.0);

  // QuerySince beyond the domain is empty for both.
  EXPECT_DOUBLE_EQ(sharded.QuerySince(1001).value().estimate, 0.0);
  EXPECT_DOUBLE_EQ(unsharded.QuerySince(1001).value(), 0.0);
}

TEST(ShardedWindowTest, SelectsRecentItemsDespiteOutOfOrderArrival) {
  // The deterministic unsharded example (async_window_test), served
  // sharded: tiny streams close no buckets, so exact-aggregate answers are
  // exact here too.
  auto win = MakeExactShardedWindow(1000, 3);
  ASSERT_TRUE(win.Observe(/*v=*/1, /*t=*/900).ok());
  ASSERT_TRUE(win.Observe(2, 100).ok());
  ASSERT_TRUE(win.Observe(3, 950).ok());
  ASSERT_TRUE(win.Observe(4, 500).ok());
  ASSERT_TRUE(win.Observe(1, 920).ok());

  // Window (850, 950]: items 1 (twice) and 3 once -> F2 = 4 + 1 = 5.
  EXPECT_DOUBLE_EQ(win.QueryWindow(950, 100).value().estimate, 5.0);
  // Window (450, 950]: items 1 (x2), 3, 4 -> F2 = 4 + 1 + 1 = 6.
  EXPECT_DOUBLE_EQ(win.QueryWindow(950, 500).value().estimate, 6.0);
  // Everything: frequencies {1:2, 2:1, 3:1, 4:1} -> F2 = 7.
  EXPECT_DOUBLE_EQ(win.QueryWindow(1000, 1001).value().estimate, 7.0);
  // t >= 500: {1:2, 3:1, 4:1} -> F2 = 6.
  EXPECT_DOUBLE_EQ(win.QuerySince(500).value().estimate, 6.0);
  // Post-flush snapshots agree bit-for-bit.
  win.Flush();
  EXPECT_DOUBLE_EQ(
      win.QueryWindow(950, 100, kSnapshot).value().estimate, 5.0);
  EXPECT_DOUBLE_EQ(win.QuerySince(500, kSnapshot).value().estimate, 6.0);
}

// One trial of the oracle equivalence: events delivered in the given
// arrival order to a sharded window, an unsharded window, and an exact
// oracle; passes iff both estimators land within eps of the truth.
enum class Arrival { kInOrder, kReversed, kShuffled };

bool OracleTrial(Arrival arrival, uint64_t seed) {
  const uint64_t t_max = (1 << 16) - 1;
  CorrelatedSketchOptions opts = WindowOptions(t_max);
  opts.eps = 0.2;  // alpha = kappa/eps^2 buckets/level; 0.2 is the
                   // calibrated operating point async_window_test uses
  AmsF2SketchFactory factory(
      AmsDimsFor(opts.eps / 2.0, BucketGamma(opts), 4), seed);

  std::vector<std::pair<uint64_t, uint64_t>> events;  // (v, t)
  Xoshiro256 rng = TestRng(seed * 31 + 7);
  for (int i = 0; i < 40000; ++i) {
    events.emplace_back(rng.NextBounded(1000), rng.NextBounded(t_max + 1));
  }
  switch (arrival) {
    case Arrival::kInOrder:
      std::sort(events.begin(), events.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      break;
    case Arrival::kReversed:
      std::sort(events.begin(), events.end(),
                [](const auto& a, const auto& b) { return a.second > b.second; });
      break;
    case Arrival::kShuffled:
      break;  // generation order is already a uniform shuffle
  }

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 256;
  ShardedAsyncWindow<AmsF2SketchFactory> sharded(opts, factory, t_max, dopts);
  AsyncSlidingWindow<AmsF2SketchFactory> unsharded(opts, factory, t_max);
  for (const auto& [v, t] : events) {
    if (!sharded.Observe(v, t).ok()) return false;
    if (!unsharded.Observe(v, t).ok()) return false;
  }

  for (uint64_t window : {uint64_t{1} << 14, uint64_t{1} << 15}) {
    ExactAggregate truth = ExactAggregateFactory(AggregateKind::kF2).Create();
    for (const auto& [v, t] : events) {
      if (t > t_max - window && t <= t_max) truth.Insert(v);
    }
    const auto s = sharded.QueryWindow(t_max, window);
    const auto u = unsharded.QueryWindow(t_max, window);
    if (!s.ok() || !u.ok()) return false;
    if (!WithinRelativeError(s.value().estimate, truth.Estimate(),
                             opts.eps)) {
      return false;
    }
    if (!WithinRelativeError(u.value(), truth.Estimate(), opts.eps)) {
      return false;
    }
  }
  return true;
}

TEST(ShardedWindowTest, MatchesUnshardedOracleInOrderArrival) {
  EXPECT_TRUE(TrialsWithin(6, 1.0 / 3.0, [](int i) {
    return OracleTrial(Arrival::kInOrder, 400 + static_cast<uint64_t>(i));
  }));
}

TEST(ShardedWindowTest, MatchesUnshardedOracleReversedArrival) {
  EXPECT_TRUE(TrialsWithin(6, 1.0 / 3.0, [](int i) {
    return OracleTrial(Arrival::kReversed, 500 + static_cast<uint64_t>(i));
  }));
}

TEST(ShardedWindowTest, MatchesUnshardedOracleShuffledArrival) {
  EXPECT_TRUE(TrialsWithin(6, 1.0 / 3.0, [](int i) {
    return OracleTrial(Arrival::kShuffled, 600 + static_cast<uint64_t>(i));
  }));
}

TEST(ShardedWindowTest, ConcurrentObserversAndSnapshotQueries) {
  const uint64_t t_max = (1 << 13) - 1;
  const auto opts = WindowOptions(t_max);
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/91);
  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 32;
  dopts.snapshot_interval_batches = 2;
  ShardedAsyncWindow<AmsF2SketchFactory> window(opts, factory, t_max, dopts);

  // Two observer threads deliver interleaved out-of-order halves while the
  // main thread serves snapshot queries.
  auto feed = [&window, t_max](uint64_t seed, int n) {
    auto observer = window.MakeObserver();
    Xoshiro256 rng = TestRng(seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          observer.Observe(rng.NextBounded(300), rng.NextBounded(t_max + 1))
              .ok());
    }
    observer.Flush();
  };
  {
    std::thread a(feed, 71, 8000);
    std::thread b(feed, 72, 8000);
    for (int probe = 0; probe < 20; ++probe) {
      // The watermark t_max is always >= max observed t, so the only
      // acceptable outcome mid-ingest is a valid (possibly stale) answer.
      const auto q = window.QueryWindow(t_max, t_max / 2, kSnapshot);
      ASSERT_TRUE(q.ok());
      EXPECT_GE(q.value().estimate, 0.0);
    }
    a.join();
    b.join();
  }

  window.Flush();
  for (uint64_t w : {t_max / uint64_t{8}, t_max / uint64_t{2},
                     t_max + uint64_t{1}}) {
    const auto snapshot = window.QueryWindow(t_max, w, kSnapshot);
    const auto blocking = window.QueryWindow(t_max, w);
    ASSERT_EQ(snapshot.ok(), blocking.ok()) << "window=" << w;
    if (snapshot.ok()) {
      ASSERT_EQ(snapshot.value().estimate, blocking.value().estimate)
          << "window=" << w;
    }
  }
  EXPECT_EQ(window.driver().tuples_processed(), 16000u);
}

}  // namespace
}  // namespace castream
