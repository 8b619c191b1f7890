// The hot-key pre-aggregation front end (src/driver/hot_key_buffer.h) is
// allowed to change *when* a tuple reaches a summary, never *what* reaches
// it: per-(x, y) weight is conserved exactly, a partial table drains
// completely at every flush boundary, and the whole pipeline is
// deterministic given (slots, seed) — which is what lets these tests build
// bit-for-bit oracles by replaying a second identical buffer side by side.
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_fk.h"
#include "src/driver/hot_key_buffer.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

using KeyWeights = std::map<std::pair<uint64_t, uint64_t>, int64_t>;

// Zipf-skewed duplicate-heavy unit-weight stream (the workload coalescing
// exists for).
std::vector<Tuple> MakeZipfStream(size_t n, uint64_t x_domain, uint64_t y_card,
                                  uint64_t y_max, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  ZipfDistribution zipf(x_domain, 1.1);
  const uint64_t y_step = y_max / (y_card - 1);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(Tuple{zipf.Sample(rng),
                           std::min(rng.NextBounded(y_card) * y_step, y_max)});
  }
  return stream;
}

KeyWeights SumByKey(const std::vector<WeightedTuple>& rows) {
  KeyWeights sums;
  for (const WeightedTuple& t : rows) sums[{t.x, t.y}] += t.weight;
  return sums;
}

TEST(HotKeyBufferTest, ConservesWeightPerKey) {
  HotKeyBuffer buf(64);
  Xoshiro256 rng = TestRng(1);
  KeyWeights offered;
  std::vector<WeightedTuple> emitted;
  const auto emit = [&](const WeightedTuple& t) { emitted.push_back(t); };
  const size_t kN = 20000;
  for (size_t i = 0; i < kN; ++i) {
    // Small domains force both coalescing hits and probe-window evictions.
    const uint64_t x = rng.NextBounded(200);
    const uint64_t y = rng.NextBounded(8);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(9)) - 3;
    offered[{x, y}] += w;
    buf.Insert(x, y, w, emit);
  }
  buf.Drain(emit);
  EXPECT_EQ(buf.pending(), 0u);
  EXPECT_EQ(buf.tuples_in(), kN);
  EXPECT_EQ(buf.tuples_out(), emitted.size());
  // Every observed tuple either left the buffer as (part of) an emission or
  // was absorbed into a parked slot.
  EXPECT_EQ(buf.tuples_in(), buf.tuples_out() + buf.coalesced());
  EXPECT_GT(buf.coalesced(), 0u);
  EXPECT_GT(buf.evictions(), 0u);

  KeyWeights got = SumByKey(emitted);
  // Zero-sum keys may legitimately be emitted as zero-weight rows or never
  // emitted at all (coalesced to zero then drained); compare modulo zeros.
  std::erase_if(offered, [](const auto& kv) { return kv.second == 0; });
  std::erase_if(got, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(offered, got);
}

TEST(HotKeyBufferTest, PartialBufferDrainsCompletely) {
  // Fewer distinct keys than slots: nothing is ever evicted, so every tuple
  // is still parked when the flush boundary arrives. Drain must emit all of
  // it — a tuple held across a flush would be invisible to a post-flush
  // query or a serialized snapshot.
  HotKeyBuffer buf(256);
  std::vector<WeightedTuple> emitted;
  const auto emit = [&](const WeightedTuple& t) { emitted.push_back(t); };
  for (uint64_t x = 0; x < 40; ++x) {
    for (int r = 0; r < 3; ++r) buf.Insert(x, x % 5, 2, emit);
  }
  EXPECT_TRUE(emitted.empty());  // everything parked or coalesced
  EXPECT_EQ(buf.pending(), 40u);
  buf.Drain(emit);
  EXPECT_EQ(buf.pending(), 0u);
  ASSERT_EQ(emitted.size(), 40u);
  for (const WeightedTuple& t : emitted) {
    EXPECT_EQ(t.weight, 6) << "x=" << t.x;
  }
  // The table is reusable after a drain: the next epoch starts empty.
  buf.Insert(7, 7, 1, emit);
  EXPECT_EQ(buf.pending(), 1u);
  emitted.clear();
  buf.Drain(emit);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], (WeightedTuple{7, 7, 1}));
}

TEST(HotKeyBufferTest, DeterministicGivenSlotsAndSeed) {
  // Two buffers with equal (slots, seed) fed the same sequence emit the
  // same rows in the same order — the property the driver-level oracle
  // below (and ShardedDriver's coalesced-equivalence contract) relies on.
  HotKeyBuffer a(32);
  HotKeyBuffer b(32);
  std::vector<WeightedTuple> ea, eb;
  Xoshiro256 rng = TestRng(2);
  for (size_t i = 0; i < 5000; ++i) {
    const uint64_t x = rng.NextBounded(500);
    const uint64_t y = rng.NextBounded(4);
    a.Insert(x, y, 1, [&](const WeightedTuple& t) { ea.push_back(t); });
    b.Insert(x, y, 1, [&](const WeightedTuple& t) { eb.push_back(t); });
  }
  a.Drain([&](const WeightedTuple& t) { ea.push_back(t); });
  b.Drain([&](const WeightedTuple& t) { eb.push_back(t); });
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(a.coalesced(), b.coalesced());
  EXPECT_EQ(a.evictions(), b.evictions());
}

TEST(HotKeyBufferTest, DisabledBufferPassesThroughInOrder) {
  HotKeyBuffer buf(0);
  EXPECT_FALSE(buf.enabled());
  std::vector<WeightedTuple> emitted;
  const auto emit = [&](const WeightedTuple& t) { emitted.push_back(t); };
  const std::vector<WeightedTuple> in = {
      {1, 2, 3}, {1, 2, 3}, {4, 5, -6}, {7, 8, 0}};
  for (const WeightedTuple& t : in) buf.Insert(t.x, t.y, t.weight, emit);
  EXPECT_EQ(emitted, in);  // no coalescing, no reordering, even of repeats
  EXPECT_EQ(buf.pending(), 0u);
  buf.Drain(emit);
  EXPECT_EQ(emitted.size(), in.size());
  EXPECT_EQ(buf.coalesced(), 0u);
}

TEST(HotKeyBufferTest, EvictionKeepsTheHeaviestKeys) {
  // Table of 4 slots with a 4-probe window: every insert sees the whole
  // table, so once it fills, each new distinct key must evict the lightest
  // slot. A parked heavy pair (|w| large — magnitude, so decrements count
  // too) can then never be the victim against unit-weight strangers.
  HotKeyBuffer buf(4);
  std::vector<WeightedTuple> emitted;
  const auto emit = [&](const WeightedTuple& t) { emitted.push_back(t); };
  buf.Insert(1000, 1, 50, emit);    // hot incremented pair
  buf.Insert(2000, 1, -50, emit);   // hot decremented pair, same heat
  for (uint64_t x = 0; x < 200; ++x) buf.Insert(x, 0, 1, emit);
  for (const WeightedTuple& t : emitted) {
    EXPECT_NE(t.x, 1000u);
    EXPECT_NE(t.x, 2000u);
  }
  std::vector<WeightedTuple> drained;
  buf.Drain([&](const WeightedTuple& t) { drained.push_back(t); });
  KeyWeights parked = SumByKey(drained);
  EXPECT_EQ((parked[{1000, 1}]), 50);
  EXPECT_EQ((parked[{2000, 1}]), -50);
}

// ---------------------------------------------------------------------------
// Driver-level equivalence: a single-writer ShardedDriver with coalescing
// enabled must answer exactly like the serial oracle that replays an
// identical HotKeyBuffer's emission sequence through ShardOf-partitioned
// summaries. (With coalescing *off* the driver is bit-for-bit equal to
// plain ingest — that contract lives in sharded_equivalence_test.)
// ---------------------------------------------------------------------------

CorrelatedSketchOptions FrameworkOptions() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  return opts;
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max, uint64_t seed) {
  std::vector<uint64_t> cutoffs{0, 1, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  Xoshiro256 rng = TestRng(seed);
  for (int i = 0; i < 8; ++i) cutoffs.push_back(rng.NextBounded(y_max + 1));
  return cutoffs;
}

template <typename Summary>
void ExpectIdenticalScalarQueries(const Summary& expected,
                                  const Summary& actual, uint64_t y_max) {
  for (uint64_t c : CutoffLadder(y_max, 99)) {
    const Result<double> ra = expected.Query(c);
    const Result<double> rb = actual.Query(c);
    ASSERT_EQ(ra.ok(), rb.ok()) << "c=" << c;
    if (ra.ok()) {
      ASSERT_EQ(ra.value(), rb.value()) << "c=" << c;
    }
  }
}

// Replays `stream` through a fresh HotKeyBuffer(slots) — the same
// construction the driver's writer uses — then feeds the emission sequence,
// in order, to shard summaries partitioned by the driver's own ShardOf, and
// merges them in shard order. Drains (as the writer's Flush does) after
// each prefix boundary in `flush_at`, and finally.
template <typename Summary, typename Make>
Summary CoalescedOracle(const ShardedDriver<Summary>& driver, Make make,
                        const std::vector<Tuple>& stream, size_t slots,
                        const std::vector<size_t>& flush_at,
                        size_t* rows_out = nullptr) {
  HotKeyBuffer buf(slots);
  std::vector<WeightedTuple> rows;
  const auto emit = [&](const WeightedTuple& t) { rows.push_back(t); };
  size_t next_flush = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    while (next_flush < flush_at.size() && flush_at[next_flush] == i) {
      buf.Drain(emit);
      ++next_flush;
    }
    buf.Insert(stream[i].x, stream[i].y, 1, emit);
  }
  buf.Drain(emit);

  std::vector<Summary> shards;
  for (uint32_t s = 0; s < driver.shard_count(); ++s) shards.push_back(make());
  for (const WeightedTuple& t : rows) {
    shards[driver.ShardOf(t.x)].Insert(t.x, t.y, t.weight);
  }
  Summary merged = make();
  for (const Summary& shard : shards) {
    EXPECT_TRUE(merged.MergeFrom(shard).ok());
  }
  if (rows_out != nullptr) *rows_out = rows.size();
  return merged;
}

TEST(CoalescedDriverEquivalenceTest, MatchesReplayOracle) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/42);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  auto make = [&] { return CorrelatedF2Sketch(patched, factory); };
  // Small coalescer relative to the key domain: hits, parks, and evictions
  // all occur.
  constexpr size_t kSlots = 64;
  const auto stream = MakeZipfStream(30000, 2000, 8, opts.y_max, 3);

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 256;
  dopts.writer_coalesce_slots = kSlots;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  auto writer = driver.MakeWriter();
  writer.InsertBatch(std::span<const Tuple>(stream));
  writer.Flush();
  driver.Flush();
  // The workload must actually exercise the front end for this test to mean
  // anything.
  EXPECT_GT(writer.coalescer().coalesced(), 0u);
  EXPECT_LT(writer.coalescer().tuples_out(), stream.size());

  size_t oracle_rows = 0;
  const auto oracle =
      CoalescedOracle(driver, make, stream, kSlots, {}, &oracle_rows);
  EXPECT_EQ(driver.tuples_processed(), oracle_rows);

  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(merged.value()->ValidateInvariants().ok());
  ExpectIdenticalScalarQueries(oracle, *merged.value(), opts.y_max);
}

TEST(CoalescedDriverEquivalenceTest, MidStreamFlushDrainsPartialBuffer) {
  // The ISSUE's flush-boundary case: a partially filled hot-key table at a
  // Flush must drain into the shards, so the answer right after the flush
  // covers every tuple offered so far — nothing rides across the boundary.
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/43);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  auto make = [&] { return CorrelatedF2Sketch(patched, factory); };
  constexpr size_t kSlots = 512;  // big: lots parked at the boundary
  const auto stream = MakeZipfStream(12000, 1500, 8, opts.y_max, 4);
  const size_t kCut = stream.size() / 2;

  ShardedDriverOptions dopts;
  dopts.shards = 2;
  dopts.batch_size = 128;
  dopts.writer_coalesce_slots = kSlots;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  driver.InsertBatch(std::span<const Tuple>(stream.data(), kCut));
  driver.Flush();

  // After the flush every offered tuple is visible: the drained prefix
  // oracle must match the driver's merged answer exactly.
  const std::vector<Tuple> prefix(stream.begin(), stream.begin() + kCut);
  size_t rows_after_flush = 0;
  const auto oracle_at_cut =
      CoalescedOracle(driver, make, prefix, kSlots, {}, &rows_after_flush);
  EXPECT_EQ(driver.tuples_processed(), rows_after_flush);
  {
    auto merged = driver.Summarize();
    ASSERT_TRUE(merged.ok());
    ExpectIdenticalScalarQueries(oracle_at_cut, *merged.value(), opts.y_max);
  }

  // Keep ingesting past the boundary; the final answer must match the
  // oracle that drained at exactly the same point.
  driver.InsertBatch(
      std::span<const Tuple>(stream.data() + kCut, stream.size() - kCut));
  driver.Flush();
  size_t total_rows = 0;
  const auto final_oracle = CoalescedOracle(driver, make, stream, kSlots,
                                            /*flush_at=*/{kCut}, &total_rows);
  EXPECT_EQ(driver.tuples_processed(), total_rows);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  ExpectIdenticalScalarQueries(final_oracle, *merged.value(), opts.y_max);
}

}  // namespace
}  // namespace castream
