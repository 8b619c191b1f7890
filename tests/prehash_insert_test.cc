// The hash-once ingest contract: inserting via a PreHashed value must be
// bit-for-bit identical to inserting the raw item — on sparse sketches, on
// dense sketches, across the Densify() transition, and across MergeFrom in
// every sparse/dense combination. The correlated framework routes one
// PreHashed into thousands of bucket sketches, so any divergence here would
// silently corrupt every summary built on it.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_heavy_hitters.h"
#include "src/hash/row_hasher.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/fk_sketch.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

TEST(RowHashSetPrehashTest, MatchesPerRowHashes) {
  RowHashSet hashes(123, 6, 256);
  Xoshiro256 rng = TestRng(1);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.Next();
    const RowHashSet::PreHashed ph = hashes.Prehash(x);
    EXPECT_EQ(ph.x, x);
    ASSERT_TRUE(ph.Computed());
    ASSERT_EQ(ph.depth, 6u);
    for (uint32_t d = 0; d < 6; ++d) {
      EXPECT_EQ(ph.bucket[d], hashes.row(d).Bucket(x));
      EXPECT_EQ(ph.Sign(d), hashes.row(d).Sign(x));
    }
  }
}

TEST(RowHashSetPrehashTest, DefaultConstructedIsNotComputed) {
  RowHashSet::PreHashed ph;
  EXPECT_FALSE(ph.Computed());
}

// Drives a (plain, prehashed) sketch pair through the same stream and
// asserts exact state agreement at every step; the stream is sized to cross
// the sparse -> dense transition of both.
TEST(PrehashInsertTest, AmsF2MatchesPlainAcrossDensify) {
  AmsF2SketchFactory factory(SketchDims{4, 256}, 99);
  AmsF2Sketch plain = factory.Create();
  AmsF2Sketch prehashed = factory.Create();
  Xoshiro256 rng = TestRng(2);
  ASSERT_TRUE(plain.IsSparse());
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.NextBounded(400);
    const int64_t w = 1 + static_cast<int64_t>(rng.NextBounded(3));
    plain.Insert(x, w);
    prehashed.Insert(factory.Prehash(x), w);
    ASSERT_EQ(plain.IsSparse(), prehashed.IsSparse()) << "insert " << i;
    ASSERT_EQ(plain.Estimate(), prehashed.Estimate()) << "insert " << i;
    // The upper bound must be certain at every step, both modes.
    ASSERT_GE(plain.EstimateUpperBound(), plain.Estimate());
    ASSERT_GE(prehashed.EstimateUpperBound(), prehashed.Estimate());
  }
  EXPECT_FALSE(plain.IsSparse()) << "stream too short to cover dense mode";
  EXPECT_EQ(plain.NetCount(), prehashed.NetCount());
  EXPECT_EQ(plain.CounterCount(), prehashed.CounterCount());
}

TEST(PrehashInsertTest, AmsF2UpperBoundHoldsUnderNegativeWeights) {
  AmsF2SketchFactory factory(SketchDims{3, 64}, 7);
  AmsF2Sketch sketch = factory.Create();
  Xoshiro256 rng = TestRng(3);
  for (int i = 0; i < 1500; ++i) {
    const uint64_t x = rng.NextBounded(100);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(7)) - 3;
    sketch.Insert(factory.Prehash(x), w);
    ASSERT_GE(sketch.EstimateUpperBound(), sketch.Estimate()) << "insert " << i;
  }
}

TEST(PrehashInsertTest, AmsF2MergeAllModeCombinations) {
  AmsF2SketchFactory factory(SketchDims{4, 128}, 11);
  Xoshiro256 rng = TestRng(4);
  // sizes chosen so "small" stays sparse and "big" densifies (capacity 64).
  const std::vector<uint64_t> small_stream = test::RandomMultiset(rng, 30, 50);
  const std::vector<uint64_t> big_stream = test::RandomMultiset(rng, 500, 300);

  auto build = [&factory](const std::vector<uint64_t>& stream, bool prehash) {
    AmsF2Sketch s = factory.Create();
    for (uint64_t x : stream) {
      if (prehash) {
        s.Insert(factory.Prehash(x), 1);
      } else {
        s.Insert(x, 1);
      }
    }
    return s;
  };

  AmsF2Sketch reference = build(test::Concat(small_stream, big_stream), false);
  struct Case {
    bool into_prehashed;
    bool from_prehashed;
  };
  for (const Case c : {Case{false, true}, Case{true, false}, Case{true, true}}) {
    // sparse absorbs dense
    AmsF2Sketch sparse = build(small_stream, c.into_prehashed);
    AmsF2Sketch dense = build(big_stream, c.from_prehashed);
    ASSERT_TRUE(sparse.IsSparse());
    ASSERT_FALSE(dense.IsSparse());
    ASSERT_TRUE(sparse.MergeFrom(dense).ok());
    EXPECT_EQ(sparse.Estimate(), reference.Estimate());
    // dense absorbs sparse
    AmsF2Sketch dense2 = build(big_stream, c.into_prehashed);
    AmsF2Sketch sparse2 = build(small_stream, c.from_prehashed);
    ASSERT_TRUE(dense2.MergeFrom(sparse2).ok());
    EXPECT_EQ(dense2.Estimate(), reference.Estimate());
    EXPECT_EQ(dense2.NetCount(), reference.NetCount());
  }
}

TEST(PrehashInsertTest, CountSketchMatchesPlainAcrossDensify) {
  CountSketchFactory factory(SketchDims{4, 128}, 21);
  CountSketch plain = factory.Create();
  CountSketch prehashed = factory.Create();
  Xoshiro256 rng = TestRng(5);
  for (int i = 0; i < 1200; ++i) {
    const uint64_t x = rng.NextBounded(250);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(5)) - 2;
    plain.Insert(x, w);
    prehashed.Insert(factory.Prehash(x), w);
    ASSERT_EQ(plain.IsSparse(), prehashed.IsSparse()) << "insert " << i;
  }
  EXPECT_FALSE(plain.IsSparse()) << "stream too short to cover dense mode";
  EXPECT_EQ(plain.Estimate(), prehashed.Estimate());
  for (uint64_t x = 0; x < 250; ++x) {
    ASSERT_EQ(plain.EstimateFrequency(x), prehashed.EstimateFrequency(x))
        << "x=" << x;
  }
}

TEST(PrehashInsertTest, CountSketchMergeSparseIntoDense) {
  CountSketchFactory factory(SketchDims{3, 128}, 31);
  Xoshiro256 rng = TestRng(6);
  CountSketch reference = factory.Create();
  CountSketch dense = factory.Create();
  CountSketch sparse = factory.Create();
  for (int i = 0; i < 800; ++i) {
    const uint64_t x = rng.NextBounded(200);
    reference.Insert(x, 1);
    dense.Insert(factory.Prehash(x), 1);
  }
  for (int i = 0; i < 20; ++i) {
    const uint64_t x = rng.NextBounded(200);
    reference.Insert(x, 1);
    sparse.Insert(factory.Prehash(x), 1);
  }
  ASSERT_TRUE(sparse.IsSparse());
  ASSERT_TRUE(dense.MergeFrom(sparse).ok());
  for (uint64_t x = 0; x < 200; ++x) {
    ASSERT_EQ(reference.EstimateFrequency(x), dense.EstimateFrequency(x));
  }
}

TEST(PrehashInsertTest, CountMinMatchesPlain) {
  CountMinSketchFactory factory(SketchDims{5, 128}, 41);
  CountMinSketch plain = factory.Create();
  CountMinSketch prehashed = factory.Create();
  Xoshiro256 rng = TestRng(7);
  for (int i = 0; i < 1500; ++i) {
    const uint64_t x = rng.NextBounded(300);
    ASSERT_TRUE(plain.Insert(x, 2).ok());
    ASSERT_TRUE(prehashed.Insert(factory.Prehash(x), 2).ok());
  }
  EXPECT_EQ(plain.TotalWeight(), prehashed.TotalWeight());
  for (uint64_t x = 0; x < 300; ++x) {
    ASSERT_EQ(plain.EstimateFrequency(x), prehashed.EstimateFrequency(x));
  }
  // The cash-register precondition applies to the pre-hashed path too.
  EXPECT_FALSE(prehashed.Insert(factory.Prehash(1), -1).ok());
}

TEST(PrehashInsertTest, FkSketchMatchesPlain) {
  FkSketchOptions options;
  options.k = 3.0;
  options.levels = 8;
  options.width = 64;
  options.depth = 2;
  options.candidates = 16;
  options.kmv_k = 16;
  FkSketchFactory factory(options, 51);
  FkSketch plain = factory.Create();
  FkSketch prehashed = factory.Create();
  Xoshiro256 rng = TestRng(8);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.NextBounded(200);
    plain.Insert(x, 1);
    prehashed.Insert(factory.Prehash(x), 1);
  }
  EXPECT_EQ(plain.Estimate(), prehashed.Estimate());
  EXPECT_EQ(plain.CounterCount(), prehashed.CounterCount());
}

TEST(PrehashInsertTest, FkSketchMergeIntoEmptyIsLossless) {
  // The framework's virtual root pool materializes a level's root as
  // MergeFrom(tail) into a fresh sketch; that merge must reproduce the
  // source bit-for-bit — including a candidate list between K and 2K-1
  // entries, which an eager post-merge prune would truncate.
  FkSketchOptions options;
  options.k = 3.0;
  options.levels = 6;
  options.width = 64;
  options.depth = 2;
  options.candidates = 16;
  options.kmv_k = 16;
  FkSketchFactory fk_factory(options, 71);
  FkSketch source = fk_factory.Create();
  for (uint64_t x = 0; x < 20; ++x) source.Insert(x, 1 + x);
  FkSketch fresh = fk_factory.Create();
  ASSERT_TRUE(fresh.MergeFrom(source).ok());
  EXPECT_EQ(fresh.Estimate(), source.Estimate());
  EXPECT_EQ(fresh.TopCandidates(100).size(), source.TopCandidates(100).size());
  EXPECT_EQ(fresh.TopCandidates(100).size(), 20u);
}

TEST(PrehashInsertTest, HeavyHitterBundleMatchesPlain) {
  F2HeavyHitterBundleFactory factory(
      AmsF2SketchFactory(SketchDims{4, 128}, 61),
      CountSketchFactory(SketchDims{4, 128}, 62), 16);
  F2HeavyHitterBundle plain = factory.Create();
  F2HeavyHitterBundle prehashed = factory.Create();
  Xoshiro256 rng = TestRng(9);
  for (int i = 0; i < 1500; ++i) {
    const uint64_t x = rng.NextBounded(120);
    plain.Insert(x, 1);
    prehashed.Insert(factory.Prehash(x), 1);
  }
  EXPECT_EQ(plain.Estimate(), prehashed.Estimate());
  EXPECT_GE(prehashed.EstimateUpperBound(), prehashed.Estimate());
  ASSERT_EQ(plain.candidates(), prehashed.candidates());
  for (uint64_t x = 0; x < 120; ++x) {
    ASSERT_EQ(plain.EstimateFrequency(x), prehashed.EstimateFrequency(x));
  }
}

}  // namespace
}  // namespace castream
