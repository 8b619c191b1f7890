// Per-row (bucket, sign) hashing shared by AMS-F2 and CountSketch rows.
#ifndef CASTREAM_HASH_ROW_HASHER_H_
#define CASTREAM_HASH_ROW_HASHER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/hash/hash_family.h"

namespace castream {

/// \brief Hashes an item to a counter index in [0, width) and a sign in
/// {-1, +1} for one sketch row.
///
/// The bucket hash is pairwise independent and the sign hash 4-wise
/// independent, which is what the second-moment analysis of AMS [1] and
/// CountSketch [8] requires. Width must be a power of two.
class RowHasher {
 public:
  RowHasher(SplitMix64& seeder, uint32_t width)
      : bucket_hash_(seeder), sign_hash_(seeder), mask_(width - 1) {}

  uint32_t Bucket(uint64_t x) const {
    return static_cast<uint32_t>(bucket_hash_(x) & mask_);
  }

  /// \brief +1 or -1 with 4-wise independence across items.
  int64_t Sign(uint64_t x) const {
    return ((sign_hash_(x) >> 60) & 1) ? int64_t{1} : int64_t{-1};
  }

 private:
  TwoWiseHash bucket_hash_;
  FourWiseHash sign_hash_;
  uint64_t mask_;
};

/// \brief Immutable bundle of RowHashers for a depth x width sketch layout.
///
/// One HashSet is built per sketch *family* and shared (shared_ptr) by every
/// sketch instance in the family: sketches must agree on hash functions to be
/// mergeable (property (b) of sketching functions, Section 2 of the paper),
/// and sharing keeps the per-bucket footprint equal to the counter array.
class RowHashSet {
 public:
  /// \brief Rows covered by one PreHashed value. The dimension formulas in
  /// sketch_params.h / count_min.h cap depth at 12, so in practice a
  /// PreHashed covers every row; deeper hand-built layouts fall back to
  /// on-demand hashing for the uncovered rows.
  static constexpr uint32_t kMaxPreHashDepth = 12;

  /// \brief The per-row randomness of one item, computed once and reused.
  ///
  /// All bucket sketches of one family share a single RowHashSet (property
  /// (b) of sketching functions), so a tuple routed into many buckets — the
  /// correlated framework inserts each arrival into up to lmax level trees —
  /// hashes once here and every subsequent Insert is pure counter
  /// arithmetic. This is the Thorup–Zhang "hash once per record" observation
  /// the paper's fast per-record processing rests on (Section 3.1, Lemma 9).
  struct PreHashed {
    uint64_t x = 0;
    uint16_t sign_bits = 0;  // bit d set => sign +1 for row d
    uint8_t depth = 0;       // rows filled; 0 means "not computed yet"
    std::array<uint32_t, kMaxPreHashDepth> bucket{};

    bool Computed() const { return depth != 0; }
    int64_t Sign(uint32_t d) const {
      return ((sign_bits >> d) & 1) ? int64_t{1} : int64_t{-1};
    }
  };

  /// \brief Builds `depth` independent rows over counters of size `width`
  /// (width must be a power of two).
  RowHashSet(uint64_t seed, uint32_t depth, uint32_t width)
      : seed_(seed), width_(width) {
    SplitMix64 seeder(seed);
    rows_.reserve(depth);
    for (uint32_t d = 0; d < depth; ++d) rows_.emplace_back(seeder, width);
  }

  const RowHasher& row(uint32_t d) const { return rows_[d]; }
  uint32_t depth() const { return static_cast<uint32_t>(rows_.size()); }
  uint32_t width() const { return width_; }

  /// \brief The construction seed. Together with depth and width it is the
  /// family's complete value identity (see SameFamily), which is what the
  /// wire format serializes: a deserialized summary rebuilds the exact same
  /// hash functions from these three values.
  uint64_t seed() const { return seed_; }

  /// \brief True when `other` computes the exact same hash functions: the
  /// rows are drawn deterministically from (seed, depth, width), so value
  /// equality of those three is function equality. This is what lets
  /// summaries built in different processes (or from different factory
  /// objects seeded alike) merge — family identity is by value, not by
  /// object address.
  bool SameFamily(const RowHashSet& other) const {
    return seed_ == other.seed_ && depth() == other.depth() &&
           width_ == other.width_;
  }

  /// \brief Computes x's (bucket, sign) for every row, once.
  void Prehash(uint64_t x, PreHashed& out) const {
    out.x = x;
    const uint32_t covered = std::min(depth(), kMaxPreHashDepth);
    out.depth = static_cast<uint8_t>(covered);
    uint16_t signs = 0;
    for (uint32_t d = 0; d < covered; ++d) {
      out.bucket[d] = rows_[d].Bucket(x);
      signs |= static_cast<uint16_t>(static_cast<uint16_t>(rows_[d].Sign(x) > 0)
                                     << d);
    }
    out.sign_bits = signs;
  }

  PreHashed Prehash(uint64_t x) const {
    PreHashed out;
    Prehash(x, out);
    return out;
  }

 private:
  std::vector<RowHasher> rows_;
  uint64_t seed_;
  uint32_t width_;
};

}  // namespace castream

#endif  // CASTREAM_HASH_ROW_HASHER_H_
