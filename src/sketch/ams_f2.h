// AMS second frequency moment sketch, Thorup-Zhang fast variant; also the
// CountSketch of the F2 heavy hitters.
//
// The classic Alon-Matias-Szegedy estimator [1] keeps w counters per row,
// each item hashed to one counter with a 4-wise independent sign; the row
// estimate is the sum of squared counters. Thorup and Zhang [29] observed
// that hashing each item to a *single* counter per row (instead of adding a
// sign to every counter) preserves the variance bound and makes updates
// O(depth). This is exactly the variant the paper uses in its F2 experiments
// (Section 5.1).
//
// With single-counter rows the AMS sketch and CountSketch (Charikar, Chen
// and Farach-Colton [8]) are one data structure: a signed counter per row,
// merged by adding counters. Estimate() reads it as AMS (median over rows
// of the row sum of squares); EstimateFrequency(x) reads it as CountSketch
// (median over rows of sign * counter, additive error ~sqrt(F2/width)).
// Section 3.3's heavy hitters keep one of each role per bucket, built from
// the two factories below, which differ only in dimensioning and in one
// wire field (see CountSketchFactory in count_sketch.h).
//
// The sketch is linear in the input, so it supports negative weights
// (turnstile updates, Section 4) and merging by counter addition (property
// (b) of sketching functions, Section 2). All counter arithmetic wraps mod
// 2^64 (counter_matrix.h), so hostile decoded counters cannot overflow.
//
// Lazy densification: a new sketch stores exact (item, weight) entries until
// their count exceeds ~width*depth/8 and only then materializes the counter
// matrix. The correlated framework instantiates thousands of per-bucket
// sketches whose buckets close at mass 2^(l+1) — at low levels they hold a
// handful of items, and the sparse mode keeps them at a few entries instead
// of a full counter matrix (the same technique production sketch libraries
// use). While sparse, both estimators are exact.
#ifndef CASTREAM_SKETCH_AMS_F2_H_
#define CASTREAM_SKETCH_AMS_F2_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/hash/row_hasher.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/io/format.h"
#include "src/sketch/counter_matrix.h"
#include "src/sketch/sketch_params.h"

namespace castream {

class AmsF2Sketch;

/// \brief The hash family shared by every factory of signed-counter
/// sketches: one immutable RowHashSet, its pre-hash entry points and its
/// wire identity. `Derived` is the concrete factory (AmsF2SketchFactory or
/// CountSketchFactory), which DecodeFamily returns.
///
/// Sketches from different families (different seeds or dimensions) must
/// not be merged; AmsF2Sketch::MergeFrom reports PreconditionFailed in that
/// case. Sharing the hash set keeps the marginal cost of a sketch equal to
/// its counter storage, which matters because the correlated framework
/// instantiates thousands of per-bucket sketches.
template <typename Derived>
class SignedCounterFamily {
 public:
  /// \brief New empty sketch of this family (starts in sparse mode).
  AmsF2Sketch Create() const;

  /// \brief Computes x's per-row randomness once; the result feeds the
  /// Insert(PreHashed) overload of every sketch in this family.
  RowHashSet::PreHashed Prehash(uint64_t x) const {
    return hashes_->Prehash(x);
  }
  void Prehash(uint64_t x, RowHashSet::PreHashed& out) const {
    hashes_->Prehash(x, out);
  }

  /// \brief Bulk pre-hash: one contiguous row-outer pass over all xs (see
  /// RowHashSet::PreHashBatch). `out` must hold at least xs.size() elements.
  void PrehashBatch(std::span<const uint64_t> xs,
                    RowHashSet::PreHashed* out) const {
    hashes_->PreHashBatch(xs, out);
  }

  /// \brief Accessor-form bulk pre-hash for strided outputs (the
  /// heavy-hitter bundle fills struct members); see
  /// RowHashSet::PreHashBatchTo.
  template <typename OutAt>
  void PrehashBatchTo(std::span<const uint64_t> xs, OutAt at) const {
    hashes_->PreHashBatchTo(xs.data(), xs.size(), at);
  }

  uint32_t depth() const { return hashes_->depth(); }
  uint32_t width() const { return hashes_->width(); }
  uint64_t seed() const { return hashes_->seed(); }

  // ---- Wire format (src/io) ------------------------------------------------
  // The family's value identity is (seed, depth, width): the hash tables are
  // drawn deterministically from them, so a decoded factory stamps out
  // sketches that merge with the originals (RowHashSet::SameFamily).

  void EncodeFamily(io::Encoder& enc) const {
    enc.PutU64(seed());
    enc.PutU32(depth());
    enc.PutU32(width());
  }

  static Result<Derived> DecodeFamily(io::Decoder& dec) {
    uint64_t seed = 0;
    uint32_t depth = 0, width = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&seed));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&depth));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&width));
    CASTREAM_RETURN_NOT_OK(ValidateSketchDims(depth, width));
    return Derived(SketchDims{depth, width}, seed);
  }

 protected:
  SignedCounterFamily(SketchDims dims, uint64_t seed)
      : hashes_(std::make_shared<RowHashSet>(seed, dims.depth, dims.width)) {}

  // The one cell codec both factories wrap: the sparse entries or the dense
  // counter matrix. A decoded sketch starts with NetCount() == `net_count`.
  static void EncodeCells(io::Encoder& enc, const AmsF2Sketch& sketch);
  [[nodiscard]] Result<AmsF2Sketch> DecodeCells(io::Decoder& dec,
                                                int64_t net_count) const;

  std::shared_ptr<const RowHashSet> hashes_;
};

/// \brief Factory of F2 sketches. Its blobs carry the net count before the
/// cells.
class AmsF2SketchFactory : public SignedCounterFamily<AmsF2SketchFactory> {
 public:
  /// CorrelatedSketch<AmsF2SketchFactory> is the registered durable
  /// "correlated F2" summary; these constants give the generic
  /// Serialize/Deserialize its envelope tag and version (src/io/format.h).
  static constexpr SummaryKind kSummaryKind = SummaryKind::kCorrelatedF2;
  static constexpr uint32_t kFormatVersion = io::kCorrelatedF2Version;

  AmsF2SketchFactory(SketchDims dims, uint64_t seed)
      : SignedCounterFamily(dims, seed) {}

  /// \brief Convenience: dimensions derived from an accuracy target.
  AmsF2SketchFactory(double eps, double delta, uint64_t seed)
      : AmsF2SketchFactory(AmsDimsFor(eps, delta), seed) {}

  void EncodeSketch(io::Encoder& enc, const AmsF2Sketch& sketch) const;
  [[nodiscard]] Result<AmsF2Sketch> DecodeSketch(io::Decoder& dec) const;
};

/// \brief Mergeable signed-counter sketch over item frequencies f_i,
/// supporting integer-weighted (including negative) updates. As AMS it is
/// an (eps, delta) estimator of F2 = sum_i f_i^2; as CountSketch it answers
/// point queries f_x with additive error ~sqrt(F2/width).
class AmsF2Sketch {
 public:
  /// \brief Adds `weight` to item x's frequency. O(depth) dense; O(entries)
  /// sparse (entries are few and contiguous by construction).
  void Insert(uint64_t x, int64_t weight) {
    count_ = WrapAdd(count_, weight);
    if (!counters_.has_value()) {
      InsertSparse(x, nullptr, weight);
      return;
    }
    InsertDense(x, weight);
  }
  void Insert(uint64_t x) { Insert(x, 1); }

  /// \brief Pre-hashed insert: identical effect to Insert(ph.x, weight), but
  /// the dense path is pure counter arithmetic — zero hash evaluations. The
  /// sparse path stores `ph` alongside the entry so densification never
  /// re-hashes either.
  void Insert(const RowHashSet::PreHashed& ph, int64_t weight = 1) {
    count_ = WrapAdd(count_, weight);
    if (!counters_.has_value()) {
      InsertSparse(ph.x, &ph, weight);
      return;
    }
    InsertDense(ph, weight);
  }

  /// \brief Warms the cache lines a subsequent Insert(ph, w) will touch.
  /// Purely advisory — never changes any state or result — so the columnar
  /// ingest path can issue it a few items ahead of the update loop.
  void PrefetchInsert(const RowHashSet::PreHashed& ph) const {
    if (!counters_.has_value()) {
      if (!sparse_.empty()) CASTREAM_PREFETCH(sparse_.data());
      return;
    }
    const uint32_t covered = std::min<uint32_t>(ph.depth, counters_->depth());
    for (uint32_t d = 0; d < covered; ++d) {
      CASTREAM_PREFETCH_WRITE(counters_->CellAddr(d, ph.bucket[d]));
    }
  }

  /// \brief Median-of-rows estimate of F2 (exact while sparse). O(depth).
  double Estimate() const {
    if (!counters_.has_value()) return static_cast<double>(sparse_ss_);
    if (row_ss_.size() == 1) return static_cast<double>(row_ss_[0]);
    scratch_.assign(row_ss_.begin(), row_ss_.end());
    return MedianOfScratch();
  }

  /// \brief CountSketch estimate of item x's frequency: the median over
  /// rows of sign * counter (exact while sparse). O(depth) hash
  /// evaluations.
  double EstimateFrequency(uint64_t x) const {
    if (!counters_.has_value()) {
      for (const SparseEntry& e : sparse_) {
        if (e.ph.x == x) return static_cast<double>(e.w);
      }
      return 0.0;
    }
    const RowHashSet& h = *hashes_;
    scratch_.clear();
    for (uint32_t d = 0; d < h.depth(); ++d) {
      const RowHasher& row = h.row(d);
      scratch_.push_back(
          WrapMul(row.Sign(x), counters_->at(d, row.Bucket(x))));
    }
    return MedianOfScratch();
  }

  /// \brief Cheap certain upper bound on Estimate(): the maximum per-row sum
  /// of squares (the median over rows can never exceed the max row), or the
  /// exact sum of squares while sparse. O(depth), no scratch copy, no
  /// selection — callers that only need to test `Estimate() >= t` (the
  /// bucket-closing rule of Algorithm 2) can skip the full median whenever
  /// this bound is still below t, without changing a single decision.
  double EstimateUpperBound() const {
    if (!counters_.has_value()) return static_cast<double>(sparse_ss_);
    int64_t worst = row_ss_[0];
    for (size_t d = 1; d < row_ss_.size(); ++d) {
      worst = std::max(worst, row_ss_[d]);
    }
    return static_cast<double>(worst);
  }

  /// \brief Adds another sketch of the same family into this one. The family
  /// check is by value (seed + dimensions), so sketches built from distinct
  /// factory objects — or in distinct processes — merge as long as they were
  /// seeded alike.
  Status MergeFrom(const AmsF2Sketch& other) {
    if (other.hashes_ != hashes_ && !hashes_->SameFamily(*other.hashes_)) {
      return Status::PreconditionFailed(
          "AmsF2Sketch::MergeFrom: sketches from different families");
    }
    if (!other.counters_.has_value()) {
      // Replaying the other side's exact entries works into either mode; the
      // entries carry their pre-hashed rows, so no re-hashing happens here.
      for (const SparseEntry& e : other.sparse_) {
        if (counters_.has_value()) {
          InsertDense(e.ph, e.w);
        } else {
          InsertSparse(e.ph.x, &e.ph, e.w);
        }
      }
      count_ = WrapAdd(count_, other.count_);
      return Status::OK();
    }
    if (!counters_.has_value()) Densify();
    counters_->AddFrom(other.counters_.value());
    RecomputeRowSums();
    count_ = WrapAdd(count_, other.count_);
    return Status::OK();
  }

  /// \brief Net weight inserted (F1 of the signed stream); used by callers
  /// that track bucket occupancy. A sketch decoded by CountSketchFactory
  /// starts from 0 here: that wire format does not carry it.
  int64_t NetCount() const { return count_; }

  /// \brief True while the sketch stores exact entries (testing hook).
  bool IsSparse() const { return !counters_.has_value(); }

  size_t SizeBytes() const {
    if (!counters_.has_value()) {
      return sparse_.size() * sizeof(SparseEntry) + sizeof(*this);
    }
    return counters_->SizeBytes() + row_ss_.size() * sizeof(int64_t);
  }
  /// \brief Stored numbers, the "number of tuples stored" unit of
  /// Section 5: exact entries while sparse, counter cells once dense.
  size_t CounterCount() const {
    if (!counters_.has_value()) return sparse_.size();
    return counters_->CounterCount();
  }

 private:
  template <typename>
  friend class SignedCounterFamily;
  // `ph.x` is the item; `ph` is populated lazily (only inserts that came in
  // pre-hashed carry rows), so densification re-hashes at most the entries
  // that were never pre-hashed. Deliberate trade-off: carrying the rows
  // grows a sparse entry from 16 to ~72 bytes — still below the dense
  // matrix at the capacity where Densify() fires, and typical framework
  // buckets hold only a handful of entries — in exchange for hash-free
  // densification and sparse-replay merges.
  struct SparseEntry {
    RowHashSet::PreHashed ph;
    int64_t w;
  };

  explicit AmsF2Sketch(std::shared_ptr<const RowHashSet> hashes)
      : hashes_(std::move(hashes)) {}

  size_t SparseCapacity() const {
    // cells/8 keeps sparse memory at ~1/4 of the dense matrix; the 128-entry
    // cap bounds the linear scan of InsertSparse on wide configurations.
    const size_t cells = static_cast<size_t>(hashes_->depth()) *
                         hashes_->width();
    return std::clamp<size_t>(cells / 8, 16, 128);
  }

  // Kept out of line so the (long-run) dense insert path stays small enough
  // to inline into callers' hot loops; a sketch leaves sparse mode for good
  // after at most SparseCapacity() + 1 inserts.
  [[gnu::noinline]] void InsertSparse(uint64_t x,
                                      const RowHashSet::PreHashed* ph,
                                      int64_t weight) {
    for (size_t i = 0; i < sparse_.size(); ++i) {
      SparseEntry& e = sparse_[i];
      if (e.ph.x == x) {
        // (w+d)^2 - w^2 maintains the exact sum of squares incrementally.
        sparse_ss_ = WrapAdd(sparse_ss_, SquareGrowth(e.w, weight));
        e.w = WrapAdd(e.w, weight);
        if (ph != nullptr && !e.ph.Computed()) e.ph = *ph;
        // Transpose heuristic: hot items drift toward the front, keeping
        // the linear scan short on skewed streams.
        if (i > 0) std::swap(sparse_[i], sparse_[i - 1]);
        return;
      }
    }
    SparseEntry entry;
    if (ph != nullptr) {
      entry.ph = *ph;
    } else {
      entry.ph.x = x;
    }
    entry.w = weight;
    sparse_.push_back(entry);
    sparse_ss_ = WrapAdd(sparse_ss_, WrapMul(weight, weight));
    if (sparse_.size() > SparseCapacity()) Densify();
  }

  void InsertDense(uint64_t x, int64_t weight) {
    const RowHashSet& h = *hashes_;
    for (uint32_t d = 0; d < h.depth(); ++d) {
      const RowHasher& row = h.row(d);
      AddToRow(d, row.Bucket(x), WrapMul(row.Sign(x), weight));
    }
  }

  // Hash-free dense update; rows beyond ph.depth (never produced by the
  // factories in this repo, see kMaxPreHashDepth) hash on demand.
  void InsertDense(const RowHashSet::PreHashed& ph, int64_t weight) {
    const RowHashSet& h = *hashes_;
    const uint32_t depth = h.depth();
    for (uint32_t d = 0; d < depth; ++d) {
      int64_t sign;
      uint32_t bucket;
      if (d < ph.depth) {
        sign = ph.Sign(d);
        bucket = ph.bucket[d];
      } else {
        const RowHasher& row = h.row(d);
        sign = row.Sign(ph.x);
        bucket = row.Bucket(ph.x);
      }
      AddToRow(d, bucket, WrapMul(sign, weight));
    }
  }

  void AddToRow(uint32_t d, uint32_t bucket, int64_t delta) {
    const int64_t old = counters_->AddAndReturnOld(d, bucket, delta);
    // The row sum of squares is maintained in O(1) per update — this is
    // what makes Estimate() cheap enough for the per-insert bucket-closing
    // test in Algorithm 2.
    row_ss_[d] = WrapAdd(row_ss_[d], SquareGrowth(old, delta));
  }

  void RecomputeRowSums() {
    for (uint32_t d = 0; d < counters_->depth(); ++d) {
      row_ss_[d] = counters_->RowSumSquares(d);
    }
  }

  void Densify() {
    counters_.emplace(hashes_->depth(), hashes_->width());
    row_ss_.assign(hashes_->depth(), 0);
    // Entries inserted pre-hashed replay without any hashing; entries whose
    // ph was never computed fall back to on-demand hashing inside
    // InsertDense (ph.depth == 0 routes every row there).
    for (const SparseEntry& e : sparse_) InsertDense(e.ph, e.w);
    sparse_.clear();
    sparse_.shrink_to_fit();
    sparse_ss_ = 0;
  }

  // Median of scratch_; the even-depth midpoint is taken in double.
  double MedianOfScratch() const {
    const size_t mid = scratch_.size() / 2;
    std::nth_element(scratch_.begin(), scratch_.begin() + mid, scratch_.end());
    if (scratch_.size() % 2 == 1) return static_cast<double>(scratch_[mid]);
    int64_t lo = *std::max_element(scratch_.begin(), scratch_.begin() + mid);
    return 0.5 * (static_cast<double>(lo) + static_cast<double>(scratch_[mid]));
  }

  // ---- Cell codec (called through the factories' Encode/DecodeSketch) -----
  // Only integer stream state goes on the wire: sparse entries as (x, weight)
  // pairs — the per-row pre-hash is recomputed from the family, which is
  // deterministic, so replayed densification stays bit-identical — and dense
  // mode as the raw counter cells. sparse_ss_ / row_ss_ are derived and
  // recomputed on decode (their incremental maintenance is wrapping integer
  // arithmetic, so recomputation reproduces them bit-for-bit).

  void EncodeCells(io::Encoder& enc) const {
    if (!counters_.has_value()) {
      enc.PutU8(0);
      enc.PutU32(static_cast<uint32_t>(sparse_.size()));
      for (const SparseEntry& e : sparse_) {
        enc.PutU64(e.ph.x);
        enc.PutI64(e.w);
      }
      return;
    }
    enc.PutU8(1);
    const uint32_t d = counters_->depth();
    const uint32_t w = counters_->width();
    enc.PutU32(d);
    enc.PutU32(w);
    enc.PutI64Span(counters_->cells());
  }

  [[nodiscard]] Status DecodeCells(io::Decoder& dec) {
    uint8_t mode = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU8(&mode));
    if (mode == 0) {
      uint32_t n = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n, 16));
      if (n > SparseCapacity()) {
        return Status::InvalidArgument(
            "decode: sparse entry count exceeds this family's capacity");
      }
      sparse_.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        SparseEntry e;
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.ph.x));
        CASTREAM_RETURN_NOT_OK(dec.ReadI64(&e.w));
        // Entries are unique by item: the encoder aggregates weights per x,
        // so duplicates prove corruption (and would skew the exact sparse
        // estimators, which assume one aggregated weight per item).
        for (const SparseEntry& seen : sparse_) {
          if (seen.ph.x == e.ph.x) {
            return Status::InvalidArgument(
                "decode: duplicate item in sparse sketch entries");
          }
        }
        sparse_ss_ = WrapAdd(sparse_ss_, WrapMul(e.w, e.w));
        sparse_.push_back(e);
      }
      return Status::OK();
    }
    if (mode != 1) {
      return Status::InvalidArgument("decode: bad sketch mode byte");
    }
    uint32_t d = 0, w = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&d));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&w));
    if (d != hashes_->depth() || w != hashes_->width()) {
      return Status::InvalidArgument(
          "decode: dense counter dimensions disagree with the hash family");
    }
    counters_.emplace(d, w);
    row_ss_.assign(d, 0);
    CASTREAM_RETURN_NOT_OK(dec.ReadI64Span(counters_->cells()));
    RecomputeRowSums();
    return Status::OK();
  }

  std::shared_ptr<const RowHashSet> hashes_;
  std::optional<CounterMatrix> counters_;  // nullopt while sparse
  std::vector<int64_t> row_ss_;            // dense mode: per-row sum-squares
  std::vector<SparseEntry> sparse_;        // sparse mode: exact entries
  int64_t sparse_ss_ = 0;                  // sparse mode: exact F2
  int64_t count_ = 0;
  // Per-row values for the median: row sums of squares (Estimate) or
  // sign * counter (EstimateFrequency).
  mutable std::vector<int64_t> scratch_;
};

template <typename Derived>
AmsF2Sketch SignedCounterFamily<Derived>::Create() const {
  return AmsF2Sketch(hashes_);
}

template <typename Derived>
void SignedCounterFamily<Derived>::EncodeCells(io::Encoder& enc,
                                               const AmsF2Sketch& sketch) {
  sketch.EncodeCells(enc);
}

template <typename Derived>
Result<AmsF2Sketch> SignedCounterFamily<Derived>::DecodeCells(
    io::Decoder& dec, int64_t net_count) const {
  AmsF2Sketch sketch = Create();
  sketch.count_ = net_count;
  CASTREAM_RETURN_NOT_OK(sketch.DecodeCells(dec));
  return sketch;
}

inline void AmsF2SketchFactory::EncodeSketch(io::Encoder& enc,
                                             const AmsF2Sketch& sketch) const {
  enc.PutI64(sketch.NetCount());
  EncodeCells(enc, sketch);
}

inline Result<AmsF2Sketch> AmsF2SketchFactory::DecodeSketch(
    io::Decoder& dec) const {
  int64_t net_count = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadI64(&net_count));
  return DecodeCells(dec, net_count);
}

}  // namespace castream

#endif  // CASTREAM_SKETCH_AMS_F2_H_
