// Correlated F2 heavy hitters (Section 3.3 of the paper).
//
// The paper's construction: reuse the correlated-F2 data structures S_i, but
// let every dyadic bucket additionally carry a COUNTSKETCH [8] estimating
// per-item squared frequencies. A query with y-bound c and thresholds
// (phi, eps) merges the B1 buckets at the query level — both the AMS
// sketches (giving F2(c)) and the CountSketches plus candidate sets (giving
// per-item frequency estimates) — and returns every item whose estimated
// squared frequency clears phi * F2(c).
//
// Implementation: a composite per-bucket sketch (F2 + CountSketch +
// bounded candidate list) that satisfies MergeableSketch, so the generic
// CorrelatedSketch framework handles all bucket/level logic unchanged —
// precisely the "use the same data structures S_i" reuse the paper intends.
#ifndef CASTREAM_CORE_CORRELATED_HEAVY_HITTERS_H_
#define CASTREAM_CORE_CORRELATED_HEAVY_HITTERS_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_sketch.h"
#include "src/io/format.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_sketch.h"

namespace castream {

class F2HeavyHitterBundle;

/// \brief One tuple's per-row randomness for both halves of the bundle (the
/// AMS and CountSketch families use independent hash sets), computed once
/// per arrival and reused across every bucket the framework routes into.
struct F2HeavyHitterPreHashed {
  RowHashSet::PreHashed f2;
  RowHashSet::PreHashed cs;
};

/// \brief Factory of composite (AMS + CountSketch + candidates) bucket
/// sketches; all bundles of one factory share hash functions and merge.
class F2HeavyHitterBundleFactory {
 public:
  /// \brief `max_candidates` must be >= 4; validated loudly (with the full
  /// [4, 2^20] range) by MakeSummary before anything is constructed, and
  /// asserted here so a direct construction cannot silently get a clamped
  /// budget that differs from what the caller asked for.
  F2HeavyHitterBundleFactory(AmsF2SketchFactory f2, CountSketchFactory cs,
                             uint32_t max_candidates)
      : f2_(std::move(f2)), cs_(std::move(cs)),
        max_candidates_(max_candidates) {
    assert(max_candidates >= 4);
  }

  F2HeavyHitterBundle Create() const;

  /// \brief Computes x's randomness for both sketch families, once.
  F2HeavyHitterPreHashed Prehash(uint64_t x) const {
    return F2HeavyHitterPreHashed{f2_.Prehash(x), cs_.Prehash(x)};
  }

  // ---- Wire format (src/io): both member families plus the candidate
  // budget; bundles encode member-wise. ---------------------------------------

  void EncodeFamily(io::Encoder& enc) const {
    f2_.EncodeFamily(enc);
    cs_.EncodeFamily(enc);
    enc.PutU32(max_candidates_);
  }

  static Result<F2HeavyHitterBundleFactory> DecodeFamily(io::Decoder& dec) {
    CASTREAM_ASSIGN_OR_RETURN(AmsF2SketchFactory f2,
                              AmsF2SketchFactory::DecodeFamily(dec));
    CASTREAM_ASSIGN_OR_RETURN(CountSketchFactory cs,
                              CountSketchFactory::DecodeFamily(dec));
    uint32_t max_candidates = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&max_candidates));
    // MakeSummary rejects budgets outside [4, 2^20] before a factory ever
    // exists, so a serialized value outside that range could not have come
    // from a real factory and would decode to a different family.
    if (max_candidates < 4 || max_candidates > (uint32_t{1} << 20)) {
      return Status::InvalidArgument(
          "decode: heavy-hitter candidate budget out of range");
    }
    return F2HeavyHitterBundleFactory(std::move(f2), std::move(cs),
                                      max_candidates);
  }

  void EncodeSketch(io::Encoder& enc, const F2HeavyHitterBundle& bundle) const;
  [[nodiscard]] Result<F2HeavyHitterBundle> DecodeSketch(
      io::Decoder& dec) const;

 private:
  friend class F2HeavyHitterBundle;
  AmsF2SketchFactory f2_;
  CountSketchFactory cs_;
  uint32_t max_candidates_;
};

/// \brief Composite bucket sketch: Estimate() reports F2 (driving the
/// framework's bucket-closing rule), while the CountSketch and candidate
/// list support per-item frequency recovery after merging.
class F2HeavyHitterBundle {
 public:
  void Insert(uint64_t x, int64_t weight = 1) {
    f2_.Insert(x, weight);
    cs_.Insert(x, weight);
    AddCandidate(x);
  }

  /// \brief Pre-hashed insert: identical effect to Insert(ph.f2.x, weight),
  /// with hash-free dense paths in both member sketches.
  void Insert(const F2HeavyHitterPreHashed& ph, int64_t weight = 1) {
    f2_.Insert(ph.f2, weight);
    cs_.Insert(ph.cs, weight);
    AddCandidate(ph.f2.x);
  }

  double Estimate() const { return f2_.Estimate(); }

  /// \brief Cheap certain upper bound on Estimate() (see AmsF2Sketch); lets
  /// the framework's bucket-closing test skip the full median.
  double EstimateUpperBound() const { return f2_.EstimateUpperBound(); }

  Status MergeFrom(const F2HeavyHitterBundle& other) {
    CASTREAM_RETURN_NOT_OK(f2_.MergeFrom(other.f2_));
    CASTREAM_RETURN_NOT_OK(cs_.MergeFrom(other.cs_));
    for (uint64_t x : other.candidates_) AddCandidate(x);
    return Status::OK();
  }

  size_t SizeBytes() const {
    return f2_.SizeBytes() + cs_.SizeBytes() +
           candidates_.size() * sizeof(uint64_t);
  }
  size_t CounterCount() const {
    return f2_.CounterCount() + cs_.CounterCount() + candidates_.size();
  }

  /// \brief Estimated frequency of x within this bundle's substream.
  double EstimateFrequency(uint64_t x) const {
    return cs_.EstimateFrequency(x);
  }

  const std::vector<uint64_t>& candidates() const { return candidates_; }

 private:
  friend class F2HeavyHitterBundleFactory;
  F2HeavyHitterBundle(AmsF2Sketch f2, CountSketch cs, uint32_t max_candidates)
      : f2_(std::move(f2)), cs_(std::move(cs)),
        max_candidates_(max_candidates) {}

  void AddCandidate(uint64_t x) {
    if (std::find(candidates_.begin(), candidates_.end(), x) !=
        candidates_.end()) {
      return;
    }
    candidates_.push_back(x);
    if (candidates_.size() >= 2 * max_candidates_) Prune();
  }

  void Prune() {
    std::vector<std::pair<double, uint64_t>> scored;
    scored.reserve(candidates_.size());
    for (uint64_t x : candidates_) {
      scored.emplace_back(cs_.EstimateFrequency(x), x);
    }
    std::nth_element(
        scored.begin(), scored.begin() + max_candidates_ - 1, scored.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    scored.resize(max_candidates_);
    candidates_.clear();
    for (const auto& [est, x] : scored) candidates_.push_back(x);
  }

  AmsF2Sketch f2_;
  CountSketch cs_;
  uint32_t max_candidates_;
  std::vector<uint64_t> candidates_;
};

inline F2HeavyHitterBundle F2HeavyHitterBundleFactory::Create() const {
  return F2HeavyHitterBundle(f2_.Create(), cs_.Create(), max_candidates_);
}

inline void F2HeavyHitterBundleFactory::EncodeSketch(
    io::Encoder& enc, const F2HeavyHitterBundle& bundle) const {
  f2_.EncodeSketch(enc, bundle.f2_);
  cs_.EncodeSketch(enc, bundle.cs_);
  enc.PutU32(static_cast<uint32_t>(bundle.candidates_.size()));
  for (uint64_t x : bundle.candidates_) enc.PutU64(x);
}

inline Result<F2HeavyHitterBundle> F2HeavyHitterBundleFactory::DecodeSketch(
    io::Decoder& dec) const {
  CASTREAM_ASSIGN_OR_RETURN(AmsF2Sketch f2, f2_.DecodeSketch(dec));
  CASTREAM_ASSIGN_OR_RETURN(CountSketch cs, cs_.DecodeSketch(dec));
  F2HeavyHitterBundle bundle(std::move(f2), std::move(cs), max_candidates_);
  uint32_t n = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n, 8));
  // AddCandidate prunes at 2x the budget, so a live bundle never stores more.
  if (n >= 2 * max_candidates_) {
    return Status::InvalidArgument(
        "decode: candidate list exceeds the pruning bound");
  }
  bundle.candidates_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&x));
    // AddCandidate never stores an item twice, so duplicates prove
    // corruption (and would be reported twice by Query).
    if (std::find(bundle.candidates_.begin(), bundle.candidates_.end(), x) !=
        bundle.candidates_.end()) {
      return Status::InvalidArgument(
          "decode: duplicate heavy-hitter candidate");
    }
    bundle.candidates_.push_back(x);
  }
  return bundle;
}

/// \brief One reported heavy hitter. The share field holds the quantity the
/// reporting kind thresholds against phi: f^2 / F2(c) for the CountSketch
/// construction ('hh'), the plain frequency share f / N for the dedicated
/// counter-based CHH kinds ('chh_mg', 'chh_fast').
struct HeavyHitter {
  uint64_t item = 0;
  double estimated_frequency = 0.0;
  double estimated_f2_share = 0.0;
};

/// \brief Summary answering correlated F2-heavy-hitter queries: all x with
/// |{(x_i,y_i): x_i = x, y_i <= c}|^2 >= phi * F2(c), none below
/// (phi - eps) * F2(c).
class CorrelatedF2HeavyHitters {
 public:
  /// \brief `phi_eps` is the gap parameter eps of Section 3.3; Section 3.3
  /// prescribes per-bucket additive error (eps/10)*2^i on squared
  /// frequencies, whose literal CountSketch width is galactic (like the
  /// theoretical alpha). The practical width used here is ~3/(2*phi_eps)^2,
  /// which resolves shares down to phi of a few percent; widen via phi_eps
  /// if finer separation is needed.
  CorrelatedF2HeavyHitters(CorrelatedSketchOptions options, double phi_eps,
                           uint64_t seed, uint32_t max_candidates = 64)
      : sketch_(PatchOptions(options),
                F2HeavyHitterBundleFactory(
                    AmsF2SketchFactory(
                        AmsDimsFor(options.eps, BucketGamma(options), 4),
                        seed),
                    CountSketchFactory(
                        CountSketchDimsFor(2.0 * phi_eps, BucketGamma(options), 4),
                        seed + 0x9e3779b97f4a7c15ULL),
                    max_candidates)) {}

  void Insert(uint64_t x, uint64_t y, int64_t weight = 1) {
    sketch_.Insert(x, y, weight);
  }

  /// \brief Batched ingest: one-at-a-time Insert in batch order (see
  /// CorrelatedSketch::InsertBatch); each tuple's AMS + CountSketch
  /// randomness is hashed once for all bucket levels.
  void InsertBatch(std::span<const Tuple> batch) {
    sketch_.InsertBatch(batch);
  }
  void InsertBatch(std::initializer_list<Tuple> batch) {
    sketch_.InsertBatch(batch);
  }

  /// \brief Weighted batched ingest, exactly equivalent to sequential
  /// Insert(x, y, weight) calls in batch order.
  void InsertBatch(std::span<const WeightedTuple> batch) {
    sketch_.InsertBatch(batch);
  }

  /// \brief Merges another heavy-hitter summary (same configuration, both
  /// built from the same seed) into this one; the framework trees, the
  /// per-bucket AMS + CountSketch pairs, and the candidate lists all merge,
  /// so queries answer over the union of both streams.
  Status MergeFrom(const CorrelatedF2HeavyHitters& other) {
    return sketch_.MergeFrom(other.sketch_);
  }

  /// \brief Structural self-check of the underlying framework (tests).
  Status ValidateInvariants() const { return sketch_.ValidateInvariants(); }

  /// \brief Heavy hitters of the substream {(x, y) : y <= c}, heaviest
  /// first.
  Result<std::vector<HeavyHitter>> Query(uint64_t c, double phi) const {
    if (phi <= 0.0 || phi > 1.0) {
      return Status::InvalidArgument("phi must be in (0, 1]");
    }
    using Merged = CorrelatedSketch<F2HeavyHitterBundleFactory>::MergedResult;
    Result<Merged> merged = sketch_.QueryMerged(c);
    if (!merged.ok()) return merged.status();
    const F2HeavyHitterBundle& bundle = merged.value().sketch;
    const double f2 = bundle.Estimate();
    std::vector<HeavyHitter> out;
    if (f2 <= 0.0) return out;
    for (uint64_t x : bundle.candidates()) {
      const double f = bundle.EstimateFrequency(x);
      const double share = f * f / f2;
      if (f > 0.0 && share >= phi) {
        out.push_back(HeavyHitter{x, f, share});
      }
    }
    std::sort(out.begin(), out.end(), [](const HeavyHitter& a,
                                         const HeavyHitter& b) {
      return a.estimated_f2_share > b.estimated_f2_share;
    });
    return out;
  }

  /// \brief The F2(c) estimate backing the phi threshold.
  Result<double> QueryF2(uint64_t c) const { return sketch_.Query(c); }

  size_t SizeBytes() const { return sketch_.SizeBytes(); }
  size_t StoredTuplesEquivalent() const {
    return sketch_.StoredTuplesEquivalent();
  }

  // ---- Wire format (src/io): the framework body under the heavy-hitter
  // tag; the bundle factory serializes both hash families plus the
  // candidate budget, so a decoded summary merges with the originals. ------

  [[nodiscard]] Status Serialize(std::string* out) const {
    io::Encoder enc(out);
    const size_t patch =
        io::BeginEnvelope(enc, SummaryKind::kCorrelatedF2HeavyHitters,
                          io::kCorrelatedF2HeavyHittersVersion);
    sketch_.EncodeBody(enc);
    io::EndEnvelope(enc, patch);
    return Status::OK();
  }

  [[nodiscard]] static Result<CorrelatedF2HeavyHitters> Deserialize(
      std::span<const std::byte> bytes) {
    io::Decoder dec(bytes);
    CASTREAM_RETURN_NOT_OK(
        io::ReadEnvelope(dec, SummaryKind::kCorrelatedF2HeavyHitters,
                         io::kCorrelatedF2HeavyHittersVersion));
    CASTREAM_ASSIGN_OR_RETURN(
        CorrelatedSketch<F2HeavyHitterBundleFactory> inner,
        CorrelatedSketch<F2HeavyHitterBundleFactory>::DecodeBody(dec));
    if (!dec.Done()) {
      return Status::InvalidArgument(
          "deserialize: unread bytes after the summary body");
    }
    return CorrelatedF2HeavyHitters(std::move(inner));
  }

 private:
  static CorrelatedSketchOptions PatchOptions(CorrelatedSketchOptions o) {
    o.conditions = AggregateConditions::ForFk(2.0);
    return o;
  }

  explicit CorrelatedF2HeavyHitters(
      CorrelatedSketch<F2HeavyHitterBundleFactory> inner)
      : sketch_(std::move(inner)) {}

  CorrelatedSketch<F2HeavyHitterBundleFactory> sketch_;
};

}  // namespace castream

#endif  // CASTREAM_CORE_CORRELATED_HEAVY_HITTERS_H_
