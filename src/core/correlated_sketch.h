// The paper's main contribution (Section 2): a general reduction from
// correlated aggregation  f({x_i : y_i <= c})  with query-time cutoff c to
// whole-stream sketching of f.
//
// Structure (Algorithms 1-3):
//   * levels l = 0 .. lmax with 2^lmax > fmax;
//   * level 0 holds up to alpha singleton buckets, one per exact y value;
//   * level l >= 1 holds a tree of buckets over the dyadic intervals of
//     [0, ymax]; a leaf "closes" when the sketch estimate of its contents
//     reaches 2^(l+1) and splits into its two dyadic children on the next
//     arrival routed to it;
//   * when a level exceeds its bucket budget alpha, the bucket with the
//     largest left endpoint (the rightmost leaf) is discarded and the
//     level's validity threshold Y_l is lowered to that endpoint;
//   * a query for cutoff c is answered at the smallest level with Y_l > c
//     by merging the sketches of every stored bucket whose span lies in
//     [0, c] (the set B1 of the analysis; merging needs property (b) of
//     sketching functions, which all factories in src/sketch provide by
//     sharing hash functions within a family).
//
// Two deliberate deviations from the paper's pseudocode, both safe:
//   * Algorithm 2 line 8 `return`s out of all remaining levels when
//     Y_i <= y; monotonicity of Y_i in i holds only in expectation, so we
//     `continue` per level instead (cost: one comparison per level).
//   * Algorithm 3 line 3 "sums over appropriate singletons" at level 0; for
//     superadditive f (e.g. F2) summing per-singleton aggregates
//     underestimates f of the union, so we merge the singleton sketches and
//     estimate once — the interpretation consistent with Theorem 2's proof,
//     which treats level 0 through event G exactly like other levels.
//
// Ingest fast path (the Section 3.1 / Lemma 9 speedups):
//   * every bucket sketch of one summary shares a single hash family, so a
//     tuple's per-row randomness is computed ONCE (Factory::Prehash) and
//     reused across level 0 and all tree levels — detected at compile time,
//     factories without Prehash (e.g. ExactAggregateFactory) use plain
//     inserts;
//   * the bucket-closing test `Estimate() >= 2^(l+1)` is gated by the
//     sketch's cheap EstimateUpperBound() when available: a bound below the
//     threshold decides the test without the full median estimate, changing
//     no closing decision;
//   * per-level close thresholds are precomputed, the leaf index and level-0
//     singletons are flat sorted vectors (discards only ever pop the back),
//     and a per-level cursor caches the last leaf so runs of nearby y values
//     skip the root-to-leaf descent;
//   * InsertBatch is a plain in-order loop over Insert, so batched and
//     one-at-a-time ingest share one router and agree bit for bit; a batch
//     only amortizes the caller's handoff. (A level-major columnar pipeline
//     was measured slower: its pre-hash column outgrew L1d and was re-read
//     once per level.) Batches are never re-sorted by y: reordering can
//     shift bucket-closing times and therefore the answer;
//   * virtual root pool: every level whose root bucket has never closed has,
//     by construction, absorbed the exact same stream — every arrival, since
//     its Y_l is still infinite and its tree is the single open root. Those
//     levels (a suffix first_virtual_ .. lmax, since close thresholds grow
//     with l) share ONE physical "tail" sketch instead of maintaining
//     ~log(f_max) identical copies; a level is materialized (tail merged
//     into its own root, root marked closed) at the exact moment its closing
//     condition first holds, after which it evolves independently. Because
//     sketches of one family merge losslessly, every query answer, closing
//     decision, and discard is bit-for-bit identical to the unshared
//     layout — the per-record update cost just drops from one sketch update
//     per level to one update total for the whole virtual suffix.
#ifndef CASTREAM_CORE_CORRELATED_SKETCH_H_
#define CASTREAM_CORE_CORRELATED_SKETCH_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/dyadic.h"
#include "src/core/options.h"
#include "src/io/format.h"
#include "src/stream/types.h"

namespace castream {

/// \brief Requirements on the per-bucket sketch type: weighted point
/// updates, a cheap numeric estimate, in-family merging, and size
/// accounting. Satisfied by AmsF2Sketch, CountSketch, FkSketch and
/// ExactAggregate.
template <typename S>
concept MergeableSketch =
    std::movable<S> && requires(S s, const S& cs, uint64_t x, int64_t w) {
      s.Insert(x, w);
      { cs.Estimate() } -> std::convertible_to<double>;
      { s.MergeFrom(cs) } -> std::same_as<Status>;
      { cs.SizeBytes() } -> std::convertible_to<size_t>;
      { cs.CounterCount() } -> std::convertible_to<size_t>;
    };

/// \brief Requirements on the sketch factory: stamps out mergeable sketches
/// that share hash functions (property (b) of sketching functions).
template <typename F>
concept SketchFamilyFactory = requires(const F& f) {
  { f.Create() } -> MergeableSketch;
};

namespace internal {

/// \brief True when the factory can pre-hash an item once and its sketches
/// accept the pre-hashed form (the hash-once ingest fast path).
template <typename Factory, typename Sketch>
concept PreHashedIngest = requires(const Factory& f, Sketch& s) {
  s.Insert(f.Prehash(uint64_t{0}), int64_t{1});
};

/// \brief True when the sketch offers a cheap certain upper bound on
/// Estimate(), letting the close test skip the full estimate.
template <typename S>
concept HasEstimateUpperBound = requires(const S& s) {
  { s.EstimateUpperBound() } -> std::convertible_to<double>;
};

}  // namespace internal

/// \brief Summary for correlated aggregate queries f(S, c) = f({x : y <= c})
/// where c is supplied at query time (Section 2 of the paper).
///
/// \tparam Factory a SketchFamilyFactory for the whole-stream aggregate f.
template <SketchFamilyFactory Factory>
class CorrelatedSketch {
 public:
  using Sketch = std::decay_t<decltype(std::declval<const Factory&>().Create())>;

  /// \brief Result of a query: the merged B1 sketch, the level that
  /// answered, and how many stored buckets were merged.
  struct MergedResult {
    Sketch sketch;
    uint32_t level = 0;
    uint32_t merged_buckets = 0;
  };

  CorrelatedSketch(const CorrelatedSketchOptions& options, Factory factory)
      : options_(options),
        factory_(std::move(factory)),
        y_max_(RoundUpToDyadicDomain(options.y_max)),
        alpha_(options.Alpha()),
        max_level_(options.MaxLevel()),
        check_interval_(std::max<uint32_t>(1, options.est_check_interval)),
        levels_(max_level_ + 1),
        tail_(factory_.Create()) {
    // Algorithm 1: every level l >= 1 starts with a single open root bucket
    // spanning [0, ymax]; Y_l starts at infinity. The closing threshold
    // 2^(l+1) is fixed per level, so it is computed here, once.
    for (uint32_t l = 1; l <= max_level_; ++l) {
      Level& level = levels_[l];
      level.nodes.emplace_back(DyadicInterval{0, y_max_}, factory_.Create());
      level.root = 0;
      level.stored = 1;
      level.close_threshold = std::ldexp(1.0, static_cast<int>(l) + 1);
      level.leaves_by_lo.push_back(LeafRef{0, 0});
    }
    // All levels start in the virtual root pool (their roots are identical
    // empty sketches). A budget of alpha <= 1 would discard a level's root
    // on its very first insert, which the pool cannot represent — fall back
    // to fully materialized levels in that (test-only) regime.
    first_virtual_ = alpha_ >= 2 ? 1 : max_level_ + 1;
  }

  /// \brief Algorithm 2: routes (x, y) into one bucket per level.
  /// `weight` extends the paper's unweighted updates to the positively
  /// weighted case; negative weights void the one-pass guarantee
  /// (Section 4's lower bound) and belong to the multipass API.
  void Insert(uint64_t x, uint64_t y, int64_t weight = 1) {
    y = std::min(y, y_max_);
    ++tuples_inserted_;
    if constexpr (kPreHashedIngest) {
      // Hash once; every bucket sketch of this summary shares the family.
      const auto ph = factory_.Prehash(x);
      InsertRouted(ph, y, weight);
    } else {
      InsertRouted(x, y, weight);
    }
  }

  void Insert(const Tuple& t) { Insert(t.x, t.y, 1); }

  /// \brief Batched insertion: calls Insert on each tuple in order, so it is
  /// exactly equivalent to one-at-a-time ingest (the equivalence is tested).
  /// Callers keep ownership of the buffer and can reuse its capacity.
  void InsertBatch(std::span<const Tuple> batch) {
    for (const Tuple& t : batch) Insert(t.x, t.y, 1);
  }

  void InsertBatch(std::initializer_list<Tuple> batch) {
    InsertBatch(std::span<const Tuple>(batch.begin(), batch.size()));
  }

  /// \brief Weighted batched insertion: Insert(x, y, weight) on each tuple in
  /// order. This is what the hot-key coalescing front end feeds: repeated
  /// (x, y) arrivals collapse into one weighted row.
  void InsertBatch(std::span<const WeightedTuple> batch) {
    for (const WeightedTuple& t : batch) Insert(t.x, t.y, t.weight);
  }
  // (No initializer_list<WeightedTuple> overload: brace lists like {{x, y}}
  // would become ambiguous against the Tuple overloads.)

  /// \brief Algorithm 3: point estimate of f(S, c).
  Result<double> Query(uint64_t c) const {
    CASTREAM_ASSIGN_OR_RETURN(MergedResult r, QueryMerged(c));
    return r.sketch.Estimate();
  }

  /// \brief Algorithm 3 returning the merged sketch itself; composite
  /// sketches (e.g. the heavy-hitter bundle of Section 3.3) extract more
  /// than a single number from it.
  Result<MergedResult> QueryMerged(uint64_t c) const {
    c = std::min(c, y_max_);
    // Level 0 answers if no singleton at or below c was ever discarded.
    if (level0_threshold_ > c) {
      MergedResult r{factory_.Create(), 0, 0};
      for (const auto& [y, sketch] : singletons_) {
        if (y > c) break;  // sorted by y: the merged prefix is contiguous
        // Merging sketches of one family cannot fail; surface bugs loudly.
        Status st = r.sketch.MergeFrom(sketch);
        if (!st.ok()) return st;
        ++r.merged_buckets;
      }
      return r;
    }
    for (uint32_t l = 1; l <= max_level_; ++l) {
      const Level& level = levels_[l];
      if (level.y_threshold <= c) continue;
      MergedResult r{factory_.Create(), l, 0};
      if (l >= first_virtual_) {
        // Virtual level: its single open root (span [0, ymax]) physically
        // lives in the shared tail. The root is in B1 only when the clamped
        // cutoff covers the whole domain; otherwise it straddles c and is
        // excluded, exactly as a materialized root would be.
        if (c >= y_max_) {
          Status st = r.sketch.MergeFrom(tail_);
          if (!st.ok()) return st;
          ++r.merged_buckets;
        }
        return r;
      }
      for (const Node& node : level.nodes) {
        if (!node.live || !node.span.ContainedInPrefix(c)) continue;
        Status st = r.sketch.MergeFrom(node.sketch);
        if (!st.ok()) return st;
        ++r.merged_buckets;
      }
      return r;
    }
    // Algorithm 3 line 1: FAIL. Theorem 2's analysis (Lemma 3) shows this
    // is a low-probability event when f_max_hint really bounds f.
    return Status::QueryOutOfRange(
        "correlated query cutoff below every level's discard threshold; "
        "increase f_max_hint or the bucket budget");
  }

  /// \brief Merges another summary of the same configuration and hash family
  /// into this one, so that subsequent queries answer over the union of both
  /// ingested streams (the mergeability that makes sharded / distributed
  /// deployment possible; per-bucket sketches merge by property (b) of
  /// sketching functions).
  ///
  /// Semantics per level:
  ///   * Y_l becomes min of the two thresholds (a discard on either side is a
  ///     discard of the union);
  ///   * trees merge node-wise over their common dyadic structure — a node
  ///     present on both sides merges sketches in place, a subtree present
  ///     only in `other` is adopted below the matching leaf via lossless
  ///     in-family sketch copies;
  ///   * levels still sharing the virtual root on one side contribute (or
  ///     absorb) the shared tail: a level virtual here but split in `other`
  ///     is densified on demand (its root materialized from the tail, left
  ///     open) before the tree merge, and a level virtual in `other` merges
  ///     `other`'s tail into this level's root;
  ///   * after merging, open leaves re-run the closing test (merged mass may
  ///     cross 2^(l+1)) and the bucket budget is enforced by the same
  ///     rightmost-leaf discard rule as Algorithm 2.
  ///
  /// Both summaries must be built from the *same* factory (copies of one
  /// factory share the hash family); mismatched configurations or families
  /// return PreconditionFailed and leave `this` unspecified but valid.
  Status MergeFrom(const CorrelatedSketch& other) {
    if (this == &other) {
      return Status::InvalidArgument(
          "CorrelatedSketch::MergeFrom: cannot merge a summary into itself");
    }
    if (y_max_ != other.y_max_ || alpha_ != other.alpha_ ||
        max_level_ != other.max_level_) {
      return Status::PreconditionFailed(
          "CorrelatedSketch::MergeFrom: incompatible configuration "
          "(y_max / alpha / level count differ)");
    }
    // Family probe: bucket-sketch MergeFrom performs the hash-family check
    // unconditionally, so probing with an empty scratch fails loudly on
    // mismatched factories even when both summaries are still empty.
    {
      Sketch probe = factory_.Create();
      CASTREAM_RETURN_NOT_OK(probe.MergeFrom(other.tail_));
    }
    CASTREAM_RETURN_NOT_OK(MergeLevel0(other));
    // Align the virtual suffixes: any level split (materialized) in `other`
    // but still virtual here gets its own root now — a lossless merge of the
    // shared tail, left open because its closing condition has not held yet.
    while (first_virtual_ < other.first_virtual_ &&
           first_virtual_ <= max_level_) {
      Level& level = levels_[first_virtual_];
      Node& root = level.nodes[level.root];
      CASTREAM_RETURN_NOT_OK(root.sketch.MergeFrom(tail_));
      root.inserts_since_check = tail_checks_;
      ++first_virtual_;
    }
    // Levels materialized in `other`: node-wise tree merge.
    for (uint32_t l = 1; l < other.first_virtual_ && l <= max_level_; ++l) {
      CASTREAM_RETURN_NOT_OK(MergeTreeLevel(levels_[l], other.levels_[l]));
    }
    // Levels virtual in `other` but materialized here: `other`'s entire
    // level content is its tail, which belongs at this level's root (span
    // [0, ymax]), exactly where `other`'s own open root would hold it.
    for (uint32_t l = other.first_virtual_; l < first_virtual_; ++l) {
      Level& level = levels_[l];
      if (level.root < 0) continue;  // level fully discarded (tiny alpha)
      CASTREAM_RETURN_NOT_OK(
          level.nodes[level.root].sketch.MergeFrom(other.tail_));
    }
    // Common virtual suffix: one tail merge covers every remaining level,
    // then levels whose closing condition now holds materialize, exactly as
    // the insert path would have decided.
    if (first_virtual_ <= max_level_) {
      CASTREAM_RETURN_NOT_OK(tail_.MergeFrom(other.tail_));
      while (first_virtual_ <= max_level_ &&
             EstimateReaches(tail_, levels_[first_virtual_].close_threshold)) {
        MaterializeLowestVirtual();
      }
    }
    for (uint32_t l = 1; l < first_virtual_; ++l) {
      NormalizeLevelAfterMerge(levels_[l]);
    }
    tuples_inserted_ += other.tuples_inserted_;
    return Status::OK();
  }

  // ---- Wire format (the Unified Summary API; src/io) ----------------------
  //
  // Available whenever the factory models io::SerializableSketchFamily (AMS
  // and the heavy-hitter bundle do; the exact and Fk factories do not, and
  // simply leave these members uninstantiated). The format ships integer
  // state only — family identity, thresholds, tree topology (including dead
  // slots and the free list, so post-deserialize ingest allocates nodes in
  // the same order), the virtual-root tail, and every bucket sketch — and
  // recomputes all derived floats, so a deserialized summary answers every
  // query bit-for-bit like the original and merges with its relatives
  // through the same value-based family checks.

  /// \brief Appends the versioned, length-prefixed blob for this summary.
  [[nodiscard]] Status Serialize(std::string* out) const
    requires io::RegisteredSummaryFactory<Factory>
  {
    io::Encoder enc(out);
    const size_t patch =
        io::BeginEnvelope(enc, Factory::kSummaryKind, Factory::kFormatVersion);
    EncodeBody(enc);
    io::EndEnvelope(enc, patch);
    return Status::OK();
  }

  /// \brief Rebuilds a summary from a whole blob (envelope included).
  /// Truncated, corrupt, or wrong-version payloads return InvalidArgument
  /// (wrong kind: PreconditionFailed); allocations are capped by the bytes
  /// actually present, so hostile blobs cannot OOM the reader.
  [[nodiscard]] static Result<CorrelatedSketch> Deserialize(
      std::span<const std::byte> bytes)
    requires io::RegisteredSummaryFactory<Factory>
  {
    io::Decoder dec(bytes);
    CASTREAM_RETURN_NOT_OK(io::ReadEnvelope(dec, Factory::kSummaryKind,
                                            Factory::kFormatVersion));
    CASTREAM_ASSIGN_OR_RETURN(CorrelatedSketch summary, DecodeBody(dec));
    if (!dec.Done()) {
      return Status::InvalidArgument(
          "deserialize: unread bytes after the summary body");
    }
    return summary;
  }

  /// \brief Envelope-free body encoding, for wrapper summaries that embed a
  /// framework instance under their own tag (CorrelatedF2HeavyHitters).
  void EncodeBody(io::Encoder& enc) const
    requires io::SerializableSketchFamily<Factory>
  {
    factory_.EncodeFamily(enc);
    enc.PutU64(y_max_);
    enc.PutU32(alpha_);
    enc.PutU32(max_level_);
    enc.PutU32(check_interval_);
    enc.PutU64(tuples_inserted_);
    enc.PutU64(level0_threshold_);
    enc.PutU32(static_cast<uint32_t>(singletons_.size()));
    for (const auto& [y, sketch] : singletons_) {
      enc.PutU64(y);
      factory_.EncodeSketch(enc, sketch);
    }
    enc.PutU32(first_virtual_);
    enc.PutU32(tail_checks_);
    factory_.EncodeSketch(enc, tail_);
    for (uint32_t l = 1; l <= max_level_; ++l) {
      const Level& level = levels_[l];
      enc.PutU64(level.y_threshold);
      enc.PutI32(level.root);
      enc.PutU32(static_cast<uint32_t>(level.nodes.size()));
      for (const Node& node : level.nodes) {
        enc.PutU8(node.live ? 1 : 0);
        if (!node.live) continue;  // dead slots are recreated empty
        enc.PutU64(node.span.lo);
        enc.PutU64(node.span.hi);
        enc.PutI32(node.left);
        enc.PutI32(node.right);
        enc.PutI32(node.parent);
        enc.PutU8(node.open ? 1 : 0);
        enc.PutU32(node.inserts_since_check);
        factory_.EncodeSketch(enc, node.sketch);
      }
      enc.PutU32(static_cast<uint32_t>(level.free_slots.size()));
      for (int32_t slot : level.free_slots) enc.PutI32(slot);
      enc.PutU32(static_cast<uint32_t>(level.leaves_by_lo.size()));
      for (const LeafRef& ref : level.leaves_by_lo) {
        enc.PutU64(ref.lo);
        enc.PutI32(ref.idx);
      }
    }
  }

  [[nodiscard]] static Result<CorrelatedSketch> DecodeBody(io::Decoder& dec)
    requires io::SerializableSketchFamily<Factory>
  {
    CASTREAM_ASSIGN_OR_RETURN(Factory factory, Factory::DecodeFamily(dec));
    uint64_t y_max = 0;
    uint32_t alpha = 0, max_level = 0, check_interval = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&y_max));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&alpha));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&max_level));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&check_interval));
    if (RoundUpToDyadicDomain(y_max) != y_max) {
      return Status::InvalidArgument(
          "decode: y_max is not of the dyadic form 2^beta - 1");
    }
    if (alpha < 1 || max_level < 2 || max_level > 62 || check_interval < 1) {
      return Status::InvalidArgument(
          "decode: framework parameters out of range");
    }
    // Synthesize options that reproduce exactly the serialized derived
    // values through the normal constructor (f_max_hint = 2^(max_level-1)
    // maps back to max_level through MaxLevel()).
    CorrelatedSketchOptions opts;
    opts.y_max = y_max;
    opts.alpha_override = alpha;
    opts.est_check_interval = check_interval;
    opts.f_max_hint = std::ldexp(1.0, static_cast<int>(max_level) - 1);
    CorrelatedSketch out(opts, std::move(factory));
    if (out.y_max_ != y_max || out.alpha_ != alpha ||
        out.max_level_ != max_level || out.check_interval_ != check_interval) {
      return Status::Internal(
          "decode: options reconstruction did not reproduce the serialized "
          "framework parameters");
    }
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&out.tuples_inserted_));
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&out.level0_threshold_));
    uint32_t n_singletons = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n_singletons, 9));
    if (n_singletons > out.alpha_ + 1) {
      return Status::InvalidArgument(
          "decode: singleton count exceeds the bucket budget");
    }
    out.singletons_.clear();
    out.singletons_.reserve(n_singletons);
    uint64_t prev_y = 0;
    for (uint32_t i = 0; i < n_singletons; ++i) {
      uint64_t y = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&y));
      if (i > 0 && y <= prev_y) {
        return Status::InvalidArgument(
            "decode: level-0 singletons not strictly ascending in y");
      }
      prev_y = y;
      CASTREAM_ASSIGN_OR_RETURN(Sketch sketch,
                                out.factory_.DecodeSketch(dec));
      out.singletons_.emplace_back(y, std::move(sketch));
    }
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&out.first_virtual_));
    if (out.first_virtual_ < 1 || out.first_virtual_ > out.max_level_ + 1) {
      return Status::InvalidArgument(
          "decode: first virtual level out of range");
    }
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&out.tail_checks_));
    {
      CASTREAM_ASSIGN_OR_RETURN(Sketch tail, out.factory_.DecodeSketch(dec));
      out.tail_ = std::move(tail);
    }
    for (uint32_t l = 1; l <= out.max_level_; ++l) {
      CASTREAM_RETURN_NOT_OK(out.DecodeLevel(dec, out.levels_[l]));
    }
    if (Status st = out.ValidateInvariants(); !st.ok()) {
      return Status::InvalidArgument(
          "decode: summary fails structural validation (" + st.message() +
          ")");
    }
    return out;
  }

  // ---- Introspection (benches and tests) ----------------------------------

  uint64_t y_max() const { return y_max_; }
  uint32_t alpha() const { return alpha_; }
  uint32_t max_level() const { return max_level_; }
  uint64_t tuples_inserted() const { return tuples_inserted_; }

  /// \brief Levels currently represented by the shared virtual root (their
  /// root bucket never closed, so their contents are identical).
  uint32_t VirtualRootLevels() const {
    return first_virtual_ > max_level_ ? 0 : max_level_ - first_virtual_ + 1;
  }

  /// \brief Y_l: the smallest left endpoint ever discarded at level l
  /// (UINT64_MAX while the level is complete). Level 0 is the singleton
  /// level.
  uint64_t LevelThreshold(uint32_t l) const {
    return l == 0 ? level0_threshold_ : levels_[l].y_threshold;
  }

  /// \brief Buckets currently stored at level l (including internal nodes).
  size_t StoredBuckets(uint32_t l) const {
    return l == 0 ? singletons_.size() : levels_[l].stored;
  }

  size_t TotalStoredBuckets() const {
    size_t total = singletons_.size();
    for (uint32_t l = 1; l <= max_level_; ++l) total += levels_[l].stored;
    return total;
  }

  /// \brief Bytes held by all bucket sketches plus bucket metadata
  /// (physical: the tail shared by all virtual levels is counted once —
  /// that sharing is part of this structure's space advantage).
  size_t SizeBytes() const {
    size_t total = 0;
    for (const auto& [y, sketch] : singletons_) {
      total += sketch.SizeBytes() + sizeof(uint64_t);
    }
    for (uint32_t l = 1; l <= max_level_; ++l) {
      for (const Node& node : levels_[l].nodes) {
        if (node.live) total += node.sketch.SizeBytes() + sizeof(Node);
      }
    }
    if (first_virtual_ <= max_level_) total += tail_.SizeBytes();
    return total;
  }

  /// \brief Structural self-check for tests: verifies, per level, that the
  /// leaf index matches the live tree, child/parent links are consistent,
  /// spans of children partition their parent, stored counts match live
  /// nodes, and every live leaf left of Y_l is reachable from the root.
  Status ValidateInvariants() const {
    for (uint32_t l = 1; l <= max_level_; ++l) {
      const Level& level = levels_[l];
      size_t live = 0;
      size_t live_leaves = 0;
      for (size_t i = 0; i < level.nodes.size(); ++i) {
        const Node& node = level.nodes[i];
        if (!node.live) continue;
        ++live;
        const bool is_leaf = node.left < 0 && node.right < 0;
        if (is_leaf) ++live_leaves;
        if (node.left >= 0) {
          const Node& child = level.nodes[node.left];
          if (!child.live || child.parent != static_cast<int32_t>(i) ||
              !(child.span == node.span.LeftChild())) {
            return Status::Internal("left child link/span mismatch");
          }
        }
        if (node.right >= 0) {
          const Node& child = level.nodes[node.right];
          if (!child.live || child.parent != static_cast<int32_t>(i) ||
              !(child.span == node.span.RightChild())) {
            return Status::Internal("right child link/span mismatch");
          }
        }
      }
      if (live != level.stored) {
        return Status::Internal("stored count does not match live nodes");
      }
      // Every entry of the leaf index must be a live, childless node keyed
      // by its span's left endpoint; entries must be disjoint and ordered.
      uint64_t prev_hi = 0;
      bool first = true;
      for (const auto& [lo, idx] : level.leaves_by_lo) {
        const Node& node = level.nodes[idx];
        if (!node.live || node.left >= 0 || node.right >= 0 ||
            node.span.lo != lo) {
          return Status::Internal("leaf index entry invalid");
        }
        if (!first && node.span.lo <= prev_hi) {
          return Status::Internal("leaf spans overlap or are unordered");
        }
        prev_hi = node.span.hi;
        first = false;
      }
      // Childless live nodes are either indexed leaves or interior nodes
      // whose entire subtree was discarded — the latter lie at or beyond
      // the discard threshold and never receive inserts.
      if (level.leaves_by_lo.size() > live_leaves) {
        return Status::Internal("leaf index larger than live leaf count");
      }
      for (size_t i = 0; i < level.nodes.size(); ++i) {
        const Node& node = level.nodes[i];
        if (!node.live || node.left >= 0 || node.right >= 0) continue;
        const LeafRef* ref = FindLeafRef(level, node.span.lo);
        const bool indexed =
            ref != nullptr && ref->idx == static_cast<int32_t>(i);
        if (!indexed && node.span.lo < level.y_threshold) {
          return Status::Internal(
              "unindexed childless node below the discard threshold");
        }
      }
    }
    return Status::OK();
  }

  /// \brief The paper's space metric (Section 5): stored counters plus two
  /// endpoints per bucket, in tuple units. This is the *logical* metric of
  /// Algorithms 1-3 — each virtual level is charged for its own root (whose
  /// contents equal the shared tail) — so figures stay comparable with
  /// implementations that do not deduplicate identical roots; SizeBytes
  /// reports the deduplicated physical footprint.
  size_t StoredTuplesEquivalent() const {
    size_t total = 0;
    for (const auto& [y, sketch] : singletons_) {
      total += sketch.CounterCount() + 1;
    }
    for (uint32_t l = 1; l <= max_level_; ++l) {
      for (const Node& node : levels_[l].nodes) {
        if (node.live) total += node.sketch.CounterCount() + 2;
      }
    }
    total += static_cast<size_t>(VirtualRootLevels()) * tail_.CounterCount();
    return total;
  }

 private:
  static constexpr bool kPreHashedIngest =
      internal::PreHashedIngest<Factory, Sketch>;

  struct Node {
    DyadicInterval span;
    Sketch sketch;
    int32_t left = -1;    // child node indices within the level pool
    int32_t right = -1;
    int32_t parent = -1;
    bool open = true;     // open leaves absorb; closed leaves split next hit
    bool live = true;     // false once discarded (slot awaits reuse)
    uint32_t inserts_since_check = 0;

    Node(DyadicInterval s, Sketch sk) : span(s), sketch(std::move(sk)) {}
  };

  /// \brief One leaf-index entry: live leaves sorted by span.lo. A flat
  /// vector beats the former std::map here: alpha is small, lookups are
  /// binary searches over contiguous memory, splits are a single in-place
  /// insert, and budget discards only ever pop the back.
  struct LeafRef {
    uint64_t lo;
    int32_t idx;
  };

  struct Level {
    std::vector<Node> nodes;
    std::vector<int32_t> free_slots;
    std::vector<LeafRef> leaves_by_lo;  // live leaves sorted by span.lo
    int32_t root = -1;
    int32_t cursor = -1;  // last leaf inserted into (routing hint)
    size_t stored = 0;
    uint64_t y_threshold = UINT64_MAX;  // Y_l of the paper
    double close_threshold = 0.0;       // 2^(l+1), fixed at construction
  };

  // ---- Routing -------------------------------------------------------------

  template <typename Arg>
  void InsertRouted(const Arg& item, uint64_t y, int64_t weight) {
    InsertLevel0(item, y, weight);
    for (uint32_t l = 1; l < first_virtual_; ++l) {
      // Paper line 8 `return`s; we `continue` (see file comment).
      if (y >= levels_[l].y_threshold) continue;
      InsertTreeLevel(levels_[l], item, y, weight);
    }
    // One update covers every virtual level: their roots are all still open
    // with Y_l = infinity, so each would have absorbed this arrival. After
    // the last level materializes nothing reads the tail, but it still
    // absorbs every arrival, so the encoded tail stays the sketch of the
    // whole stream, byte for byte what the v1 fixtures (tests/golden) hold.
    InsertVirtualTail(item, weight);
  }

  // ---- Virtual root pool ---------------------------------------------------

  template <typename Arg>
  void InsertVirtualTail(const Arg& item, int64_t weight) {
    tail_.Insert(item, weight);
    // One shared check counter: every virtual root receives every arrival,
    // so their per-bucket counters would all sit at exactly this value.
    if (++tail_checks_ < check_interval_) return;
    tail_checks_ = 0;
    // Close thresholds grow with the level, so the levels whose closing
    // condition holds form a prefix of the virtual suffix.
    while (first_virtual_ <= max_level_ &&
           EstimateReaches(tail_, levels_[first_virtual_].close_threshold)) {
      MaterializeLowestVirtual();
    }
  }

  /// \brief Gives the lowest virtual level its own root — a lossless merge
  /// of the shared tail, closed at this exact instant, just as its privately
  /// maintained root would have been.
  void MaterializeLowestVirtual() {
    Level& level = levels_[first_virtual_];
    Node& root = level.nodes[level.root];
    // Same family by construction, so the merge cannot fail; assert rather
    // than propagate (a failure here would mean a closed root missing its
    // history — an invariant violation worth crashing a debug build over).
    Status st = root.sketch.MergeFrom(tail_);
    assert(st.ok());
    (void)st;
    root.open = false;
    root.inserts_since_check = tail_checks_;  // 0: the check just ran
    ++first_virtual_;
  }

  // ---- Level 0: singleton buckets ------------------------------------------

  // The singleton store is a flat sorted vector: lookups are contiguous
  // binary searches and discards pop the back. A *new* y below the
  // threshold pays an O(alpha) element shift, which is the right trade at
  // the budgets the practical policy produces (hundreds); configurations
  // with alpha in the tens of thousands (eps <~ 0.02) spend their time in
  // per-bucket sketch work long before this shift matters.
  template <typename Arg>
  void InsertLevel0(const Arg& item, uint64_t y, int64_t weight) {
    // Items at or beyond the discard threshold were already given up on;
    // inserting them would only recreate buckets destined for discard.
    if (y >= level0_threshold_) return;
    auto it = std::lower_bound(
        singletons_.begin(), singletons_.end(), y,
        [](const auto& entry, uint64_t key) { return entry.first < key; });
    if (it == singletons_.end() || it->first != y) {
      it = singletons_.emplace(it, y, factory_.Create());
    }
    it->second.Insert(item, weight);
    if (singletons_.size() > alpha_) {
      // Discard the singleton with the largest y; Y_0 <- min(Y_0, that y).
      level0_threshold_ = std::min(level0_threshold_, singletons_.back().first);
      singletons_.pop_back();
    }
  }

  // ---- Levels >= 1: dyadic bucket trees ------------------------------------

  /// \brief The live childless node whose span contains y, or -1 if y routes
  /// into a discarded subtree. The cursor shortcut is exact: leaf spans are
  /// disjoint, and childless interior nodes (fully discarded subtrees) have
  /// span.lo >= Y_l, so they can never contain a y the threshold test let
  /// through.
  int32_t FindLeaf(const Level& level, uint64_t y) const {
    const int32_t cur = level.cursor;
    if (cur >= 0) {
      const Node& hint = level.nodes[cur];
      if (hint.live && hint.left < 0 && hint.right < 0 &&
          hint.span.Contains(y)) {
        return cur;
      }
    }
    int32_t idx = level.root;
    if (idx < 0) return -1;  // level fully discarded (only with tiny alpha)
    while (true) {
      const Node& node = level.nodes[idx];
      if (node.left < 0 && node.right < 0) return idx;
      const int32_t next = node.span.YInLeftChild(y) ? node.left : node.right;
      if (next < 0) {
        // The child containing y was discarded, so y >= Y_l; unreachable
        // because of the threshold test in the callers, kept as a guard.
        return -1;
      }
      idx = next;
    }
  }

  template <typename Arg>
  void InsertTreeLevel(Level& level, const Arg& item, uint64_t y,
                       int64_t weight) {
    // Algorithm 2 line 10: the leaf whose span contains y.
    int32_t idx = FindLeaf(level, y);
    if (idx < 0) return;
    if (!level.nodes[idx].open) {
      // Algorithm 2 lines 15-17: split the closed leaf into its dyadic
      // children and route the arrival into the matching child. Pre-charging
      // the child's check counter makes the shared closing test below fire
      // on this very insert — a heavy first arrival can close immediately,
      // exactly as the dedicated split-path check used to behave.
      SplitLeaf(level, idx);
      const Node& parent = level.nodes[idx];
      idx = parent.span.YInLeftChild(y) ? parent.left : parent.right;
      level.nodes[idx].inserts_since_check = check_interval_ - 1;
    }
    Node& node = level.nodes[idx];
    level.cursor = idx;
    // Algorithm 2 lines 11-14: absorb, then test the closing condition
    // est(k(b)) >= 2^(l+1) (singleton spans never close).
    node.sketch.Insert(item, weight);
    if (++node.inserts_since_check >= check_interval_) {
      node.inserts_since_check = 0;
      if (!node.span.IsSingleton() && EstimateReaches(node.sketch,
                                                     level.close_threshold)) {
        node.open = false;
      }
    }
    // Algorithm 2 lines 18-21: bucket budget overflow.
    while (level.stored >= alpha_ && !level.leaves_by_lo.empty()) {
      DiscardRightmostLeaf(level);
    }
  }

  /// \brief `sketch.Estimate() >= threshold`, skipping the full estimate
  /// whenever a cheap certain upper bound already rules it out. This elides
  /// the per-insert median computation for the many high-level root buckets
  /// far from closing, without changing any closing decision.
  static bool EstimateReaches(const Sketch& sketch, double threshold) {
    if constexpr (internal::HasEstimateUpperBound<Sketch>) {
      if (sketch.EstimateUpperBound() < threshold) return false;
    }
    return sketch.Estimate() >= threshold;
  }

  const LeafRef* FindLeafRef(const Level& level, uint64_t lo) const {
    auto it = std::lower_bound(
        level.leaves_by_lo.begin(), level.leaves_by_lo.end(), lo,
        [](const LeafRef& ref, uint64_t key) { return ref.lo < key; });
    if (it == level.leaves_by_lo.end() || it->lo != lo) return nullptr;
    return &*it;
  }

  int32_t AllocateNode(Level& level, DyadicInterval span) {
    if (!level.free_slots.empty()) {
      const int32_t idx = level.free_slots.back();
      level.free_slots.pop_back();
      level.nodes[idx] = Node(span, factory_.Create());
      return idx;
    }
    level.nodes.emplace_back(span, factory_.Create());
    return static_cast<int32_t>(level.nodes.size() - 1);
  }

  void SplitLeaf(Level& level, int32_t idx) {
    const DyadicInterval span = level.nodes[idx].span;
    const int32_t left = AllocateNode(level, span.LeftChild());
    const int32_t right = AllocateNode(level, span.RightChild());
    Node& node = level.nodes[idx];  // re-fetch: AllocateNode may reallocate
    node.left = left;
    node.right = right;
    level.nodes[left].parent = idx;
    level.nodes[right].parent = idx;
    level.stored += 2;
    // The parent stops being a leaf; both children start as leaves. The
    // left child inherits the parent's index entry (same lo key), the right
    // child slots in immediately after it.
    auto it = std::lower_bound(
        level.leaves_by_lo.begin(), level.leaves_by_lo.end(), span.lo,
        [](const LeafRef& ref, uint64_t key) { return ref.lo < key; });
    it->idx = left;
    level.leaves_by_lo.insert(
        it + 1, LeafRef{level.nodes[right].span.lo, right});
  }

  // ---- Merging -------------------------------------------------------------

  Status MergeLevel0(const CorrelatedSketch& other) {
    level0_threshold_ = std::min(level0_threshold_, other.level0_threshold_);
    // Singletons at or above the merged threshold can never be queried
    // (level 0 answers only when Y_0 > c, and they have y >= Y_0) — exactly
    // the entries a single structure would never have kept.
    while (!singletons_.empty() &&
           singletons_.back().first >= level0_threshold_) {
      singletons_.pop_back();
    }
    for (const auto& [y, sketch] : other.singletons_) {
      if (y >= level0_threshold_) continue;
      auto it = std::lower_bound(
          singletons_.begin(), singletons_.end(), y,
          [](const auto& entry, uint64_t key) { return entry.first < key; });
      if (it == singletons_.end() || it->first != y) {
        it = singletons_.emplace(it, y, factory_.Create());
      }
      CASTREAM_RETURN_NOT_OK(it->second.MergeFrom(sketch));
    }
    // Algorithm 2 lines 18-21, applied to the union: discard largest-y
    // singletons until the budget holds again.
    while (singletons_.size() > alpha_) {
      level0_threshold_ =
          std::min(level0_threshold_, singletons_.back().first);
      singletons_.pop_back();
    }
    return Status::OK();
  }

  Status MergeTreeLevel(Level& dst, const Level& src) {
    dst.y_threshold = std::min(dst.y_threshold, src.y_threshold);
    // A discarded root (possible only with tiny alpha) has already pushed
    // that side's threshold to 0, so the merged level never answers; there
    // is nothing useful to move.
    if (src.root < 0 || dst.root < 0) return Status::OK();
    return MergeSubtree(dst, dst.root, src, src.root);
  }

  /// \brief Node-wise merge of the src subtree into the dst subtree with the
  /// same span. Children present on both sides recurse; a src subtree below
  /// a childless dst node is adopted wholesale (lossless copies); a src
  /// subtree whose region dst discarded is dropped — the merged Y_l already
  /// excludes that region from every future query.
  Status MergeSubtree(Level& dst, int32_t di, const Level& src, int32_t si) {
    {
      Node& d = dst.nodes[di];
      const Node& s = src.nodes[si];
      assert(d.span == s.span);
      CASTREAM_RETURN_NOT_OK(d.sketch.MergeFrom(s.sketch));
      // A bucket closed on either side is closed in the union (it reached
      // the closing mass there); NormalizeLevelAfterMerge re-tests the rest.
      d.open = d.open && s.open;
    }
    const int32_t s_left = src.nodes[si].left;
    const int32_t s_right = src.nodes[si].right;
    // Capture childlessness before any adoption: adopting the left subtree
    // must not stop the right subtree from being adopted too.
    const bool dst_was_childless =
        dst.nodes[di].left < 0 && dst.nodes[di].right < 0;
    if (s_left >= 0) {
      if (dst.nodes[di].left >= 0) {
        CASTREAM_RETURN_NOT_OK(MergeSubtree(dst, dst.nodes[di].left, src,
                                            s_left));
      } else if (dst_was_childless) {
        CASTREAM_RETURN_NOT_OK(AdoptSubtree(dst, di, /*left=*/true, src,
                                            s_left));
      }
    }
    if (s_right >= 0) {
      if (dst.nodes[di].right >= 0) {
        CASTREAM_RETURN_NOT_OK(MergeSubtree(dst, dst.nodes[di].right, src,
                                            s_right));
      } else if (dst_was_childless) {
        CASTREAM_RETURN_NOT_OK(AdoptSubtree(dst, di, /*left=*/false, src,
                                            s_right));
      }
    }
    return Status::OK();
  }

  /// \brief Copies the live src subtree rooted at si below dst node `parent`
  /// as its left/right child. Copies are Create() + MergeFrom — lossless
  /// within a family — so the adopted nodes answer exactly like the
  /// originals. Subtrees whose span starts at or beyond the merged Y_l are
  /// dropped instead: queries at this level require Y_l > c and span.hi <=
  /// c, so that region can never be counted again — in particular this
  /// avoids resurrecting buckets under a childless interior node whose
  /// subtree dst already discarded for budget.
  Status AdoptSubtree(Level& dst, int32_t parent, bool left, const Level& src,
                      int32_t si) {
    if (src.nodes[si].span.lo >= dst.y_threshold) return Status::OK();
    const int32_t idx = AllocateNode(dst, src.nodes[si].span);
    {
      Node& p = dst.nodes[parent];  // re-fetch: AllocateNode may reallocate
      (left ? p.left : p.right) = idx;
    }
    Node& d = dst.nodes[idx];
    const Node& s = src.nodes[si];
    d.parent = parent;
    CASTREAM_RETURN_NOT_OK(d.sketch.MergeFrom(s.sketch));
    d.open = s.open;
    d.inserts_since_check = s.inserts_since_check;
    ++dst.stored;
    if (s.left >= 0) {
      CASTREAM_RETURN_NOT_OK(AdoptSubtree(dst, idx, /*left=*/true, src,
                                          src.nodes[si].left));
    }
    if (s.right >= 0) {
      CASTREAM_RETURN_NOT_OK(AdoptSubtree(dst, idx, /*left=*/false, src,
                                          src.nodes[si].right));
    }
    return Status::OK();
  }

  /// \brief Restores the per-level invariants after a merge: rebuilds the
  /// leaf index from the live tree, re-runs the closing test on open leaves
  /// (merged mass may have crossed 2^(l+1)), enforces the bucket budget, and
  /// drops the routing cursor.
  void NormalizeLevelAfterMerge(Level& level) {
    level.cursor = -1;
    level.leaves_by_lo.clear();
    for (size_t i = 0; i < level.nodes.size(); ++i) {
      const Node& node = level.nodes[i];
      if (!node.live || node.left >= 0 || node.right >= 0) continue;
      level.leaves_by_lo.push_back(
          LeafRef{node.span.lo, static_cast<int32_t>(i)});
    }
    std::sort(level.leaves_by_lo.begin(), level.leaves_by_lo.end(),
              [](const LeafRef& a, const LeafRef& b) { return a.lo < b.lo; });
    for (const LeafRef& ref : level.leaves_by_lo) {
      Node& node = level.nodes[ref.idx];
      if (!node.open || node.span.IsSingleton()) continue;
      if (EstimateReaches(node.sketch, level.close_threshold)) {
        node.open = false;
        node.inserts_since_check = 0;
      }
    }
    while (level.stored >= alpha_ && !level.leaves_by_lo.empty()) {
      DiscardRightmostLeaf(level);
    }
  }

  /// \brief Decodes one tree level in place (the level arrives in its
  /// freshly-constructed single-root state and is fully overwritten). Every
  /// index read from the wire is bounds-checked before use and the span
  /// algebra is re-validated, so a hostile blob is rejected instead of
  /// producing out-of-range accesses; ValidateInvariants() then re-checks
  /// the cross-level structure as a whole.
  [[nodiscard]] Status DecodeLevel(io::Decoder& dec, Level& level) {
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&level.y_threshold));
    CASTREAM_RETURN_NOT_OK(dec.ReadI32(&level.root));
    uint32_t node_count = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&node_count, 1));
    const auto index_ok = [node_count](int32_t idx) {
      return idx >= -1 && idx < static_cast<int32_t>(node_count);
    };
    if (!index_ok(level.root)) {
      return Status::InvalidArgument("decode: level root index out of range");
    }
    level.nodes.clear();
    level.nodes.reserve(node_count);
    level.free_slots.clear();
    level.leaves_by_lo.clear();
    level.cursor = -1;
    level.stored = 0;
    for (uint32_t i = 0; i < node_count; ++i) {
      uint8_t live = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadU8(&live));
      if (live == 0) {
        // Dead slot awaiting reuse: discard reset its sketch to empty, so an
        // empty recreation is exact, not an approximation.
        Node node(DyadicInterval{0, 0}, factory_.Create());
        node.live = false;
        level.nodes.push_back(std::move(node));
        continue;
      }
      DyadicInterval span;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&span.lo));
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&span.hi));
      if (span.lo > span.hi || span.hi > y_max_ ||
          !IsPow2(span.size()) || span.lo % span.size() != 0) {
        return Status::InvalidArgument(
            "decode: bucket span is not a dyadic interval of [0, y_max]");
      }
      int32_t left = 0, right = 0, parent = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadI32(&left));
      CASTREAM_RETURN_NOT_OK(dec.ReadI32(&right));
      CASTREAM_RETURN_NOT_OK(dec.ReadI32(&parent));
      if (!index_ok(left) || !index_ok(right) || !index_ok(parent)) {
        return Status::InvalidArgument(
            "decode: bucket child/parent index out of range");
      }
      uint8_t open = 0;
      uint32_t inserts_since_check = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadU8(&open));
      CASTREAM_RETURN_NOT_OK(dec.ReadU32(&inserts_since_check));
      CASTREAM_ASSIGN_OR_RETURN(Sketch sketch, factory_.DecodeSketch(dec));
      Node node(span, std::move(sketch));
      node.left = left;
      node.right = right;
      node.parent = parent;
      node.open = open != 0;
      node.inserts_since_check = inserts_since_check;
      level.nodes.push_back(std::move(node));
      ++level.stored;
    }
    if (level.root >= 0 && !level.nodes[level.root].live) {
      return Status::InvalidArgument("decode: level root is a dead slot");
    }
    uint32_t n_free = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n_free, 4));
    if (n_free != node_count - level.stored) {
      return Status::InvalidArgument(
          "decode: free-slot count does not match dead nodes");
    }
    std::vector<char> seen(node_count, 0);
    for (uint32_t i = 0; i < n_free; ++i) {
      int32_t slot = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadI32(&slot));
      if (slot < 0 || !index_ok(slot) || level.nodes[slot].live ||
          seen[slot]) {
        return Status::InvalidArgument("decode: invalid free-slot entry");
      }
      seen[slot] = 1;
      level.free_slots.push_back(slot);
    }
    uint32_t n_leaves = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n_leaves, 12));
    uint64_t prev_lo = 0;
    for (uint32_t i = 0; i < n_leaves; ++i) {
      LeafRef ref{};
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&ref.lo));
      CASTREAM_RETURN_NOT_OK(dec.ReadI32(&ref.idx));
      if (ref.idx < 0 || !index_ok(ref.idx)) {
        return Status::InvalidArgument("decode: leaf index out of range");
      }
      const Node& node = level.nodes[ref.idx];
      if (!node.live || node.left >= 0 || node.right >= 0 ||
          node.span.lo != ref.lo) {
        return Status::InvalidArgument(
            "decode: leaf entry does not reference a live childless node");
      }
      if (i > 0 && ref.lo <= prev_lo) {
        return Status::InvalidArgument(
            "decode: leaf index not strictly ascending");
      }
      prev_lo = ref.lo;
      level.leaves_by_lo.push_back(ref);
    }
    return Status::OK();
  }

  void DiscardRightmostLeaf(Level& level) {
    const int32_t idx = level.leaves_by_lo.back().idx;
    Node& node = level.nodes[idx];
    level.y_threshold = std::min(level.y_threshold, node.span.lo);
    if (node.parent >= 0) {
      Node& parent = level.nodes[node.parent];
      (parent.left == idx ? parent.left : parent.right) = -1;
    } else {
      level.root = -1;  // level fully discarded (only with tiny alpha)
    }
    node.live = false;
    // Release the sketch's memory now; the slot may sit unused for a while
    // and a discarded dense sketch would otherwise pin its counter matrix.
    node.sketch = factory_.Create();
    level.leaves_by_lo.pop_back();
    level.free_slots.push_back(idx);
    --level.stored;
  }

  CorrelatedSketchOptions options_;
  Factory factory_;
  uint64_t y_max_;
  uint32_t alpha_;
  uint32_t max_level_;
  uint32_t check_interval_;
  uint64_t tuples_inserted_ = 0;

  // Level 0: singleton buckets sorted by y (discards pop the back).
  std::vector<std::pair<uint64_t, Sketch>> singletons_;
  uint64_t level0_threshold_ = UINT64_MAX;    // Y_0
  std::vector<Level> levels_;                 // levels_[1..max_level_]
  // Virtual root pool: one physical sketch standing in for the identical
  // open roots of every level in [first_virtual_, max_level_].
  Sketch tail_;
  uint32_t tail_checks_ = 0;
  uint32_t first_virtual_ = 1;
};

}  // namespace castream

#endif  // CASTREAM_CORE_CORRELATED_SKETCH_H_
