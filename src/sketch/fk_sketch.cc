#include "src/sketch/fk_sketch.h"

#include <algorithm>
#include <cmath>

#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/hash/hash_family.h"

namespace castream {

struct FkSketchFactory::Shared {
  FkSketchOptions options;
  uint64_t construction_seed;
  uint64_t level_hash_seed;
  std::vector<CountSketchFactory> cs_factories;
  std::vector<KmvSketchFactory> kmv_factories;

  /// \brief Value-based family identity: every hash in the factory is drawn
  /// deterministically from (options, seed), so equal pairs mean identical
  /// families even across factory objects or processes.
  bool SameFamily(const Shared& other) const {
    return construction_seed == other.construction_seed &&
           options.k == other.options.k &&
           options.levels == other.options.levels &&
           options.width == other.options.width &&
           options.depth == other.options.depth &&
           options.candidates == other.options.candidates &&
           options.kmv_k == other.options.kmv_k;
  }
};

FkSketchFactory::FkSketchFactory(FkSketchOptions options, uint64_t seed) {
  auto shared = std::make_shared<Shared>();
  shared->options = options;
  shared->construction_seed = seed;
  SplitMix64 seeder(seed);
  shared->level_hash_seed = seeder.Next();
  shared->cs_factories.reserve(options.levels);
  shared->kmv_factories.reserve(options.levels);
  for (uint32_t j = 0; j < options.levels; ++j) {
    SketchDims dims{options.depth, static_cast<uint32_t>(NextPow2(options.width))};
    shared->cs_factories.emplace_back(dims, seeder.Next());
    shared->kmv_factories.emplace_back(options.kmv_k, seeder.Next());
  }
  shared_ = std::move(shared);
}

const FkSketchOptions& FkSketchFactory::options() const {
  return shared_->options;
}

FkSketch FkSketchFactory::Create() const { return FkSketch(shared_); }

FkPreHashed FkSketchFactory::Prehash(uint64_t x) const {
  const uint64_t h = MixHash64(x, shared_->level_hash_seed);
  const uint32_t lvl = static_cast<uint32_t>(LeadingZeros(h));
  return FkPreHashed{x, std::min(lvl, shared_->options.levels - 1)};
}

FkSketch::FkSketch(std::shared_ptr<const FkSketchFactory::Shared> shared)
    : shared_(std::move(shared)) {
  levels_.reserve(shared_->options.levels);
  for (uint32_t j = 0; j < shared_->options.levels; ++j) {
    levels_.emplace_back(shared_->cs_factories[j].Create(),
                         shared_->kmv_factories[j].Create());
  }
}

uint32_t FkSketch::MaxLevelOf(uint64_t x) const {
  const uint64_t h = MixHash64(x, shared_->level_hash_seed);
  const uint32_t lvl = static_cast<uint32_t>(LeadingZeros(h));
  return std::min(lvl, shared_->options.levels - 1);
}

void FkSketch::AddCandidate(Level& level, uint64_t x) const {
  // Linear membership scan: the candidate vector is small (<= 2*candidates)
  // and contiguous, which beats a hash set at these sizes.
  if (std::find(level.candidates.begin(), level.candidates.end(), x) !=
      level.candidates.end()) {
    return;
  }
  level.candidates.push_back(x);
  if (level.candidates.size() >= 2 * shared_->options.candidates) {
    PruneCandidates(level);
  }
}

void FkSketch::PruneCandidates(Level& level) const {
  const uint32_t keep = shared_->options.candidates;
  if (level.candidates.size() <= keep) return;
  std::vector<std::pair<double, uint64_t>> scored;
  scored.reserve(level.candidates.size());
  for (uint64_t x : level.candidates) {
    scored.emplace_back(level.cs.EstimateFrequency(x), x);
  }
  std::nth_element(scored.begin(), scored.begin() + keep - 1, scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  scored.resize(keep);
  level.candidates.clear();
  for (const auto& [est, x] : scored) level.candidates.push_back(x);
}

void FkSketch::Insert(uint64_t x, int64_t weight) {
  const uint32_t max_level = MaxLevelOf(x);
  for (uint32_t j = 0; j <= max_level; ++j) {
    Level& level = levels_[j];
    level.cs.Insert(x, weight);
    level.kmv.Insert(x);
    AddCandidate(level, x);
  }
}

void FkSketch::Insert(const FkPreHashed& ph, int64_t weight) {
  for (uint32_t j = 0; j <= ph.max_level; ++j) {
    Level& level = levels_[j];
    level.cs.Insert(ph.x, weight);
    level.kmv.Insert(ph.x);
    AddCandidate(level, ph.x);
  }
}

double FkSketch::Estimate() const {
  const FkSketchOptions& opt = shared_->options;
  const double k = opt.k;

  // Heavy part: level-0 candidates above the CountSketch noise floor.
  // Selecting the maximum of many noisy estimates is biased upward, and the
  // k-th power amplifies the bias, so candidates whose estimate could be
  // explained by noise alone (additive ~sqrt(F2/width) per point estimate)
  // are excluded here and left to the subsampled light part instead.
  const double noise_floor =
      3.0 * std::sqrt(std::max(0.0, levels_[0].cs.Estimate()) /
                      static_cast<double>(opt.width));
  const double theta = std::max(1.0, noise_floor);
  std::vector<std::pair<double, uint64_t>> heavy;
  heavy.reserve(levels_[0].candidates.size());
  for (uint64_t x : levels_[0].candidates) {
    double f = levels_[0].cs.EstimateFrequency(x);
    if (f >= theta) heavy.emplace_back(f, x);
  }
  std::sort(heavy.begin(), heavy.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (heavy.size() > opt.candidates) heavy.resize(opt.candidates);

  double heavy_part = 0.0;
  std::vector<uint64_t> heavy_ids;
  heavy_ids.reserve(heavy.size());
  for (const auto& [f, x] : heavy) {
    heavy_part += std::pow(f, k);
    heavy_ids.push_back(x);
  }

  // Light part: the deepest useful level is the shallowest one whose
  // distinct population fits the candidate budget, so its candidate set is
  // (approximately) the entire 2^-j universe sample; Horvitz-Thompson scale
  // its non-heavy contribution by 2^j. (At j = 0 the candidates are the
  // whole population and the scale is 1 — the near-exact small-stream case.)
  const double fit = static_cast<double>(opt.candidates) * 0.75;
  uint32_t best_j = opt.levels - 1;
  for (uint32_t j = 0; j < opt.levels; ++j) {
    if (levels_[j].kmv.Estimate() <= fit) {
      best_j = j;
      break;
    }
  }

  double light_part = 0.0;
  const Level& deep = levels_[best_j];
  for (uint64_t x : deep.candidates) {
    if (std::find(heavy_ids.begin(), heavy_ids.end(), x) != heavy_ids.end()) {
      continue;
    }
    double f = deep.cs.EstimateFrequency(x);
    if (f > 0.5) light_part += std::pow(f, k);
  }
  light_part *= std::ldexp(1.0, static_cast<int>(best_j));
  return heavy_part + light_part;
}

Status FkSketch::MergeFrom(const FkSketch& other) {
  if (shared_ != other.shared_ && !shared_->SameFamily(*other.shared_)) {
    return Status::PreconditionFailed(
        "FkSketch::MergeFrom: sketches from different families");
  }
  for (uint32_t j = 0; j < levels_.size(); ++j) {
    CASTREAM_RETURN_NOT_OK(levels_[j].cs.MergeFrom(other.levels_[j].cs));
    CASTREAM_RETURN_NOT_OK(levels_[j].kmv.MergeFrom(other.levels_[j].kmv));
    // No eager prune after the replay: AddCandidate already enforces the 2x
    // bound, and an extra prune here would cut survivors by that instant's
    // noisy frequency estimates. In particular, merging into an empty
    // sketch must reproduce `other`'s candidate set exactly — the
    // correlated framework's virtual root pool materializes level roots
    // through this path and relies on the merge being lossless.
    for (uint64_t x : other.levels_[j].candidates) AddCandidate(levels_[j], x);
  }
  return Status::OK();
}

size_t FkSketch::SizeBytes() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.cs.SizeBytes() + level.kmv.SizeBytes() +
             level.candidates.size() * sizeof(uint64_t);
  }
  return total;
}

size_t FkSketch::CounterCount() const {
  size_t total = 0;
  for (const Level& level : levels_) {
    total += level.cs.CounterCount() + level.kmv.CounterCount() +
             level.candidates.size();
  }
  return total;
}

std::vector<std::pair<uint64_t, double>> FkSketch::TopCandidates(
    uint32_t n) const {
  std::vector<std::pair<uint64_t, double>> out;
  out.reserve(levels_[0].candidates.size());
  for (uint64_t x : levels_[0].candidates) {
    out.emplace_back(x, levels_[0].cs.EstimateFrequency(x));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace castream
