#include "src/core/any_summary.h"

#include <array>

namespace castream {
namespace {

CorrelatedSketchOptions ToFrameworkOptions(const SummaryOptions& o) {
  CorrelatedSketchOptions opts;
  opts.eps = o.eps;
  opts.delta = o.delta;
  opts.y_max = o.y_max;
  opts.f_max_hint = o.f_max_hint;
  return opts;
}

CorrelatedF0Options ToF0Options(const SummaryOptions& o) {
  CorrelatedF0Options opts;
  opts.eps = o.eps;
  opts.delta = o.delta;
  opts.x_domain = o.x_domain;
  return opts;
}

CorrelatedChhOptions ToChhOptions(const SummaryOptions& o) {
  CorrelatedChhOptions opts;
  opts.phi_eps = o.phi_eps;
  opts.y_eps = o.chh_y_eps;
  return opts;
}

Result<AnySummary> MakeF2(const SummaryOptions& o, uint64_t seed) {
  return AnySummary(MakeCorrelatedF2(ToFrameworkOptions(o), seed));
}

Result<AnySummary> MakeF0(const SummaryOptions& o, uint64_t seed) {
  return AnySummary(CorrelatedF0Sketch(ToF0Options(o), seed));
}

Result<AnySummary> MakeRarity(const SummaryOptions& o, uint64_t seed) {
  return AnySummary(CorrelatedRaritySketch(ToF0Options(o), seed));
}

Result<AnySummary> MakeHeavyHitters(const SummaryOptions& o, uint64_t seed) {
  // Same validation policy as the dedicated CHH kinds: degenerate budgets
  // are a loud error here, never a silent clamp inside the factory.
  if (o.max_candidates < 4 || o.max_candidates > (uint32_t{1} << 20)) {
    return Status::InvalidArgument(
        "hh options: max_candidates " + std::to_string(o.max_candidates) +
        " out of range [4, 1048576]");
  }
  if (!(o.phi_eps > 0.0 && o.phi_eps <= 1.0)) {
    return Status::InvalidArgument("hh options: phi_eps must be in (0, 1]");
  }
  return AnySummary(CorrelatedF2HeavyHitters(ToFrameworkOptions(o), o.phi_eps,
                                             seed, o.max_candidates));
}

Result<AnySummary> MakeNestedMisraGries(const SummaryOptions& o,
                                        uint64_t seed) {
  (void)seed;  // deterministic counter summary: no hash families to seed
  const CorrelatedChhOptions opts = ToChhOptions(o);
  CASTREAM_RETURN_NOT_OK(opts.Validate());
  return AnySummary(CorrelatedNestedMisraGries(opts));
}

Result<AnySummary> MakeFastChh(const SummaryOptions& o, uint64_t seed) {
  (void)seed;
  const CorrelatedChhOptions opts = ToChhOptions(o);
  CASTREAM_RETURN_NOT_OK(opts.Validate());
  return AnySummary(CorrelatedFastChh(opts));
}

template <typename T>
Result<AnySummary> DeserializeAs(std::span<const std::byte> bytes) {
  CASTREAM_ASSIGN_OR_RETURN(T summary, T::Deserialize(bytes));
  return AnySummary(std::move(summary));
}

constexpr std::array<SummaryRegistry::Entry, 6> kRegistry{{
    {SummaryKind::kCorrelatedF2, "f2", &MakeF2,
     &DeserializeAs<CorrelatedF2Sketch>},
    {SummaryKind::kCorrelatedF0, "f0", &MakeF0,
     &DeserializeAs<CorrelatedF0Sketch>},
    {SummaryKind::kCorrelatedRarity, "rarity", &MakeRarity,
     &DeserializeAs<CorrelatedRaritySketch>},
    {SummaryKind::kCorrelatedF2HeavyHitters, "hh", &MakeHeavyHitters,
     &DeserializeAs<CorrelatedF2HeavyHitters>},
    {SummaryKind::kCorrelatedNestedMisraGries, "chh_mg", &MakeNestedMisraGries,
     &DeserializeAs<CorrelatedNestedMisraGries>},
    {SummaryKind::kCorrelatedFastChh, "chh_fast", &MakeFastChh,
     &DeserializeAs<CorrelatedFastChh>},
}};

}  // namespace

std::span<const SummaryRegistry::Entry> SummaryRegistry::Entries() {
  return kRegistry;
}

const SummaryRegistry::Entry* SummaryRegistry::Find(SummaryKind kind) {
  for (const Entry& e : kRegistry) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

const SummaryRegistry::Entry* SummaryRegistry::FindByName(
    std::string_view name) {
  for (const Entry& e : kRegistry) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string_view> SummaryRegistry::ListKinds() {
  std::vector<std::string_view> names;
  names.reserve(kRegistry.size());
  for (const Entry& e : kRegistry) names.push_back(e.name);
  return names;
}

std::string SummaryRegistry::KindNamesForDisplay(std::string_view separator) {
  std::string out;
  for (const Entry& e : kRegistry) {
    if (!out.empty()) out += separator;
    out += e.name;
  }
  return out;
}

Result<AnySummary> AnySummary::Deserialize(std::span<const std::byte> bytes) {
  CASTREAM_ASSIGN_OR_RETURN(SummaryKind kind, io::PeekKind(bytes));
  const SummaryRegistry::Entry* entry = SummaryRegistry::Find(kind);
  if (entry == nullptr) {
    return Status::InvalidArgument(
        "AnySummary::Deserialize: kind not in the registry");
  }
  return entry->deserialize(bytes);
}

Result<AnySummary> MakeSummary(SummaryKind kind, const SummaryOptions& options,
                               uint64_t seed) {
  const SummaryRegistry::Entry* entry = SummaryRegistry::Find(kind);
  if (entry == nullptr) {
    return Status::InvalidArgument("MakeSummary: unregistered summary kind");
  }
  return entry->make(options, seed);
}

Result<AnySummary> MakeSummary(std::string_view kind_name,
                               const SummaryOptions& options, uint64_t seed) {
  const SummaryRegistry::Entry* entry = SummaryRegistry::FindByName(kind_name);
  if (entry == nullptr) {
    return Status::InvalidArgument(
        "MakeSummary: unknown summary kind name '" + std::string(kind_name) +
        "' (registered kinds: " + SummaryRegistry::KindNamesForDisplay() +
        ")");
  }
  return entry->make(options, seed);
}

}  // namespace castream
