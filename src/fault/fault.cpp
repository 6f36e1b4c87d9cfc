#include "fault/fault.hpp"

#include <cmath>
#include <cstdlib>

#include "common/strfmt.hpp"

namespace nvsoc::fault {

namespace {

/// splitmix64 finalizer: a strong 64-bit mix, cheap enough for every
/// decision on the simulator hot path.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t decision_hash(std::uint64_t seed, Kind kind,
                            std::uint64_t index) {
  return mix64(mix64(seed ^ (static_cast<std::uint64_t>(kind) << 56)) ^
               index);
}

bool fires(double rate, std::uint64_t hash) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Compare against rate * 2^64 without overflowing: scale into [0, 1).
  return static_cast<double>(hash) <
         rate * 18446744073709551616.0;  // 2^64
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kWeightFlip: return "flip";
    case Kind::kCsbTimeout: return "csb_timeout";
    case Kind::kCsbError: return "csb_error";
    case Kind::kDbbError: return "dbb_error";
    case Kind::kIssStall: return "stall";
    case Kind::kStagingFail: return "staging";
    case Kind::kReplayFail: return "replay";
    case Kind::kCount: break;
  }
  return "unknown";
}

bool Plan::any() const {
  for (const double r : rate) {
    if (r > 0.0) return true;
  }
  return false;
}

StatusOr<Plan> Plan::parse(const std::string& spec) {
  Plan plan;
  if (spec.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "fault plan spec is empty (expected kind:rate[+...], "
                  "e.g. 'csb_timeout:0.5+flip:1e-6+seed:7')");
  }
  std::size_t at = 0;
  while (at <= spec.size()) {
    const std::size_t plus = spec.find('+', at);
    const std::size_t end = plus == std::string::npos ? spec.size() : plus;
    const std::string term = spec.substr(at, end - at);
    const std::size_t colon = term.find(':');
    if (term.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= term.size()) {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("fault plan term '{}' is not kind:rate", term));
    }
    const std::string key = term.substr(0, colon);
    const std::string value = term.substr(colon + 1);
    const char* begin = value.c_str();
    char* parsed_end = nullptr;
    if (key == "seed") {
      const unsigned long long seed = std::strtoull(begin, &parsed_end, 10);
      if (parsed_end == begin || *parsed_end != '\0') {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("fault plan seed '{}' is not an integer",
                             value));
      }
      plan.seed = static_cast<std::uint64_t>(seed);
    } else {
      const double rate = std::strtod(begin, &parsed_end);
      if (parsed_end == begin || *parsed_end != '\0' || std::isnan(rate)) {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("fault plan rate '{}' is not a number", value));
      }
      if (rate < 0.0 || rate > 1.0) {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("fault plan rate {}:{} outside [0, 1]", key,
                             value));
      }
      bool known = false;
      for (std::size_t k = 0; k < kKindCount; ++k) {
        if (key == kind_name(static_cast<Kind>(k))) {
          plan.rate[k] = rate;
          known = true;
          break;
        }
      }
      if (!known) {
        std::string kinds;
        for (std::size_t k = 0; k < kKindCount; ++k) {
          if (!kinds.empty()) kinds += ", ";
          kinds += kind_name(static_cast<Kind>(k));
        }
        return Status(StatusCode::kInvalidArgument,
                      strfmt("unknown fault kind '{}' (known: {}, seed)",
                             key, kinds));
      }
    }
    if (plus == std::string::npos) break;
    at = plus + 1;
  }
  return plan;
}

std::string Plan::to_string() const {
  std::string out;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    if (rate[k] <= 0.0) continue;
    if (!out.empty()) out += "+";
    out += strfmt("{}:{}", kind_name(static_cast<Kind>(k)), rate[k]);
  }
  if (!out.empty()) out += "+";
  out += strfmt("seed:{}", seed);
  return out;
}

bool Injector::fire(Kind kind) {
  const std::size_t k = static_cast<std::size_t>(kind);
  const std::uint64_t index =
      next_index_[k].fetch_add(1, std::memory_order_relaxed);
  if (!fires(plan_.rate[k], decision_hash(plan_.seed, kind, index))) {
    return false;
  }
  injected_[k].fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<Injector::Corruption> Injector::fire_corruption(
    std::uint64_t region_bytes) {
  constexpr std::size_t k = static_cast<std::size_t>(Kind::kWeightFlip);
  const std::uint64_t index =
      next_index_[k].fetch_add(1, std::memory_order_relaxed);
  if (region_bytes == 0 ||
      !fires(plan_.rate[k],
             decision_hash(plan_.seed, Kind::kWeightFlip, index))) {
    return std::nullopt;
  }
  injected_[k].fetch_add(1, std::memory_order_relaxed);
  // A second mix decorrelates the site from the fire/no-fire decision.
  const std::uint64_t site =
      mix64(decision_hash(plan_.seed, Kind::kWeightFlip, index) ^
            0xc0ffee5eedull);
  Corruption corruption;
  corruption.offset = site % region_bytes;
  corruption.bit = static_cast<std::uint8_t>((site >> 56) & 7);
  return corruption;
}

std::uint64_t Injector::injected(Kind kind) const {
  return injected_[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

std::uint64_t Injector::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& count : injected_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace nvsoc::fault
