// Deterministic, seeded fault injection for the serving stack.
//
// A fault::Plan names per-kind injection rates plus a seed; a
// fault::Injector turns the plan into a reproducible decision stream:
// decision i for kind k fires iff hash(seed, k, i) < rate * 2^64, so the
// failure sequence depends only on (plan, seed, per-kind decision index) —
// never on wall clock, thread scheduling, or a shared RNG cursor. Two
// injectors built from the same plan produce the same sequence; the same
// plan with a different seed produces a different one.
//
// Plans parse from a compact spec usable inside a backend spec
// (`soc?fault=csb_timeout:0.5+flip:1e-6+seed:7`) or a CLI flag
// (`--fault=...`). Kinds:
//
//   flip         weight bit flips in the serving copies (replay arena /
//                SoC DRAM preload) — detected by checksum, surfaces as
//                kDataLoss before any corrupted answer is served
//   csb_timeout  a CSB register read completes only at the watchdog
//                latency with a timeout status -> kDeadlineExceeded
//   csb_error    a CSB register access returns an error response
//                -> kUnavailable (transient; retryable)
//   dbb_error    a DBB burst gets an AXI error response -> kUnavailable
//   stall        an artificial ISS stall: the SoC run burns its
//                instruction budget -> kDeadlineExceeded
//   staging      a staging fails at its start -> kUnavailable
//   replay       a replay-engine run fails -> kUnavailable
//
// The injector is shared (shared_ptr) across the layers it arms and its
// counters are atomic: concurrent workers each consume distinct decision
// indices, so the *set* of fired decisions is deterministic even when the
// interleaving is not.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.hpp"

namespace nvsoc::fault {

enum class Kind : std::size_t {
  kWeightFlip = 0,
  kCsbTimeout,
  kCsbError,
  kDbbError,
  kIssStall,
  kStagingFail,
  kReplayFail,
  kCount,
};

constexpr std::size_t kKindCount = static_cast<std::size_t>(Kind::kCount);

/// Spec-vocabulary name of a fault kind ("flip", "csb_timeout", ...).
const char* kind_name(Kind kind);

/// Per-kind injection rates (probability per decision, in [0, 1]) plus the
/// seed that anchors the decision stream.
struct Plan {
  std::array<double, kKindCount> rate{};  // all zero: inject nothing
  std::uint64_t seed = 1;

  double& at(Kind kind) { return rate[static_cast<std::size_t>(kind)]; }
  double at(Kind kind) const { return rate[static_cast<std::size_t>(kind)]; }

  /// True when at least one kind has a non-zero rate.
  bool any() const;

  /// Parses "kind:rate[+kind:rate...][+seed:N]". Unknown kinds, rates
  /// outside [0, 1], and malformed numbers are kInvalidArgument.
  static StatusOr<Plan> parse(const std::string& spec);

  /// Canonical spec string (kinds in enum order, zero rates omitted,
  /// seed always present) — round-trips through parse() and keys the
  /// platform-envelope records of fault-armed variants.
  std::string to_string() const;
};

/// The decision stream + evidence counters over one Plan.
class Injector {
 public:
  explicit Injector(Plan plan) : plan_(plan) {}

  const Plan& plan() const { return plan_; }

  /// Consumes the next decision index for `kind`; true = inject. Thread
  /// safe; concurrent callers get distinct indices.
  bool fire(Kind kind);

  /// Deterministic corruption site for a fired kWeightFlip decision: the
  /// byte offset (within a region of `region_bytes`) and bit to flip,
  /// derived from the decision index so repeat runs corrupt the same
  /// sites. Returns nullopt when the decision does not fire or the
  /// region is empty.
  struct Corruption {
    std::uint64_t offset = 0;
    std::uint8_t bit = 0;
  };
  std::optional<Corruption> fire_corruption(std::uint64_t region_bytes);

  /// Faults injected, per kind and total. The per-kind count is what the
  /// fault-detection tests hold each detected fault against.
  std::uint64_t injected(Kind kind) const;
  std::uint64_t total_injected() const;

 private:
  // Deliberately lock-free: each counter is an independent fetch_add with
  // no cross-counter invariant, so there is nothing for a Mutex/GUARDED_BY
  // capability to protect — relaxed atomics are the whole discipline.
  // plan_ is set once in the constructor and read-only afterwards.
  Plan plan_;
  std::array<std::atomic<std::uint64_t>, kKindCount> next_index_{};
  std::array<std::atomic<std::uint64_t>, kKindCount> injected_{};
};

}  // namespace nvsoc::fault
