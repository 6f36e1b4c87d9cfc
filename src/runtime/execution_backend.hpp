// ExecutionBackend — the pluggable execution layer of the runtime API.
//
// The paper's flow is inherently multi-target: the same compiled network
// runs on the virtual platform (Fig. 3), the standalone SoC (Fig. 2), the
// full board set-up (Fig. 4) and the Linux-stack comparator platform
// (Table II). A backend takes the staged artifacts of a PreparedModel and
// executes (or models) one inference on its platform, reporting a
// backend-independent ExecutionResult. Failures at this boundary —
// inconsistent artifacts, program-memory overflow, execution faults — come
// back as StatusOr, never as exceptions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/linux_baseline.hpp"
#include "common/status.hpp"
#include "core/bare_metal_flow.hpp"

namespace nvsoc::runtime {

/// A parsed string-keyed backend spec. Registries accept configured
/// variants of their backends by name, so a CLI flag alone can select
/// both the platform and its operating point:
///
///   "linux_baseline@25mhz"            clock override
///   "soc?wait_mode=polling"           key/value options
///   "system_top@50mhz?validate=off"   both
///
/// Grammar: `base[@clock][?key=value[&key=value]...]` (a repeated `?` is
/// tolerated as an option separator: `soc?a=1?b=2` == `soc?a=1&b=2`).
///
/// Malformed specs — empty base, `@` without a clock (or with a second
/// `@`), a dangling `key`/`key=`/`=value` pair, the same option key given
/// twice — all fail kInvalidArgument with a message prefixed
/// `backend spec '<spec>':`. A trailing bare `?` is tolerated and
/// canonicalizes away (the spec is then just the base name).
struct BackendSpec {
  std::string full;   ///< as parsed; registries rewrite it to canonical()
                      ///< before configure(), so a hosted variant's name()
                      ///< is the canonical spelling, not the caller's
  std::string base;   ///< registry name of the backend to configure
  std::string clock;  ///< `@` token lowercased ("25mhz"), empty when absent
  std::vector<std::pair<std::string, std::string>> params;  ///< `?k=v&k=v`

  /// True when the spec carries any configuration beyond the base name.
  bool configured() const { return !clock.empty() || !params.empty(); }

  /// The spec re-serialized in canonical form: base, then the (lowercased)
  /// clock, then the options sorted by key — so equivalent spellings like
  /// `soc?validate=off&wait_mode=polling` and
  /// `soc?wait_mode=polling&validate=off` serialize identically.
  /// Registries key their variant cache on this, not on the raw spelling.
  /// (Option *values* are not normalized: `wait_mode=poll` and
  /// `wait_mode=polling` stay distinct cache entries.)
  std::string canonical() const;

  static StatusOr<BackendSpec> parse(const std::string& spec);
};

/// Parse a clock token ("25mhz", "1ghz", "100000khz", "50hz"); the unit is
/// case-insensitive and required.
StatusOr<Hertz> parse_clock(const std::string& token);

/// Parse a memory-size token ("1gib", "2mib", "512kib", "4096b"); binary
/// (IEC) units, case-insensitive and required. Used by the `?dram=` and
/// `?program_memory=` spec options.
StatusOr<std::uint64_t> parse_mem_size(const std::string& token);

/// Human-readable summary of the configured-variant spec grammar and every
/// supported option key — for the examples' `--help` output.
std::string spec_vocabulary_help();

/// Per-run knobs shared by every backend.
struct RunOptions {
  core::FlowConfig flow;  ///< clocks, NVDLA config, memory sizes, wait mode
  /// Check artifact consistency (loadable vs trace vs program, program
  /// memory capacity) before executing instead of running garbage.
  bool validate = true;
  /// Wall-clock budget for one request, measured from enqueue (0 = none).
  /// Backends do not read this — the session enforces it at its task
  /// boundaries (dequeue, post-staging, between retry attempts) and
  /// answers kDeadlineExceeded for an expired request.
  std::uint32_t deadline_ms = 0;
};

/// Backend-independent view of one inference execution.
struct ExecutionResult {
  std::string backend;  ///< registry name that produced the result
  std::string model;
  Cycle cycles = 0;     ///< platform cycles at `clock`
  Hertz clock = 0;
  double ms = 0.0;
  std::vector<float> output;
  std::size_t predicted_class = 0;
  /// Platform-specific detail, present where it applies.
  std::optional<core::SocExecution> soc;  ///< SocPlatformBackend
  std::optional<baseline::LinuxRunEstimate> linux_estimate;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;

  virtual StatusOr<ExecutionResult> run(const core::PreparedModel& prepared,
                                        const RunOptions& options) const = 0;

  /// Optional staging hook, called off the serving hot path (prepare_async,
  /// the session's async staging pipeline) once the shared artifacts exist:
  /// pre-compute anything the first run() would otherwise pay for lazily.
  /// The SoC backends' `?mode=replay` variants use it to record the
  /// input-independent platform envelope eagerly, so the one full
  /// cycle-accurate recording run never stalls the first pooled batch.
  /// Must be idempotent and thread-safe; the default does nothing.
  virtual void stage(const core::PreparedModel& prepared,
                     const RunOptions& options) const {
    (void)prepared;
    (void)options;
  }

  /// Build a configured variant of this backend from a parsed spec — the
  /// registry calls this to host names like "soc?wait_mode=polling". The
  /// base implementation understands the generic keys every backend
  /// accepts and wraps `this` (which must outlive the variant):
  ///   @<clock>             override RunOptions::flow.soc_clock
  ///   ?wait_mode=polling|wfi   require/override the flow wait mode
  ///   ?validate=on|off     toggle pre-execution artifact validation
  ///   ?dram=<size>         override the DRAM window (e.g. 1gib)
  ///   ?program_memory=<size>   override the BRAM program memory capacity
  /// Unknown keys are kInvalidArgument. Backends with their own knobs
  /// (LinuxBaselineBackend's platform clock, the SoC backends'
  /// ?mode=replay) override this.
  virtual StatusOr<std::unique_ptr<ExecutionBackend>> configure(
      const BackendSpec& spec) const;
};

/// Consistency checks shared by the backends. `requires_program` is true
/// for the bare-metal platforms (they consume the generated machine code);
/// the VP and baseline backends only need the compiled loadable + trace.
Status validate_prepared(const core::PreparedModel& prepared,
                         const RunOptions& options, bool requires_program);

/// Implementation helper for configure() overrides: wrap a backend in a
/// variant named `spec.full` that applies the generic-key overrides (the
/// `@` clock when `apply_clock`, `?wait_mode=`, `?validate=`) to the
/// RunOptions before delegating. When `owned` is non-null the variant owns
/// it and delegates to it; otherwise it delegates to `base`, which must
/// outlive the variant (the registry keeps both).
StatusOr<std::unique_ptr<ExecutionBackend>> make_configured_backend(
    const ExecutionBackend* base, std::unique_ptr<ExecutionBackend> owned,
    const BackendSpec& spec, bool apply_clock);

}  // namespace nvsoc::runtime
