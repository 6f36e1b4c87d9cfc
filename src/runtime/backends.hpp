// The four built-in execution backends.
//
//   "soc"            Fig. 2 — standalone SoC, internal DRAM model
//   "system_top"     Fig. 4 — Zynq-PS preload, SmartConnect, CDC, MIG DDR4
//   "vp"             Fig. 3 — direct virtual-platform execution (no fabric)
//   "linux_baseline" Table II comparator — Linux driver stack of Giri [8]
//
// All four wrap existing machinery (core::execute_on_* / core::replay_on,
// vp::VirtualPlatform, baseline::LinuxDriverBaseline). "soc" and
// "system_top" are one class, SocPlatformBackend, over the two
// core::Platform values.
#pragma once

#include "runtime/execution_backend.hpp"

namespace nvsoc::runtime {

/// Fig. 2 ("soc", standalone SoC with the internal DRAM model) and Fig. 4
/// ("system_top", full board set-up: PS preload, SmartConnect, CDC, MIG):
/// the generated bare-metal program runs on the chosen SoC platform.
///
/// Functional replay is the serving default (`?mode=replay`): the first
/// run per (platform, flow) records the full cycle-accurate execution's
/// input-independent envelope beside the prepared model's program
/// (core::PlatformEnvelopes); every later image replays the functional op
/// pipeline only — same
/// outputs, same cycle counts, none of the µRISC-V ISS stepping.
/// `?mode=cycle_accurate` opts a variant back into simulating every image
/// in full; with `?decode_cache=off` it is the parity oracle every replay
/// path is checked against. A prepared model without a schedule (built
/// outside a session) executes in full too.
class SocPlatformBackend final : public ExecutionBackend {
 public:
  explicit SocPlatformBackend(core::Platform platform, bool replay_mode = true)
      : platform_(platform), replay_mode_(replay_mode) {}

  std::string_view name() const override;
  std::string_view description() const override;
  StatusOr<ExecutionResult> run(const core::PreparedModel& prepared,
                                const RunOptions& options) const override;
  /// In replay mode: eagerly record the input-independent platform
  /// envelope beside the prepared model's program (idempotent; a
  /// cycle-accurate backend stages nothing).
  void stage(const core::PreparedModel& prepared,
             const RunOptions& options) const override;
  /// Understands `?mode=replay|cycle_accurate` on top of the generic keys.
  StatusOr<std::unique_ptr<ExecutionBackend>> configure(
      const BackendSpec& spec) const override;

 private:
  core::Platform platform_;
  bool replay_mode_;
};

/// Fig. 3: run the loadable directly on the virtual platform (the paper's
/// simulation-only path, used for nv_full in Table III).
class VpBackend final : public ExecutionBackend {
 public:
  std::string_view name() const override { return "vp"; }
  std::string_view description() const override {
    return "NVDLA virtual platform (Fig. 3, direct execution)";
  }
  StatusOr<ExecutionResult> run(const core::PreparedModel& prepared,
                                const RunOptions& options) const override;
};

/// Table II comparator: the Linux-kernel driver-stack platform model.
class LinuxBaselineBackend final : public ExecutionBackend {
 public:
  explicit LinuxBaselineBackend(baseline::LinuxPlatformConfig config = {})
      : platform_(config) {}

  std::string_view name() const override { return "linux_baseline"; }
  std::string_view description() const override {
    return "Linux driver-stack platform (Giri et al. [8], 50 MHz)";
  }
  StatusOr<ExecutionResult> run(const core::PreparedModel& prepared,
                                const RunOptions& options) const override;
  /// "linux_baseline@25mhz" re-clocks the modelled platform (CPU + NVDLA
  /// share the clock domain) instead of overriding RunOptions.
  StatusOr<std::unique_ptr<ExecutionBackend>> configure(
      const BackendSpec& spec) const override;

 private:
  baseline::LinuxDriverBaseline platform_;
};

}  // namespace nvsoc::runtime
