#include "runtime/backends.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/strfmt.hpp"
#include "compiler/reference.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc::runtime {

Status validate_prepared(const core::PreparedModel& prepared,
                         const RunOptions& options, bool requires_program) {
  if (!prepared.has_frontend() || prepared.loadable().ops.empty()) {
    return {StatusCode::kInvalidArgument,
            "prepared model has no compiled loadable (run the compile stage "
            "first)"};
  }
  if (prepared.loadable().output_surface.span_bytes() == 0) {
    return {StatusCode::kInvalidArgument,
            "loadable declares an empty output surface"};
  }
  if (!requires_program) return Status::ok();

  if (!prepared.has_tail()) {
    return {StatusCode::kInvalidArgument,
            "prepared model has no trace stage (virtual-platform trace, "
            "configuration file and program are missing)"};
  }

  if (!(prepared.nvdla() == options.flow.nvdla)) {
    return {StatusCode::kInvalidArgument,
            strfmt("hardware configuration mismatch: the prepared model's "
                   "trace was captured on '{}' but the run requests '{}' — "
                   "re-prepare for the requested NVDLA tree",
                   prepared.nvdla().name, options.flow.nvdla.name)};
  }
  if (prepared.config_file().commands.size() !=
      prepared.vp().trace.csb.size()) {
    return {StatusCode::kInvalidArgument,
            strfmt("loadable/trace mismatch: configuration file has {} "
                   "commands but the VP trace has {} CSB records — the "
                   "config file was not generated from this trace",
                   prepared.config_file().commands.size(),
                   prepared.vp().trace.csb.size())};
  }
  if (prepared.program().image.bytes.empty()) {
    return {StatusCode::kInvalidArgument,
            "prepared model has no bare-metal program (machine code image "
            "is empty)"};
  }
  if (prepared.program().wait_mode != options.flow.wait_mode) {
    return {StatusCode::kInvalidArgument,
            strfmt("wait-mode mismatch: the bare-metal program was "
                   "generated for '{}' but the run requests '{}' — "
                   "re-prepare with the requested wait mode",
                   prepared.program().wait_mode == toolflow::WaitMode::kPoll
                       ? "polling"
                       : "wfi",
                   options.flow.wait_mode == toolflow::WaitMode::kPoll
                       ? "polling"
                       : "wfi")};
  }
  if (prepared.program().image.bytes.size() >
      options.flow.program_memory_bytes) {
    return {StatusCode::kOutOfRange,
            strfmt("program-memory overflow: machine code is {} bytes but "
                   "the SoC's program memory holds {} bytes",
                   prepared.program().image.bytes.size(),
                   options.flow.program_memory_bytes)};
  }
  return Status::ok();
}

namespace {

/// The accelerator's cycles and output for `prepared`'s current input on
/// the `nvdla` tree — what `vp` reports and what `linux_baseline` wraps in
/// its software envelope. In order of preference: the traced output, when
/// the trace ran on this very input; else a functional replay of the
/// recorded schedule, whose cycle count is input-independent; else one full
/// virtual-platform run, which only a prepared model built outside a
/// session (no schedule) or traced on another tree reaches. The VP is
/// deterministic, so all three are bit-exact with a per-image re-run.
struct VpOutcome {
  Cycle cycles = 0;
  std::vector<float> output;
};

VpOutcome run_on_vp(const core::PreparedModel& prepared,
                    const nvdla::NvdlaConfig& nvdla,
                    const std::shared_ptr<fault::Injector>& fault) {
  if (prepared.has_tail() && prepared.vp().total_cycles != 0 &&
      prepared.nvdla() == nvdla) {
    if (prepared.vp_matches_input) {
      return {prepared.vp().total_cycles, prepared.vp().output};
    }
    if (prepared.has_replay()) {
      return {prepared.replay_schedule().vp_total_cycles,
              core::replay_output(prepared, fault.get())};
    }
  }
  vp::VirtualPlatform platform(nvdla);
  platform.set_fault_injector(fault);
  vp::VpRunResult fresh = platform.run(prepared.loadable(), prepared.input);
  return {fresh.total_cycles, std::move(fresh.output)};
}

ExecutionResult from_soc_execution(const ExecutionBackend& backend,
                                   const core::PreparedModel& prepared,
                                   const RunOptions& options,
                                   core::SocExecution exec) {
  ExecutionResult result;
  result.backend = backend.name();
  result.model = prepared.model_name();
  result.cycles = exec.cycles;
  result.clock = options.flow.soc_clock;
  result.ms = exec.ms;
  result.output = exec.output;
  result.predicted_class = exec.predicted_class;
  result.soc = std::move(exec);
  return result;
}

/// Extract `?mode=` from a spec, leaving the generic keys for the shared
/// configure machinery. Returns the replay flag (defaulted to `current`
/// when the key is absent).
StatusOr<bool> take_mode(BackendSpec& spec, bool current) {
  bool replay = current;
  std::vector<std::pair<std::string, std::string>> rest;
  for (const auto& [key, value] : spec.params) {
    if (key != "mode") {
      rest.emplace_back(key, value);
      continue;
    }
    std::string v = value;
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    if (v == "replay") {
      replay = true;
    } else if (v == "cycle_accurate") {
      replay = false;
    } else {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("backend spec '{}': mode must be 'replay' or "
                           "'cycle_accurate', got '{}'",
                           spec.full, value));
    }
  }
  spec.params = std::move(rest);
  return replay;
}

}  // namespace

std::string_view SocPlatformBackend::name() const {
  return platform_ == core::Platform::kSoc ? "soc" : "system_top";
}

std::string_view SocPlatformBackend::description() const {
  return platform_ == core::Platform::kSoc
             ? "standalone SoC (Fig. 2, internal DRAM)"
             : "full board set-up (Fig. 4: Zynq-PS preload, SmartConnect, "
               "MIG DDR4)";
}

StatusOr<ExecutionResult> SocPlatformBackend::run(
    const core::PreparedModel& prepared, const RunOptions& options) const {
  if (!prepared.has_frontend() || !prepared.has_tail()) {
    return Status(StatusCode::kInvalidArgument,
                  "prepared model is missing its staged artifact cores");
  }
  if (options.validate) {
    if (Status s = validate_prepared(prepared, options, true); !s.is_ok())
      return s;
  }
  try {
    // Replay mode needs the recorded schedule; a prepared model without
    // one (hand-built artifacts) still executes in full.
    core::SocExecution exec;
    if (replay_mode_ && prepared.has_replay()) {
      exec = core::replay_on(platform_, prepared, options.flow);
    } else if (platform_ == core::Platform::kSoc) {
      exec = core::execute_on_soc(prepared, options.flow);
    } else {
      exec = core::execute_on_system_top(prepared, options.flow);
    }
    return from_soc_execution(*this, prepared, options, std::move(exec));
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
}

void SocPlatformBackend::stage(const core::PreparedModel& prepared,
                               const RunOptions& options) const {
  if (!replay_mode_ || !prepared.has_replay() || !prepared.has_tail()) return;
  core::record_replay_envelope(platform_, prepared, options.flow);
}

StatusOr<std::unique_ptr<ExecutionBackend>> SocPlatformBackend::configure(
    const BackendSpec& spec) const {
  // Strip `?mode=`, rebuild the backend when the mode flips, and hand the
  // remaining generic keys to the common wrapper. (The base
  // ExecutionBackend::configure is exactly the `owned == nullptr` case.)
  BackendSpec stripped = spec;
  const auto replay = take_mode(stripped, replay_mode_);
  if (!replay.is_ok()) return replay.status();
  if (*replay == replay_mode_) {
    return make_configured_backend(this, nullptr, stripped,
                                   /*apply_clock=*/true);
  }
  return make_configured_backend(
      nullptr, std::make_unique<SocPlatformBackend>(platform_, *replay),
      stripped, /*apply_clock=*/true);
}

StatusOr<ExecutionResult> VpBackend::run(const core::PreparedModel& prepared,
                                         const RunOptions& options) const {
  if (!prepared.has_frontend()) {
    return Status(StatusCode::kInvalidArgument,
                  "prepared model is missing its staged artifact cores");
  }
  if (options.validate) {
    if (Status s = validate_prepared(prepared, options, false); !s.is_ok())
      return s;
  }
  try {
    ExecutionResult result;
    result.backend = name();
    result.model = prepared.model_name();
    result.clock = options.flow.soc_clock;
    VpOutcome outcome =
        run_on_vp(prepared, options.flow.nvdla, options.flow.fault);
    result.cycles = outcome.cycles;
    result.output = std::move(outcome.output);
    result.ms = cycles_to_ms(result.cycles, options.flow.soc_clock);
    result.predicted_class = compiler::argmax(result.output);
    return result;
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
}

StatusOr<ExecutionResult> LinuxBaselineBackend::run(
    const core::PreparedModel& prepared, const RunOptions& options) const {
  if (!prepared.has_frontend()) {
    return Status(StatusCode::kInvalidArgument,
                  "prepared model is missing its staged artifact cores");
  }
  if (options.validate) {
    if (Status s = validate_prepared(prepared, options, false); !s.is_ok())
      return s;
  }
  if (!prepared.has_tail() || prepared.vp().total_cycles == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "linux_baseline needs the VP trace stage (accelerator "
                  "cycle count) of the prepared model");
  }
  try {
    VpOutcome outcome =
        run_on_vp(prepared, prepared.nvdla(), options.flow.fault);
    const baseline::LinuxRunEstimate estimate =
        platform_.estimate(prepared.loadable(), outcome.cycles);
    ExecutionResult result;
    result.backend = name();
    result.model = prepared.model_name();
    result.cycles = estimate.total_cycles;
    result.clock = platform_.config().clock;
    result.ms = estimate.ms;
    // Same NVDLA, same loadable: the accelerator result is functionally
    // identical to the VP run; only the software envelope differs.
    result.output = std::move(outcome.output);
    result.predicted_class = compiler::argmax(result.output);
    result.linux_estimate = estimate;
    return result;
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
}

StatusOr<std::unique_ptr<ExecutionBackend>> LinuxBaselineBackend::configure(
    const BackendSpec& spec) const {
  // The `@` clock configures the modelled platform itself (its CPU and
  // NVDLA share one clock domain), not the RunOptions: build a re-clocked
  // instance, then let the generic wrapper apply the remaining keys.
  if (spec.clock.empty()) {
    return ExecutionBackend::configure(spec);
  }
  const auto clock = parse_clock(spec.clock);
  if (!clock.is_ok()) return clock.status();
  baseline::LinuxPlatformConfig config = platform_.config();
  config.clock = *clock;
  return make_configured_backend(nullptr,
                                 std::make_unique<LinuxBaselineBackend>(config),
                                 spec, /*apply_clock=*/false);
}

}  // namespace nvsoc::runtime
