#include "core/bare_metal_flow.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/strfmt.hpp"
#include "vp/replay_engine.hpp"

namespace nvsoc::core {

namespace {

/// FNV-1a over the raw op bytes. The schedule only ever compares a buffer
/// against its own frozen digest, so padding bytes hashing along is fine —
/// they are as stable (and as corruptible) as the payload fields. So is
/// each conv op's packed-weights pointer; the pack's contents are not
/// hashed (a replay uses a pack only after comparing its source bytes with
/// the weight bytes it read).
std::uint64_t checksum_ops(const std::vector<nvdla::ReplayOp>& ops) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(ops.data());
  const std::size_t size = ops.size() * sizeof(nvdla::ReplayOp);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

bool ReplaySchedule::ops_intact() const {
  return checksum_ops(ops) == ops_checksum;
}

SocExecution PlatformEnvelopes::platform_record(
    const std::string& key,
    const std::function<SocExecution()>& compute) const {
  PlatformOnce* slot = nullptr;
  {
    MutexLock lock(platforms_mutex_);
    auto& entry = platforms_[key];
    if (entry == nullptr) entry = std::make_unique<PlatformOnce>();
    slot = entry.get();
  }
  // The full simulation runs outside the map lock (other keys stay
  // available) but inside the slot's: exactly one successful recording run
  // per key, with concurrent callers blocking until it lands. Not
  // std::call_once: the compute may throw (a fault-armed recording run),
  // and a throwing callable must leave the slot open for the retry.
  MutexLock lock(slot->mutex);
  if (!slot->ready) {
    slot->exec = compute();
    // The envelope is input-independent; the recording run's functional
    // results are not part of the record.
    slot->exec.output = {};
    slot->exec.predicted_class = 0;
    slot->ready = true;
    bytes_.fetch_add(sizeof(PlatformOnce) + key.capacity() +
                         slot->exec.cpu.detail.capacity(),
                     std::memory_order_release);
    count_.fetch_add(1, std::memory_order_release);
    recorded_->fetch_add(1, std::memory_order_relaxed);
  }
  return slot->exec;
}

std::uint64_t ReplaySchedule::schedule_bytes() const {
  std::uint64_t bytes =
      sizeof(ReplaySchedule) + ops.capacity() * sizeof(nvdla::ReplayOp);
  for (const nvdla::ReplayOp& op : ops) {
    if (op.packed_weights != nullptr) bytes += op.packed_weights->bytes();
  }
  return bytes;
}

std::shared_ptr<const ReplaySchedule> make_replay_schedule(
    vp::VpRunResult& vp_result, const compiler::Loadable& loadable,
    const nvdla::NvdlaConfig& config) {
  auto schedule = std::make_shared<ReplaySchedule>(config);
  schedule->ops = std::move(vp_result.replay_ops);
  vp_result.replay_ops.clear();
  // The pack's source is the preloaded blob; a replay whose memory holds
  // other bytes at weight_addr ignores the pack and reorders what it read.
  const std::span<const std::uint8_t> blob = loadable.weight_blob;
  for (nvdla::ReplayOp& op : schedule->ops) {
    if (op.kind != nvdla::ReplayOp::Kind::kConv ||
        op.conv.weight_addr < loadable.weight_base ||
        op.conv.weight_addr - loadable.weight_base + op.conv.weight_bytes >
            blob.size()) {
      continue;
    }
    op.packed_weights = nvdla::pack_conv_weights(
        op.conv, blob.subspan(op.conv.weight_addr - loadable.weight_base,
                              op.conv.weight_bytes));
  }
  schedule->vp_total_cycles = vp_result.total_cycles;
  schedule->ops_checksum = checksum_ops(schedule->ops);
  return schedule;
}

std::vector<float> replay_output(const PreparedModel& prepared,
                                 fault::Injector* injector) {
  const ReplaySchedule& schedule = prepared.replay_schedule();
  // The schedule-lifetime engine checks a preloaded per-worker arena out,
  // resets only the surfaces the previous image dirtied, and replays —
  // no per-image sparse-DRAM rebuild, no weight-blob re-copy.
  std::vector<float> output = schedule.engine(prepared.nvdla())
                                  .run(prepared.loadable(), schedule.ops,
                                       prepared.input, injector);
  schedule.note_replay();
  return output;
}

vp::WeightFile PreparedModel::preload_weight_file() const {
  vp::WeightFile patched = tail->vp.weights;
  if (!vp_matches_input) {
    patched.overwrite(loadable().input_surface.base,
                      loadable().pack_input(input));
  }
  return patched;
}

namespace {

SocExecution finish_execution(soc::Soc& soc, Dram& dram,
                              const PreparedModel& prepared,
                              const rv::RunResult& cpu_result) {
  if (cpu_result.reason != rv::HaltReason::kEbreak) {
    const std::string what =
        std::string("SoC program did not reach ebreak: ") +
        rv::halt_reason_name(cpu_result.reason) + " " + cpu_result.detail;
    // Typed failure surface. Budget exhaustion (injected ISS stalls,
    // runaway programs) is a deadline. A bus-error halt carries the CSB/
    // DBB layer's status text in the halt detail (the CPU embeds
    // rsp.status.to_string()), so the typed code injected deep in the
    // platform is recovered here instead of collapsing to kInternal.
    if (cpu_result.reason == rv::HaltReason::kInstructionLimit) {
      throw StatusError(StatusCode::kDeadlineExceeded, what);
    }
    if (cpu_result.reason == rv::HaltReason::kBusError) {
      if (cpu_result.detail.find("DEADLINE_EXCEEDED") != std::string::npos) {
        throw StatusError(StatusCode::kDeadlineExceeded, what);
      }
      if (cpu_result.detail.find("UNAVAILABLE") != std::string::npos) {
        throw StatusError(StatusCode::kUnavailable, what);
      }
      throw StatusError(StatusCode::kBusError, what);
    }
    throw std::runtime_error(what);
  }
  SocExecution exec;
  exec.cpu = cpu_result;
  exec.cycles = cpu_result.cycles;
  exec.ms = soc.cycles_to_ms(cpu_result.cycles);

  std::vector<std::uint8_t> raw(prepared.loadable().output_surface.span_bytes());
  dram.read_bytes(prepared.loadable().output_surface.base, raw);
  exec.output = prepared.loadable().unpack_output(raw);
  exec.predicted_class = compiler::argmax(exec.output);
  exec.census = soc.bus_census();
  exec.engine_stats = soc.nvdla().stats();
  return exec;
}

/// Serving-copy weight corruption: flips a deterministic bit of the
/// preloaded DRAM weight image (the shared chunks stay immutable), so the
/// verify pass below detects it before the run can produce an answer.
void inject_weight_flips(Dram& dram, const vp::WeightFile& weights,
                         fault::Injector& injector) {
  std::uint64_t total = 0;
  for (const auto& chunk : weights.chunks) total += chunk.bytes.size();
  const auto corruption = injector.fire_corruption(total);
  if (!corruption) return;
  std::uint64_t off = corruption->offset;
  for (const auto& chunk : weights.chunks) {
    if (off < chunk.bytes.size()) {
      std::uint8_t byte = 0;
      dram.read_bytes(chunk.addr + off, std::span<std::uint8_t>(&byte, 1));
      byte ^= static_cast<std::uint8_t>(1u << corruption->bit);
      dram.write_bytes(chunk.addr + off,
                       std::span<const std::uint8_t>(&byte, 1));
      return;
    }
    off -= chunk.bytes.size();
  }
}

/// Post-preload integrity check: the DRAM weight image must match the
/// immutable chunks bit for bit, or the run refuses to start (kDataLoss) —
/// the no-wrong-answers guarantee for the cycle-accurate platforms.
void verify_weight_image(const Dram& dram, const vp::WeightFile& weights) {
  std::vector<std::uint8_t> readback;
  for (const auto& chunk : weights.chunks) {
    readback.resize(chunk.bytes.size());
    dram.read_bytes(chunk.addr, readback);
    if (!std::equal(readback.begin(), readback.end(), chunk.bytes.begin(),
                    chunk.bytes.end())) {
      throw StatusError(
          StatusCode::kDataLoss,
          strfmt("weight image corruption detected at DRAM {:#x} ({} bytes)",
                 chunk.addr, chunk.bytes.size()));
    }
  }
}

/// Instruction budget for one cycle-accurate run: the configured cap,
/// tightened to a small allowance when an injected ISS stall fires — the
/// run then halts at kInstructionLimit and surfaces kDeadlineExceeded.
std::uint64_t run_budget(const FlowConfig& config) {
  std::uint64_t budget = config.run_instruction_budget != 0
                             ? config.run_instruction_budget
                             : UINT64_MAX;
  if (config.fault != nullptr && config.fault->fire(fault::Kind::kIssStall)) {
    constexpr std::uint64_t kStallBudget = 20'000;
    budget = std::min(budget, kStallBudget);
  }
  return budget;
}

}  // namespace

SocExecution execute_on_soc(const PreparedModel& prepared,
                            const FlowConfig& config) {
  soc::SocConfig soc_config;
  soc_config.clock = config.soc_clock;
  soc_config.nvdla = config.nvdla;
  soc_config.program_memory_bytes = config.program_memory_bytes;
  soc_config.dram_bytes = config.dram_bytes;
  soc_config.cpu.decode_cache = config.decode_cache;
  soc_config.fault = config.fault;
  soc::Soc soc(soc_config);

  // Program memory <- .mem image; DRAM <- weight file + input image.
  soc.program_memory().load_mem_text(prepared.program().mem_text);
  for (const auto& chunk : prepared.vp().weights.chunks) {
    soc.dram().write_bytes(chunk.addr, chunk.bytes);
  }
  if (config.fault != nullptr) {
    inject_weight_flips(soc.dram(), prepared.vp().weights, *config.fault);
    verify_weight_image(soc.dram(), prepared.vp().weights);
  }
  const auto input_bytes = prepared.loadable().pack_input(prepared.input);
  soc.dram().write_bytes(prepared.loadable().input_surface.base, input_bytes);

  const rv::RunResult result = soc.run(run_budget(config));
  return finish_execution(soc, soc.dram(), prepared, result);
}

SocExecution execute_on_system_top(const PreparedModel& prepared,
                                   const FlowConfig& config) {
  soc::SystemTopConfig top_config;
  top_config.soc.clock = config.soc_clock;
  top_config.soc.nvdla = config.nvdla;
  top_config.soc.program_memory_bytes = config.program_memory_bytes;
  top_config.soc.dram_bytes = config.dram_bytes;
  top_config.soc.cpu.decode_cache = config.decode_cache;
  top_config.soc.fault = config.fault;
  soc::SystemTop top(top_config);

  // Phase 1: the Zynq PS owns the DDR and preloads weights + input.
  top.switch_to_ps();
  top.ps_preload_weight_file(prepared.vp().weights);
  if (config.fault != nullptr) {
    inject_weight_flips(top.ddr(), prepared.vp().weights, *config.fault);
    verify_weight_image(top.ddr(), prepared.vp().weights);
  }
  const auto input_bytes = prepared.loadable().pack_input(prepared.input);
  top.ps_preload_backdoor(prepared.loadable().input_surface.base, input_bytes);

  // Phase 2: flip the SmartConnect and run the SoC.
  top.switch_to_soc();
  top.soc().program_memory().load_mem_text(prepared.program().mem_text);
  const rv::RunResult result = top.soc().run(run_budget(config));
  return finish_execution(top.soc(), top.ddr(), prepared, result);
}

namespace {

/// Everything input-independent that shapes a SoC-platform cycle count —
/// the record key of PlatformEnvelopes::platform_record: the NVDLA tree (it
/// sets the analytic timing), the wait mode, the memory sizes, and the
/// SoC clock. The clock matters on system_top — the CDC rescales DDR
/// latencies by the fabric/MIG clock ratio — so a re-clocked variant must
/// record its own envelope rather than reuse another clock's cycles.
std::string platform_key(Platform platform, const FlowConfig& config) {
  // decode_cache does not change the cycle count, but the recorded envelope
  // carries the CpuStats evidence (block hits, decoded blocks) of the run
  // that produced it, so cached/uncached variants keep distinct records.
  // Fault-armed variants key their own envelopes too: their recording runs
  // may carry injected watchdog latencies or truncated budgets, which must
  // never leak into a fault-free variant's record (or vice versa).
  return strfmt("{}|{}|wait={}|pm={}|dram={}|clk={}|dc={}|fault={}|budget={}",
                platform == Platform::kSoc ? "soc" : "system_top",
                config.nvdla.name,
                config.wait_mode == toolflow::WaitMode::kPoll ? "poll" : "wfi",
                config.program_memory_bytes, config.dram_bytes,
                config.soc_clock, config.decode_cache ? 1 : 0,
                config.fault != nullptr ? config.fault->plan().to_string()
                                        : "none",
                config.run_instruction_budget);
}

SocExecution platform_record(Platform platform, const PreparedModel& prepared,
                             const FlowConfig& config) {
  return prepared.envelopes().platform_record(
      platform_key(platform, config), [&] {
        return platform == Platform::kSoc
                   ? execute_on_soc(prepared, config)
                   : execute_on_system_top(prepared, config);
      });
}

}  // namespace

SocExecution replay_on(Platform platform, const PreparedModel& prepared,
                       const FlowConfig& config) {
  SocExecution exec = platform_record(platform, prepared, config);
  // Input-dependent results come from the functional replay; ms is
  // recomputed from the per-key recorded cycle count.
  exec.output = replay_output(prepared, config.fault.get());
  exec.predicted_class = compiler::argmax(exec.output);
  exec.ms = cycles_to_ms(exec.cycles, config.soc_clock);
  return exec;
}

void record_replay_envelope(Platform platform, const PreparedModel& prepared,
                            const FlowConfig& config) {
  (void)platform_record(platform, prepared, config);
}

float max_abs_diff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::runtime_error("max_abs_diff: size mismatch");
  }
  float max_err = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, std::fabs(a[i] - b[i]));
  }
  return max_err;
}

}  // namespace nvsoc::core
