// The complete paper flow as plain functions — the machinery the runtime
// backends wrap. Callers program against `src/runtime/` (InferenceSession
// for staged/memoized preparation, BackendRegistry / ExecutionBackend for
// execution), which adds lazy stage reuse, batching and StatusOr error
// reporting on top of these entry points.
//
// Offline (Fig. 1): network -> synthetic/trained weights -> INT8
// calibration -> NVDLA compiler -> virtual-platform execution with CSB/DBB
// tracing -> configuration file -> RISC-V assembly -> machine code + weight
// file.
//
// Online (Fig. 2/4): preload DRAM with the weight file and input image,
// load program memory with the machine code, release the µRISC-V core, and
// read the result cube back when it hits ebreak.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "compiler/calibration.hpp"
#include "compiler/compile.hpp"
#include "compiler/network.hpp"
#include "compiler/reference.hpp"
#include "compiler/weights.hpp"
#include "fault/fault.hpp"
#include "soc/soc.hpp"
#include "soc/system_top.hpp"
#include "toolflow/asm_emitter.hpp"
#include "toolflow/config_file.hpp"
#include "vp/replay_engine.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc::core {

struct FlowConfig {
  nvdla::NvdlaConfig nvdla = nvdla::NvdlaConfig::small();
  nvdla::Precision precision = nvdla::Precision::kInt8;
  std::uint64_t weight_seed = 42;
  std::uint64_t input_seed = 7;
  Hertz soc_clock = 100 * kMHz;  ///< Table II operating point
  /// How the generated program waits for layer completion: busy-polling
  /// (the paper's flow) or WFI + the NVDLA interrupt line (extension).
  toolflow::WaitMode wait_mode = toolflow::WaitMode::kPoll;
  /// BRAM program memory capacity (runtime backends reject machine code
  /// that overflows it before execution).
  std::uint64_t program_memory_bytes = 4 * 1024 * 1024;
  std::uint64_t dram_bytes = 512ull * 1024 * 1024;
  /// ISS decoded-block cache on the cycle-accurate path. Cycle counts and
  /// outputs are bit-identical either way; `false` forces the
  /// per-instruction oracle (`?decode_cache=off` on the backend spec).
  bool decode_cache = true;
  /// Deterministic fault injection for the serving path (`?fault=` on the
  /// backend spec). Armed per configured variant; nullptr (the default)
  /// means a fault-free platform. Staging/trace-recording runs never see
  /// the injector — corruption is only injected where detection exists.
  std::shared_ptr<fault::Injector> fault;
  /// Upper bound on retired instructions per cycle-accurate SoC run
  /// (0 = unlimited). Exhaustion halts the ISS with kInstructionLimit,
  /// surfaced as a typed kDeadlineExceeded — the mechanism behind injected
  /// ISS stalls and runaway-program containment.
  std::uint64_t run_instruction_budget = 0;
};

/// Input-independent artifacts of the offline frontend: network-level
/// products computed once per (network, config) and never mutated again.
/// Shared read-only — behind shared_ptr<const> — between every
/// PreparedModel that derives from them, so batch workers copy pointers,
/// not the multi-MB weight tensors.
struct FrontendArtifacts {
  std::string model_name;
  /// Hardware tree the flow targets (consumers check it against their own
  /// configuration before reusing downstream artifacts).
  nvdla::NvdlaConfig nvdla;
  compiler::NetWeights weights;
  compiler::CalibrationTable calibration;
  compiler::Loadable loadable;
};

/// Result of running the bare-metal program on the SoC model. CPU-side
/// counters (instructions, stalls, decode-cache evidence) live in
/// `cpu.stats` — the RunResult snapshot is the single source of truth.
struct SocExecution {
  rv::RunResult cpu;
  Cycle cycles = 0;
  double ms = 0.0;
  std::vector<float> output;
  std::size_t predicted_class = 0;
  soc::SocBusCensus census;
  nvdla::EngineStats engine_stats;
};

/// Input-independent full-platform execution envelopes for the
/// `?mode=replay` SoC backends, recorded by the first cycle-accurate run
/// per platform key (backend kind + flow knobs that shape the cycle
/// count). An envelope is a function of the bare-metal program and the key
/// alone, never of the image, so the set lives beside the program it
/// measured (TraceArtifacts) and outlives the replay schedule: a budget
/// eviction drops the schedule, and the restage that re-traces the VP
/// finds every envelope already recorded.
class PlatformEnvelopes {
 public:
  /// `recorded` is bumped once per envelope computed — the owner's
  /// evidence counter, shared so it outlives either of them.
  explicit PlatformEnvelopes(
      std::shared_ptr<std::atomic<std::uint32_t>> recorded)
      : recorded_(std::move(recorded)) {}

  /// The envelope for `key`, computed by `compute` on first use. Concurrent
  /// callers of one key block until the record exists; other keys stay
  /// available. A throwing `compute` leaves the key unrecorded, so a retry
  /// computes again. The record carries cycles and platform stats only —
  /// output/predicted_class are input-dependent and left to the functional
  /// replay.
  SocExecution platform_record(
      const std::string& key,
      const std::function<SocExecution()>& compute) const;

  /// How many envelopes are recorded (tests use it to assert that
  /// prepare_async staged the `?mode=replay` envelope eagerly, off the
  /// serving path).
  std::size_t platform_record_count() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Heap bytes of the recorded envelopes — what a model keeps resident
  /// while its schedule is evicted (0 until the first record lands).
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_acquire); }

 private:
  struct PlatformOnce {
    Mutex mutex;
    bool ready GUARDED_BY(mutex) = false;
    SocExecution exec GUARDED_BY(mutex);
  };
  mutable Mutex platforms_mutex_;
  /// Node-based on purpose: records keep a stable address once created.
  mutable std::map<std::string, std::unique_ptr<PlatformOnce>> platforms_
      GUARDED_BY(platforms_mutex_);
  /// Published when a record lands, so the accessors never wait on a
  /// recording run in progress.
  mutable std::atomic<std::size_t> count_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  std::shared_ptr<std::atomic<std::uint32_t>> recorded_;
};

/// Artifacts of one virtual-platform trace. The CSB register stream is
/// input-independent, so the configuration file, the bare-metal program
/// and the weight-file preload image captured here serve *every* image of
/// the session, not just the one that was traced. Immutable once built and
/// shared read-only like FrontendArtifacts; `vp.output`/`vp.total_cycles`
/// describe the traced image specifically (see
/// PreparedModel::vp_matches_input).
struct TraceArtifacts {
  vp::VpRunResult vp;                   ///< VP execution + traces
  toolflow::ConfigFile config_file;
  toolflow::BareMetalProgram program;   ///< assembly + machine code
  /// The envelopes measured from `program`. A restage that reuses the
  /// program (same CSB stream) shares this set rather than starting one.
  std::shared_ptr<const PlatformEnvelopes> envelopes;
};

/// The recorded replay schedule of one (network, hardware-tree) pair — the
/// third immutable core next to FrontendArtifacts/TraceArtifacts, shared
/// via shared_ptr<const> by every PreparedModel snapshot of a session.
///
/// The schedule is input-independent (the paper's bare-metal-flow insight:
/// same CSB programming, same analytic timing for every image), so after
/// the one full cycle-accurate run that recorded it, any image can be
/// served by replaying `ops` functionally and reporting the recorded
/// cycles — bit-identical to a full re-run, without the ISS, the KMD, bus
/// arbitration or trace capture.
struct ReplaySchedule {
  /// The engine's constructor only stores `config`: no arena exists until
  /// the first replay, so a cold schedule holds no arena bytes.
  explicit ReplaySchedule(const nvdla::NvdlaConfig& config) : engine_(config) {}

  /// Decoded functional ops in launch order, with analytic timing.
  std::vector<nvdla::ReplayOp> ops;
  /// KMD-driven VP execution time (driver start to last acknowledged
  /// interrupt) — what the `vp` backend reports per image.
  Cycle vp_total_cycles = 0;
  /// Integrity canary: FNV-1a over the recorded op bytes, frozen by
  /// make_replay_schedule. ops_intact() recomputes and compares — the
  /// session's golden probe quarantines a schedule whose ops were
  /// silently corrupted in memory.
  std::uint64_t ops_checksum = 0;
  /// Fault detection: the golden probe's first canary.
  bool ops_intact() const;

  /// The schedule's session-lifetime functional replay engine, built with
  /// the schedule: it keeps one preloaded arena per concurrently replaying
  /// worker and resets — not rebuilds — them between images (see
  /// vp/replay_engine.hpp). A schedule serves exactly one compiled network,
  /// so the engine's arenas always match the caller's loadable. `config` is
  /// unused: the engine already carries the tree the schedule was made for.
  vp::ReplayEngine& engine(const nvdla::NvdlaConfig& /*config*/) const {
    return engine_;
  }

  /// How many functional replays executed against this schedule (all
  /// consumers: session runs and pooled snapshots alike).
  std::uint32_t replay_count() const {
    return replays_.load(std::memory_order_relaxed);
  }
  void note_replay() const {
    replays_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- byte accounting (the session's replay-budget eviction input) --------

  /// Heap bytes of the recorded schedule itself: the fixed-size op
  /// descriptors plus the conv ops' packed weights — the cost of keeping a
  /// cold variant *staged* after its arenas are dropped.
  std::uint64_t schedule_bytes() const;

  /// Bytes currently held by the replay engine's arenas (0 until the first
  /// replay builds one).
  std::uint64_t resident_arena_bytes() const {
    return engine_.resident_bytes();
  }

  /// Drop every checked-in replay arena, returning the bytes freed.
  /// Replays in flight keep their checked-out arenas (they return to the
  /// pool afterwards, reclaimable by a later call); the schedule and its
  /// engine survive, and the next replay rebuilds an arena from the
  /// loadable transparently. The session's byte-budget eviction drops
  /// these before it ever considers dropping the schedule itself.
  std::uint64_t release_arenas() const {
    return engine_.release_free_arenas();
  }

 private:
  /// Internally synchronized, so every accessor above may reach it from a
  /// const schedule on any thread.
  mutable vp::ReplayEngine engine_;
  mutable std::atomic<std::uint32_t> replays_{0};
};

/// Everything the offline flow produces for one network + input.
///
/// Split into the shared immutable cores above plus a small per-input
/// repack surface (the input tensor and its FP32 reference). Copying a
/// PreparedModel — what every parallel batch worker does — therefore
/// copies three shared_ptrs and the input-sized vectors only; the weight
/// file, trace, program bytes and replay schedule are shared, never
/// duplicated.
struct PreparedModel {
  std::shared_ptr<const FrontendArtifacts> frontend;
  std::shared_ptr<const TraceArtifacts> tail;
  std::shared_ptr<const ReplaySchedule> replay;

  // --- per-input repack surface (the only mutable state) -------------------
  std::vector<float> input;             ///< planar float image
  /// FP32 golden output for `input`. Lazily maintained: the serving hot
  /// paths (pooled submit tasks, the repack fast path) leave it empty —
  /// it is a validation artifact, not an inference dependency — and
  /// InferenceSession::prepare()/prepared() fill it on demand.
  std::vector<float> reference_output;

  /// Whether the shared trace was produced by running the virtual platform
  /// on `input`. The repack-input fast path substitutes a new image
  /// without replaying the VP (the register stream — hence config file and
  /// program — is input-independent), which leaves `vp().output`
  /// describing the *traced* image; backends that report the accelerator's
  /// functional output (`vp`, `linux_baseline`) replay the recorded
  /// schedule on every run while this is false instead of returning the
  /// stale tensor.
  bool vp_matches_input = true;

  // --- views into the shared cores (valid once the stage is staged) --------
  bool has_frontend() const { return frontend != nullptr; }
  bool has_tail() const { return tail != nullptr; }
  bool has_replay() const { return replay != nullptr; }

  const std::string& model_name() const { return frontend->model_name; }
  const nvdla::NvdlaConfig& nvdla() const { return frontend->nvdla; }
  const compiler::NetWeights& weights() const { return frontend->weights; }
  const compiler::CalibrationTable& calibration() const {
    return frontend->calibration;
  }
  const compiler::Loadable& loadable() const { return frontend->loadable; }
  const vp::VpRunResult& vp() const { return tail->vp; }
  const toolflow::ConfigFile& config_file() const {
    return tail->config_file;
  }
  const toolflow::BareMetalProgram& program() const { return tail->program; }
  const PlatformEnvelopes& envelopes() const { return *tail->envelopes; }
  const ReplaySchedule& replay_schedule() const { return *replay; }

  /// The DRAM preload image for the *current* input: the shared weight
  /// file with this model's input surface patched in. Materializes a copy
  /// (the shared trace is immutable) — meant for data-product exports and
  /// parity checks; the execution paths write the packed input over the
  /// preloaded surface directly instead of copying megabytes per run.
  vp::WeightFile preload_weight_file() const;
};

/// Build the replay-schedule core from a freshly captured VP run on the
/// `config` tree, moving the recorded ops out of it (the trace core does
/// not need them), and pack each int8 conv op's weights from `loadable`'s
/// weight blob once for the conv kernel (nvdla::pack_conv_weights).
std::shared_ptr<const ReplaySchedule> make_replay_schedule(
    vp::VpRunResult& vp_result, const compiler::Loadable& loadable,
    const nvdla::NvdlaConfig& config);

/// Functional replay of the recorded schedule for `prepared`'s current
/// input: DMA payload movement plus op math only, on a fresh replay
/// memory. Output is bit-identical to a full VP re-run on the same image;
/// the accompanying cycle count is the schedule's recorded
/// `vp_total_cycles`. Requires has_replay(). Thread-safe (builds all state
/// locally; only bumps the schedule's replay counter). `injector` (may be
/// nullptr) arms per-replay fault injection: replay failures surface as
/// StatusError(kUnavailable), detected arena corruption as
/// StatusError(kDataLoss).
std::vector<float> replay_output(const PreparedModel& prepared,
                                 fault::Injector* injector = nullptr);

/// Execute on the standalone SoC (Fig. 2, internal DRAM model).
SocExecution execute_on_soc(const PreparedModel& prepared,
                            const FlowConfig& config);

/// Execute on the full board set-up (Fig. 4: Zynq-PS preload through the
/// SmartConnect, CDC to the MIG DDR4, then the SoC runs).
SocExecution execute_on_system_top(const PreparedModel& prepared,
                                   const FlowConfig& config);

/// The two SoC platforms the bare-metal program runs on.
enum class Platform {
  kSoc,        ///< Fig. 2: standalone SoC, internal DRAM model
  kSystemTop,  ///< Fig. 4: Zynq-PS preload, SmartConnect, CDC, MIG DDR4
};

/// Replay-mode execution on a SoC platform (`?mode=replay`): the first
/// call per (platform, flow) key runs the full cycle-accurate simulation
/// and records its input-independent envelope (cycles, bus census, engine
/// and CPU stats) in the trace core's PlatformEnvelopes; every later call
/// replays the functional ops for the output and reports the recorded
/// envelope — bit-identical to what a full re-run would produce, at
/// functional-op cost. Requires has_replay() (callers fall back to the
/// full executors otherwise).
SocExecution replay_on(Platform platform, const PreparedModel& prepared,
                       const FlowConfig& config);

/// Eagerly record the input-independent `?mode=replay` envelope for the
/// given platform + flow — the same record the first replay_on call would
/// produce lazily. Called from staging paths (prepare_async, the backends'
/// stage() hook) so the one full cycle-accurate recording run happens off
/// the serving hot path instead of stalling the first pooled batch.
/// Idempotent per (platform, flow) key; requires has_replay().
void record_replay_envelope(Platform platform, const PreparedModel& prepared,
                            const FlowConfig& config);

/// Maximum |a-b| between two tensors (validation helper).
float max_abs_diff(std::span<const float> a, std::span<const float> b);

}  // namespace nvsoc::core
