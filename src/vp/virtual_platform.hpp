// NVDLA virtual platform (Fig. 3).
//
// Stands in for the QEMU + SystemC co-simulation of the NVDLA release: it
// owns a memory model and an NVDLA engine, runs the kernel driver over a
// compiled loadable, and records the two interface-level transaction
// streams the paper's toolflow consumes:
//   * nvdla.csb_adaptor — every register read/write (with read data), and
//   * nvdla.dbb_adaptor — every data-backbone burst.
// Traces are captured structurally (exact, fast) and can be rendered into
// the textual VP-log format for parity with the paper's Python scripts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/loadable.hpp"
#include "mem/dram.hpp"
#include "nvdla/engine.hpp"
#include "vp/kmd.hpp"

namespace nvsoc::vp {

struct CsbRecord {
  Addr addr = 0;
  std::uint32_t data = 0;  ///< write data, or read response data
  bool is_write = false;

  bool operator==(const CsbRecord&) const = default;
};

struct DbbRecord {
  Addr addr = 0;
  std::uint32_t len = 0;
  bool is_write = false;
};

struct VpTrace {
  std::vector<CsbRecord> csb;
  std::vector<DbbRecord> dbb;

  /// Render in the VP-log format the paper's scripts grep:
  ///   nvdla.csb_adaptor: addr=0x... data=0x... iswrite=N
  ///   nvdla.dbb_adaptor: addr=0x... len=N iswrite=N [data=<hex>]
  /// DBB payloads are only included when `dbb_payloads` is supplied
  /// (indexed like `dbb`) — they make the log large, as on the real VP.
  std::string to_log_text(
      const std::vector<std::vector<std::uint8_t>>* dbb_payloads
          = nullptr) const;
};

/// The preloadable DRAM image extracted from a VP run: every byte the
/// engine fetched before anything wrote it (weights, bias tables and the
/// input image) — the paper's "weight file", first occurrence kept.
struct WeightFile {
  struct Chunk {
    Addr addr = 0;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Chunk> chunks;

  std::uint64_t total_bytes() const;
  /// .bin container round-trip (what the Zynq PS loads into DDR).
  std::vector<std::uint8_t> to_bin() const;
  /// The reader half of the .bin weight format (round-trip tests).
  static WeightFile from_bin(std::span<const std::uint8_t> bin);

  /// Rewrite the bytes of [base, base + bytes.size()) wherever existing
  /// chunks cover that range, appending any uncovered remainder as a new
  /// chunk. This is the repack-input fast path: a new image is substituted
  /// into the preload image (the input surface) without re-running the
  /// virtual platform that captured the chunks.
  void overwrite(Addr base, std::span<const std::uint8_t> bytes);
};

struct VpRunResult {
  VpTrace trace;
  WeightFile weights;
  /// NVDLA cycles from driver start to the final acknowledged interrupt
  /// (the "number of clock cycles" column of Table III).
  Cycle total_cycles = 0;
  /// Decoded network output (softmax applied when the loadable asks).
  std::vector<float> output;
  nvdla::EngineStats engine_stats;
  std::vector<nvdla::OpRecord> op_records;
  KmdStats kmd_stats;
  nvdla::DbbStats dbb_stats;
  /// Decoded functional ops in launch order with their analytic timing —
  /// the raw material of a core::ReplaySchedule (the session moves them
  /// out when staging; see vp/replay_engine.hpp for the execution side).
  std::vector<nvdla::ReplayOp> replay_ops;
};

class VirtualPlatform {
 public:
  explicit VirtualPlatform(nvdla::NvdlaConfig config);

  /// Compile-side entry point: run `loadable` on `image` (planar floats),
  /// capturing traces and the weight file.
  VpRunResult run(const compiler::Loadable& loadable,
                  std::span<const float> image,
                  bool capture_dbb_payloads = false);

  /// DBB payloads of the last run (aligned with trace.dbb) when payload
  /// capture was requested; used by the textual-log weight-extraction path.
  const std::vector<std::vector<std::uint8_t>>& last_dbb_payloads() const {
    return dbb_payloads_;
  }

  /// Arms fault injection on the engine of every subsequent run() (CSB
  /// timeouts/errors, DBB bus errors -> StatusError out of run()). Serving
  /// paths only: staging/trace-recording runs construct their own
  /// fault-free platform.
  void set_fault_injector(std::shared_ptr<fault::Injector> injector) {
    fault_ = std::move(injector);
  }

  const nvdla::NvdlaConfig& config() const { return config_; }

 private:
  /// Direct TLM-style memory port for the DBB (the VP's fast memory, not
  /// the SoC fabric): bandwidth-limited by the configured DBB width.
  class DirectAxiRam final : public AxiTarget {
   public:
    DirectAxiRam(Dram& dram, const nvdla::NvdlaConfig& config)
        : dram_(dram), config_(config) {}
    AxiBurstResponse burst(const AxiBurstRequest& req) override;
    std::string_view name() const override { return "vp_axi_ram"; }

   private:
    Dram& dram_;
    const nvdla::NvdlaConfig& config_;
  };

  nvdla::NvdlaConfig config_;
  std::vector<std::vector<std::uint8_t>> dbb_payloads_;
  std::shared_ptr<fault::Injector> fault_;
};

}  // namespace nvsoc::vp
