// The NVDLA engine: CSB-programmable register file, ping-pong register
// groups, launch logic, interrupt unit (GLB) and the functional/cycle
// execution of the five op pipelines.
//
// Execution model. The simulator is transaction-driven: programming happens
// through timed CSB requests; writing D_OP_ENABLE launches the producer
// register group's operation at the enable's completion time. The engine
// performs the op's DMA traffic through its DBB master (so data really
// lands in the SoC DRAM through the width converter and arbiter) and
// computes the op's completion cycle from the analytic cycle model. Status
// and interrupt registers answer reads *as of the request's timestamp*, so
// a bare-metal polling loop on the µRISC-V spins for exactly the modelled
// number of cycles — the mechanism behind Table II.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "nvdla/config.hpp"
#include "nvdla/dbb.hpp"
#include "nvdla/ops.hpp"
#include "nvdla/regmap.hpp"
#include "nvdla/replay.hpp"

namespace nvsoc::nvdla {

/// One completed (or in-flight) hardware-layer record for benches and
/// EXPERIMENTS.md.
struct OpRecord {
  Unit unit = Unit::kCount;  ///< launching unit (kCacc for the conv chain)
  Cycle launch = 0;
  Cycle complete = 0;
  OpCost cost;

  Cycle duration() const { return complete - launch; }
};

struct EngineStats {
  std::uint64_t csb_reads = 0;
  std::uint64_t csb_writes = 0;
  std::uint64_t conv_ops = 0;
  std::uint64_t sdp_ops = 0;  ///< standalone SDP ops
  std::uint64_t pdp_ops = 0;
  std::uint64_t cdp_ops = 0;
  std::uint64_t bdma_ops = 0;

  std::uint64_t total_ops() const {
    return conv_ops + sdp_ops + pdp_ops + cdp_ops + bdma_ops;
  }
};

class Nvdla final : public CsbTarget {
 public:
  /// `dbb_port`: the memory-side AXI target of the DBB interface.
  Nvdla(NvdlaConfig config, AxiTarget& dbb_port);

  // --- CSB slave ----------------------------------------------------------
  CsbResponse csb_access(const CsbRequest& req) override;

  // --- interrupt line -------------------------------------------------------
  /// Level of the (maskable) interrupt line as of `now`.
  bool irq_pending(Cycle now) const;

  // --- introspection --------------------------------------------------------
  const NvdlaConfig& config() const { return config_; }
  const EngineStats& stats() const { return stats_; }
  const std::vector<OpRecord>& op_records() const { return op_records_; }
  const DbbStats& dbb_stats() const { return dbb_.stats(); }

  /// Completion cycle of the most recently launched op (0 if none).
  Cycle last_completion() const { return last_completion_; }
  /// Earliest op completion strictly after `now`, if any op is in flight.
  std::optional<Cycle> next_completion_after(Cycle now) const;

  /// VP hook: observe every DBB transfer (weights/feature traffic).
  void set_dbb_observer(DbbMaster::Observer observer) {
    dbb_.set_observer(std::move(observer));
  }

  /// Arms deterministic fault injection on the engine's interfaces: CSB
  /// register-read timeouts/error responses here, DBB bus errors in the
  /// forwarded DbbMaster. nullptr disarms.
  void set_fault_injector(std::shared_ptr<fault::Injector> injector) {
    fault_ = injector;
    dbb_.set_fault_injector(std::move(injector));
  }

  /// VP hook: receive every launched op as a ReplayOp (decoded descriptors
  /// + analytic timing), in launch order — the recording side of the
  /// functional replay engine (nvdla/replay.hpp).
  using OpRecorder = std::function<void(const ReplayOp&)>;
  void set_op_recorder(OpRecorder recorder) {
    op_recorder_ = std::move(recorder);
  }

 private:
  struct UnitState {
    std::uint32_t pointer = 0;  ///< producer group select (bit 0)
    std::array<std::array<std::uint32_t, kGroupRegs>, kNumGroups> regs{};
    std::array<bool, kNumGroups> armed{};
  };

  /// A posted interrupt, pending until a W1C write erases it.
  struct IntrEvent {
    std::uint32_t bit = 0;
    Cycle at = 0;
  };

  UnitState& unit(Unit u) { return units_[static_cast<std::size_t>(u)]; }
  const UnitState& unit(Unit u) const {
    return units_[static_cast<std::size_t>(u)];
  }

  std::uint32_t reg(Unit u, unsigned group, Addr offset) const;

  CsbResponse glb_access(const CsbRequest& req);
  std::uint32_t intr_status_at(Cycle now) const;

  /// Launch checks after an enable write completes at `now` on `group`.
  void try_launch(Unit enabled_unit, unsigned group, Cycle now);

  // Op decoding from a register group.
  ConvOp decode_conv(unsigned group) const;
  SdpOp decode_sdp(unsigned group) const;
  PdpOp decode_pdp(unsigned group) const;
  CdpOp decode_cdp(unsigned group) const;
  BdmaOp decode_bdma(unsigned group) const;

  // Op execution (functional + timing). Returns completion cycle.
  Cycle run_conv(unsigned group, Cycle start);
  Cycle run_sdp_standalone(unsigned group, Cycle start);
  Cycle run_pdp(unsigned group, Cycle start);
  Cycle run_cdp(unsigned group, Cycle start);
  Cycle run_bdma(unsigned group, Cycle start);

  void post_interrupt(glb::IntrSource source, unsigned group, Cycle at);
  void record_op(Unit u, Cycle launch, Cycle complete, const OpCost& cost);

  SurfaceDesc surface_from_regs(Unit u, unsigned group, Addr addr_reg,
                                Addr line_reg, Addr surf_reg, CubeDims dims,
                                Precision precision) const;

  NvdlaConfig config_;
  DbbMaster dbb_;
  std::shared_ptr<fault::Injector> fault_;

  std::array<UnitState, kNumUnits> units_{};
  std::uint32_t intr_mask_ = 0;
  std::vector<IntrEvent> intr_events_;

  // Shared-resource busy tracking (the conv chain owns SDP while flying).
  Cycle conv_busy_until_ = 0;
  Cycle sdp_busy_until_ = 0;
  Cycle pdp_busy_until_ = 0;
  Cycle cdp_busy_until_ = 0;
  Cycle bdma_busy_until_ = 0;
  Cycle last_completion_ = 0;

  EngineStats stats_;
  std::vector<OpRecord> op_records_;
  OpRecorder op_recorder_;
};

}  // namespace nvsoc::nvdla
