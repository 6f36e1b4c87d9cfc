// µRISC-V core model: RV32IM, machine mode, 32-bit AHB-Lite instruction and
// data masters, and a 4-stage (IF/ID/EX/WB) pipeline timing model matching
// the Codasip µRISC-V of the paper.
//
// Timing model. The core is in-order and scalar; in steady state it retires
// one instruction per cycle. Deviations from 1 CPI:
//   * taken control transfer  -> flush of IF/ID   (+2 cycles)
//   * load-use dependency     -> one bubble       (+1 cycle)
//   * data-memory access      -> stalls for the bus latency beyond the
//                                single EX cycle (AHB wait states; this is
//                                where the NVDLA CSB path cost appears)
//   * MUL                     -> +2 (iterative 2-stage multiplier)
//   * DIV/REM                 -> +32 (bit-serial divider)
// Instruction fetch hits single-cycle BRAM program memory and is fully
// pipelined, so it adds no stalls unless the program memory reports wait
// states.
//
// Execution is staged (fetch / decode / execute) and, by default, dispatched
// from a decoded-basic-block cache: blocks are built on first execution,
// ended at control transfers and system ops, and replayed as a tight loop
// that only touches the bus for data accesses. Cached dispatch reproduces
// the per-step cycle accounting exactly (branch penalties, load-use bubbles,
// memory stall cycles); the per-instruction path stays reachable via
// `CpuConfig::decode_cache = false` as the differential-testing oracle. The
// cache stays coherent through a `CodeWriteSource` listener on the
// instruction memory; when the instruction memory does not implement that
// interface the cache silently stays off (correctness over speed).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "bus/bus_types.hpp"
#include "riscv/decode_cache.hpp"
#include "riscv/isa.hpp"

namespace nvsoc::rv {

struct CpuConfig {
  Addr reset_pc = 0;
  Cycle branch_taken_penalty = 2;
  Cycle load_use_penalty = 1;
  Cycle mul_extra_cycles = 2;
  Cycle div_extra_cycles = 32;
  /// When true, ebreak halts the simulation (bare-metal convention of the
  /// generated programs); when false it traps via mtvec.
  bool ebreak_halts = true;
  /// Dispatch from the decoded-basic-block cache (bit-identical timing;
  /// requires the instruction memory to be a CodeWriteSource). Disable to
  /// force the per-instruction fetch/decode path.
  bool decode_cache = true;
};

enum class HaltReason {
  kNone = 0,        ///< still running
  kEbreak,          ///< hit ebreak (normal end of a bare-metal program)
  kEcall,           ///< ecall with no trap handler installed
  kInvalidInstruction,
  kBusError,
  kWfi,             ///< wfi with interrupts disabled and no pending IRQ
  kInstructionLimit,
};

const char* halt_reason_name(HaltReason reason);

struct CpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t load_use_stalls = 0;
  std::uint64_t memory_stall_cycles = 0;
  std::uint64_t traps = 0;
  // Decode-cache evidence. These are host-side bookkeeping, not simulated
  // state: they are the only CpuStats fields allowed to differ between a
  // cached and an uncached run of the same program.
  std::uint64_t decoded_blocks = 0;
  std::uint64_t block_hits = 0;
  std::uint64_t block_invalidations = 0;
};

struct RunResult {
  HaltReason reason = HaltReason::kNone;
  Cycle cycles = 0;
  CpuStats stats;      ///< final-state snapshot; shares truth with Cpu::stats()
  std::string detail;  ///< populated for error halts

  std::uint64_t instructions() const { return stats.instructions; }
  double cpi() const {
    return stats.instructions == 0
               ? 0.0
               : static_cast<double>(cycles) /
                     static_cast<double>(stats.instructions);
  }
};

class Cpu {
 public:
  Cpu(BusTarget& imem, BusTarget& dmem, CpuConfig config = {});
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Execute a single instruction. Returns kNone while running. The
  /// single-step reference: tests stop the core at an exact instruction.
  HaltReason step();

  /// Execute up to `max_instructions` instructions as one burst, stopping
  /// early at any halt or at any boundary where the interrupt/irq state
  /// must be re-sampled by the caller (armed interrupts, wfi, CSR ops,
  /// mret). Returns the number of instructions retired and sets `reason`
  /// (kNone when the burst merely ran out or yielded for re-sampling).
  /// Equivalent, halt-for-halt and cycle-for-cycle, to calling step() in a
  /// loop with a constant irq line.
  std::uint64_t step_burst(std::uint64_t max_instructions, HaltReason& reason);

  /// Run until halt or `max_instructions` retired.
  RunResult run(std::uint64_t max_instructions = UINT64_MAX);

  void reset();

  /// True when the decoded-block cache is live (config asked for it and the
  /// instruction memory supports write notification).
  bool decode_cache_active() const { return cache_on_; }

  // --- architectural state ------------------------------------------------
  Word reg(unsigned index) const { return regs_[index]; }
  void set_reg(unsigned index, Word value) {
    if (index != 0) regs_[index] = value;
  }
  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }

  Cycle cycle() const { return cycle_; }
  /// Advance the core's clock without executing (models sleeping in WFI
  /// until an external wake event; never moves time backwards).
  void advance_to(Cycle cycle) { cycle_ = std::max(cycle_, cycle); }
  const CpuStats& stats() const { return stats_; }
  const std::string& halt_detail() const { return halt_detail_; }

  /// External interrupt line (NVDLA GLB IRQ). Level-sensitive.
  void set_irq(bool level) { irq_line_ = level; }
  bool irq() const { return irq_line_; }

  /// Machine CSR access for tests.
  Word csr_read(std::uint16_t csr) const;

 private:
  HaltReason execute(const Decoded& d);
  HaltReason take_trap(Word cause, Word tval);
  Word csr_read_write(std::uint16_t csr, Word value, bool write);
  /// Legacy fetch/decode/execute of one instruction (no boundary interrupt
  /// check — step_burst has already done it).
  HaltReason dispatch_uncached();
  /// Fetch + decode a basic block starting at `start`; nullptr when the
  /// first fetch faults (the caller falls back to the uncached path so the
  /// fault surfaces with identical detail).
  const DecodedBlock* build_block(Addr start);
  void on_code_write(Addr base, std::uint64_t bytes);

  BusTarget& imem_;
  BusTarget& dmem_;
  CpuConfig config_;

  std::array<Word, 32> regs_{};
  Addr pc_ = 0;
  Cycle cycle_ = 0;

  // machine CSRs
  Word mstatus_ = 0;
  Word mie_ = 0;
  Word mtvec_ = 0;
  Word mepc_ = 0;
  Word mcause_ = 0;
  Word mip_ = 0;

  bool irq_line_ = false;
  std::uint8_t pending_load_rd_ = 0;  ///< 0 = none (x0 cannot be a dest)

  // Decoded-block cache (tentpole of ROADMAP direction 3 tier (a)). The
  // write listener is registered weakly: dropping code_listener_ in ~Cpu
  // retires the registration without touching the memory, so the Cpu and
  // its instruction memory may be destroyed in either order.
  bool cache_on_ = false;
  DecodeCache cache_;
  const DecodedBlock* cur_block_ = nullptr;  ///< dispatch cursor
  std::size_t cur_index_ = 0;
  std::shared_ptr<CodeWriteSource::Listener> code_listener_;

  CpuStats stats_;
  std::string halt_detail_;
};

}  // namespace nvsoc::rv
