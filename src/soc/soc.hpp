// The SoC of Fig. 2: µRISC-V core + system bus (decoder + arbitration) +
// NVDLA wrapper (AHB->APB bridge, APB->CSB adapter, AHB->AXI bridge, AXI
// 64->32 data-width converter) + DRAM data memory + BRAM program memory.
//
// Address map (the paper's):
//   0x000000 - 0x0FFFFF    NVDLA configuration registers
//   0x100000 - 0x200FFFFF  DRAM data memory (512 MB)
//
// The core runs the bare-metal machine code produced by the toolflow;
// NVDLA register programming happens through plain load/store instructions
// across the decoder and bridges; the NVDLA's DBB shares the DRAM with the
// core through the arbiter. Data memory can optionally be an external port
// (SystemTop wires the Fig. 4 CDC/SmartConnect/MIG path there).
#pragma once

#include <memory>
#include <optional>

#include "bus/arbiter.hpp"
#include "bus/bridges.hpp"
#include "bus/decoder.hpp"
#include "bus/width_converter.hpp"
#include "mem/dram.hpp"
#include "mem/program_memory.hpp"
#include "nvdla/engine.hpp"
#include "riscv/cpu.hpp"

namespace nvsoc::soc {

struct SocConfig {
  Hertz clock = 100 * kMHz;  ///< system clock (Table II operating point)
  std::uint64_t program_memory_bytes = 4 * 1024 * 1024;
  std::uint64_t dram_bytes = 512ull * 1024 * 1024;
  nvdla::NvdlaConfig nvdla = nvdla::NvdlaConfig::small();
  rv::CpuConfig cpu;
  BridgeTiming bridges;
  DramTiming dram_timing;
  /// Deterministic fault injection armed on the NVDLA's CSB/DBB interfaces
  /// (nullptr = fault-free). Shared so concurrent platforms of one
  /// configured variant consume one decision sequence.
  std::shared_ptr<fault::Injector> fault;
};

/// Census of per-component traffic for the Fig. 2 bench.
struct SocBusCensus {
  BusStats decoder;
  BusStats ahb2apb;
  BusStats apb2csb;
  BusStats ahb2axi;
  BusStats width_converter;
  ArbiterMasterStats arbiter_cpu;
  ArbiterMasterStats arbiter_dbb;
  nvdla::DbbStats dbb;
};

class Soc {
 public:
  /// `external_memory`: when set, the SoC's data-memory port (downstream of
  /// the arbiter) connects there instead of the internal DRAM — the Fig. 4
  /// configuration. The external target must accept DRAM-relative addresses.
  explicit Soc(SocConfig config, BusTarget* external_memory = nullptr);

  // --- programming -----------------------------------------------------------
  ProgramMemory& program_memory() { return pmem_; }
  /// Internal DRAM backdoor; throws when external memory is wired.
  Dram& dram();
  bool has_internal_dram() const { return external_memory_ == nullptr; }

  // --- execution -------------------------------------------------------------
  /// Run the loaded program to completion (ebreak) or `max_instructions`.
  rv::RunResult run(std::uint64_t max_instructions = UINT64_MAX);

  // --- introspection -----------------------------------------------------------
  rv::Cpu& cpu() { return *cpu_; }
  nvdla::Nvdla& nvdla() { return *nvdla_; }
  const SocConfig& config() const { return config_; }
  SocBusCensus bus_census() const;

  double cycles_to_ms(Cycle cycles) const {
    return nvsoc::cycles_to_ms(cycles, config_.clock);
  }

 private:
  SocConfig config_;

  ProgramMemory pmem_;
  std::optional<Dram> internal_dram_;
  BusTarget* external_memory_;

  std::unique_ptr<DramArbiter> arbiter_;
  std::unique_ptr<AxiWidthConverter> width_converter_;
  std::unique_ptr<nvdla::Nvdla> nvdla_;
  std::unique_ptr<ApbToCsbAdapter> apb2csb_;
  std::unique_ptr<AhbToApbBridge> ahb2apb_;
  std::unique_ptr<AhbToAxiBridge> ahb2axi_;
  std::unique_ptr<SystemBusDecoder> decoder_;
  std::unique_ptr<rv::Cpu> cpu_;
};

}  // namespace nvsoc::soc
