#include "soc/soc.hpp"

#include <stdexcept>

namespace nvsoc::soc {

Soc::Soc(SocConfig config, BusTarget* external_memory)
    : config_(std::move(config)),
      pmem_(config_.program_memory_bytes),
      external_memory_(external_memory) {
  BusTarget* memory = external_memory_;
  if (memory == nullptr) {
    internal_dram_.emplace(config_.dram_bytes, config_.dram_timing);
    memory = &*internal_dram_;
  }

  // Arbiter guards the shared data memory between the two masters.
  arbiter_ = std::make_unique<DramArbiter>(*memory);

  // NVDLA wrapper: 64-bit DBB -> width converter -> arbiter DBB port.
  width_converter_ = std::make_unique<AxiWidthConverter>(
      arbiter_->port(MasterId::kNvdlaDbb));
  nvdla_ = std::make_unique<nvdla::Nvdla>(config_.nvdla, *width_converter_);
  if (config_.fault != nullptr) {
    nvdla_->set_fault_injector(config_.fault);
  }

  // Config path: AHB -> APB -> CSB.
  apb2csb_ = std::make_unique<ApbToCsbAdapter>(*nvdla_, config_.bridges);
  ahb2apb_ = std::make_unique<AhbToApbBridge>(*apb2csb_, config_.bridges);

  // Data path: AHB -> AXI -> arbiter CPU port.
  ahb2axi_ = std::make_unique<AhbToAxiBridge>(arbiter_->port(MasterId::kCpu),
                                              config_.bridges);

  // System-bus decoder with the paper's two slave regions.
  decoder_ = std::make_unique<SystemBusDecoder>();
  decoder_->add_region({addrmap::kNvdlaBase, addrmap::kNvdlaLast,
                        ahb2apb_.get(), /*relative_addressing=*/true,
                        "nvdla"});
  decoder_->add_region({addrmap::kDramBase, addrmap::kDramLast,
                        ahb2axi_.get(), /*relative_addressing=*/true,
                        "dram"});

  cpu_ = std::make_unique<rv::Cpu>(pmem_, *decoder_, config_.cpu);
}

Dram& Soc::dram() {
  if (!internal_dram_) {
    throw std::runtime_error("Soc: data memory is external (Fig. 4 set-up)");
  }
  return *internal_dram_;
}

rv::RunResult Soc::run(std::uint64_t max_instructions) {
  // Burst loop with the NVDLA interrupt line wired to the core. The line is
  // re-sampled between bursts; the core internally degenerates to
  // single-instruction bursts whenever interrupts are armed (and yields at
  // wfi/CSR boundaries), so a pending NVDLA completion is observed at
  // exactly the same instruction boundary as the per-step loop this
  // replaces. A WFI with no pending interrupt puts the core to sleep until
  // the next NVDLA completion event (the clock keeps running); with no
  // event in flight it is a genuine halt.
  rv::RunResult result;
  std::uint64_t executed = 0;
  while (executed < max_instructions) {
    cpu_->set_irq(nvdla_->irq_pending(cpu_->cycle()));
    rv::HaltReason reason = rv::HaltReason::kNone;
    executed += cpu_->step_burst(max_instructions - executed, reason);
    if (reason == rv::HaltReason::kWfi) {
      if (const auto wake = nvdla_->next_completion_after(cpu_->cycle())) {
        cpu_->advance_to(*wake);
        ++executed;  // the sleeping wfi attempt consumes an instruction slot
        continue;    // retry the wfi with the interrupt now pending
      }
    }
    if (reason != rv::HaltReason::kNone) {
      result.reason = reason;
      break;
    }
  }
  if (result.reason == rv::HaltReason::kNone) {
    result.reason = rv::HaltReason::kInstructionLimit;
  }
  result.cycles = cpu_->cycle();
  result.stats = cpu_->stats();
  result.detail = cpu_->halt_detail();
  return result;
}

SocBusCensus Soc::bus_census() const {
  SocBusCensus census;
  census.decoder = decoder_->stats();
  census.ahb2apb = ahb2apb_->stats();
  census.apb2csb = apb2csb_->stats();
  census.ahb2axi = ahb2axi_->stats();
  census.width_converter = width_converter_->stats();
  census.arbiter_cpu = arbiter_->master_stats(MasterId::kCpu);
  census.arbiter_dbb = arbiter_->master_stats(MasterId::kNvdlaDbb);
  census.dbb = nvdla_->dbb_stats();
  return census;
}

}  // namespace nvsoc::soc
