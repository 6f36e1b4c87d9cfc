// SoC integration tests: the complete bare-metal loop (Fig. 1 + Fig. 2)
// through the runtime API, the Fig. 4 board set-up, bus census sanity,
// FPGA resource table, and the Linux-baseline shape properties.
#include <gtest/gtest.h>

#include "core/bare_metal_flow.hpp"
#include "fpga/resources.hpp"
#include "models/models.hpp"
#include "runtime/inference_session.hpp"

namespace nvsoc {
namespace {

/// LeNet session shared across the suite (the staged offline flow runs
/// once; every backend reuses the same prepared artifacts).
runtime::InferenceSession& lenet() {
  static runtime::InferenceSession session(models::lenet5());
  return session;
}

runtime::ExecutionResult run_or_die(runtime::InferenceSession& session,
                                    const std::string& backend) {
  auto result = session.run(backend);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

TEST(Flow, PreparationProducesAllArtifacts) {
  const auto& p = lenet().prepared();
  EXPECT_EQ(p.model_name(), "lenet5");
  EXPECT_FALSE(p.loadable().ops.empty());
  EXPECT_FALSE(p.config_file().commands.empty());
  EXPECT_FALSE(p.program().assembly.empty());
  EXPECT_GT(p.program().image.size_words(), 100u);
  EXPECT_GT(p.vp().weights.total_bytes(), 400000u);  // ~431k INT8 params
  EXPECT_EQ(p.reference_output.size(), 10u);
}

TEST(Flow, SocExecutionMatchesVirtualPlatformBitExactly) {
  // The central correctness claim: the generated bare-metal program running
  // on the µRISC-V drives NVDLA to the exact same result as the VP run the
  // trace was captured from.
  const auto exec = run_or_die(lenet(), "soc");
  ASSERT_TRUE(exec.soc.has_value());
  EXPECT_EQ(exec.soc->cpu.reason, rv::HaltReason::kEbreak);
  EXPECT_EQ(core::max_abs_diff(lenet().prepared().vp().output, exec.output),
            0.0f);
  EXPECT_EQ(exec.predicted_class,
            compiler::argmax(lenet().prepared().reference_output));
}

TEST(Flow, SystemTopMatchesSocFunctionally) {
  const auto on_soc = run_or_die(lenet(), "soc");
  const auto on_top = run_or_die(lenet(), "system_top");
  EXPECT_EQ(on_soc.output, on_top.output);
  // The Fig. 4 path (CDC + SmartConnect + MIG) costs extra cycles.
  EXPECT_GT(on_top.cycles, on_soc.cycles);
  // ... but within 2x: the fabric is pipelined, not a serial bottleneck.
  EXPECT_LT(on_top.cycles, on_soc.cycles * 2);
}

TEST(Flow, LeNetLatencyInPaperBallpark) {
  const auto exec = run_or_die(lenet(), "system_top");
  // Table II: 4.8 ms at 100 MHz. The model must land within 50%.
  EXPECT_GT(exec.ms, 2.4);
  EXPECT_LT(exec.ms, 7.2);
}

TEST(Flow, BusCensusIsConsistent) {
  const auto exec = run_or_die(lenet(), "soc");
  ASSERT_TRUE(exec.soc.has_value());
  const auto& c = exec.soc->census;
  // Every CSB transfer went through decoder -> ahb2apb -> apb2csb.
  EXPECT_EQ(c.ahb2apb.transfers(), c.apb2csb.transfers());
  EXPECT_GE(c.decoder.transfers(),
            c.ahb2apb.transfers() + c.ahb2axi.transfers());
  // All NVDLA data traffic crossed the width converter into the arbiter.
  EXPECT_EQ(c.width_converter.bytes(), c.dbb.bytes_read + c.dbb.bytes_written);
  EXPECT_GT(c.arbiter_dbb.grants, 0u);
  // The config path saw every register write of the configuration file.
  EXPECT_GE(c.apb2csb.writes,
            lenet().prepared().config_file().write_count());
}

TEST(Flow, PollingLoopsSpinUntilCompletion) {
  const auto exec = run_or_die(lenet(), "soc");
  ASSERT_TRUE(exec.soc.has_value());
  // The CPU must have read the interrupt-status register far more often
  // than the trace's read_reg count (polling), and branched accordingly.
  EXPECT_GT(exec.soc->census.apb2csb.reads,
            lenet().prepared().config_file().read_count() * 10);
  EXPECT_GT(exec.soc->cpu.stats.taken_branches, 100u);
}

TEST(Flow, LeNetSimulatedStatisticsArePinned) {
  // Every simulated number of the LeNet-5 bare-metal run, pinned to its
  // recorded value: a change that only speeds up the simulator must leave
  // all of them identical.
  const auto exec =
      core::execute_on_soc(lenet().prepared(), lenet().config());
  EXPECT_EQ(exec.cycles, 369783u);
  EXPECT_EQ(exec.predicted_class, 8u);
  EXPECT_EQ(exec.cpu.stats.instructions, 67830u);

  const auto& engine = exec.engine_stats;
  EXPECT_EQ(engine.csb_reads, 33421u);
  EXPECT_EQ(engine.csb_writes, 235u);
  EXPECT_EQ(engine.conv_ops, 4u);
  EXPECT_EQ(engine.sdp_ops, 0u);
  EXPECT_EQ(engine.pdp_ops, 2u);
  EXPECT_EQ(engine.cdp_ops, 0u);
  EXPECT_EQ(engine.bdma_ops, 0u);

  const auto& c = exec.census;
  // Every CSB access crosses decoder -> ahb2apb -> apb2csb, 4 bytes each.
  for (const BusStats* csb_path : {&c.decoder, &c.ahb2apb, &c.apb2csb}) {
    EXPECT_EQ(csb_path->reads, 33421u);
    EXPECT_EQ(csb_path->writes, 235u);
    EXPECT_EQ(csb_path->bytes_read, 133684u);
    EXPECT_EQ(csb_path->bytes_written, 940u);
    EXPECT_EQ(csb_path->errors, 0u);
  }
  EXPECT_EQ(c.decoder.stall_cycles, 201701u);
  EXPECT_EQ(c.ahb2apb.stall_cycles, 100733u);
  EXPECT_EQ(c.apb2csb.stall_cycles, 67077u);
  EXPECT_EQ(c.ahb2axi.transfers(), 0u);
  EXPECT_EQ(c.width_converter.reads, 1807u);
  EXPECT_EQ(c.width_converter.writes, 89u);
  EXPECT_EQ(c.width_converter.bytes_read, 461356u);
  EXPECT_EQ(c.width_converter.bytes_written, 22280u);
  EXPECT_EQ(c.width_converter.stall_cycles, 7763u);
  EXPECT_EQ(c.arbiter_cpu.grants, 0u);
  EXPECT_EQ(c.arbiter_dbb.grants, 120909u);
  EXPECT_EQ(c.arbiter_dbb.wait_cycles, 0u);
  EXPECT_EQ(c.arbiter_dbb.bytes, 483636u);
  EXPECT_EQ(c.dbb.bytes_read, 461356u);
  EXPECT_EQ(c.dbb.bytes_written, 22280u);
  EXPECT_EQ(c.dbb.bursts, 1896u);
}

TEST(Flow, ResNet18Int8EndToEnd) {
  runtime::InferenceSession session(models::resnet18_cifar());
  const auto exec = run_or_die(session, "system_top");
  EXPECT_EQ(core::max_abs_diff(session.prepared().vp().output, exec.output),
            0.0f);
  // Table II: 16.2 ms; require the right order of magnitude and that
  // ResNet-18 is slower than LeNet-5 (the paper's ordering).
  EXPECT_GT(exec.ms, 8.0);
  EXPECT_LT(exec.ms, 33.0);
  EXPECT_EQ(exec.predicted_class,
            compiler::argmax(session.prepared().reference_output));
}

TEST(Flow, Fp16FullConfigurationOnSoc) {
  // nv_full is too big for the ZCU102 but the SoC model runs it fine
  // (the paper's Table III is simulation-only for the same reason).
  core::FlowConfig config;
  config.nvdla = nvdla::NvdlaConfig::full();
  config.precision = nvdla::Precision::kFp16;
  runtime::InferenceSession session(models::lenet5(), config);
  const auto exec = run_or_die(session, "soc");
  EXPECT_EQ(core::max_abs_diff(session.prepared().vp().output, exec.output),
            0.0f);
  // FP16 tracks the FP32 reference tightly.
  EXPECT_LT(core::max_abs_diff(session.prepared().reference_output,
                               exec.output),
            0.01f);
  // FP16 skips the calibration stage entirely.
  EXPECT_EQ(session.counters().calibration, 0u);
}


TEST(Flow, InterruptModeMatchesPollingFunctionally) {
  // Extension: the generated program can sleep in WFI on the NVDLA IRQ
  // instead of busy-polling the CSB. Same output, far fewer instructions
  // and CSB status reads; completion time within a few percent (the wake
  // is event-accurate).
  core::FlowConfig irq_config;
  irq_config.wait_mode = toolflow::WaitMode::kInterrupt;
  runtime::InferenceSession irq_session(models::lenet5(), irq_config);
  EXPECT_NE(irq_session.prepared().program().assembly.find("wfi"),
            std::string::npos);

  const auto poll_exec = run_or_die(lenet(), "soc");
  const auto irq_exec = run_or_die(irq_session, "soc");
  ASSERT_TRUE(poll_exec.soc.has_value());
  ASSERT_TRUE(irq_exec.soc.has_value());
  EXPECT_EQ(poll_exec.output, irq_exec.output);
  EXPECT_LT(irq_exec.soc->cpu.instructions(),
            poll_exec.soc->cpu.instructions() / 4);
  EXPECT_LT(irq_exec.soc->census.apb2csb.reads,
            poll_exec.soc->census.apb2csb.reads);
  // Wall-clock (cycle) difference small: polling granularity vs exact wake.
  const double ratio = static_cast<double>(irq_exec.cycles) /
                       static_cast<double>(poll_exec.cycles);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

// ---------------------------------------------------------------------------
// Table I resource model
// ---------------------------------------------------------------------------

TEST(Resources, NvSmallRowMatchesTable1Exactly) {
  const auto r = fpga::estimate_nvdla(nvdla::NvdlaConfig::small());
  EXPECT_NEAR(r.luts, 74575, 1);
  EXPECT_NEAR(r.regs, 79567, 1);
  EXPECT_NEAR(r.carry8, 1569, 1);
  EXPECT_NEAR(r.f7_muxes, 3091, 1);
  EXPECT_NEAR(r.f8_muxes, 1048, 1);
  EXPECT_NEAR(r.clbs, 15734, 1);
  EXPECT_NEAR(r.bram_tiles, 66, 0.1);
  EXPECT_NEAR(r.dsps, 32, 0.1);
}

TEST(Resources, AggregateRowsMatchTable1) {
  const auto cfg = nvdla::NvdlaConfig::small();
  const auto soc = fpga::our_soc(cfg);
  EXPECT_NEAR(soc.luts, 81986, 1);
  EXPECT_NEAR(soc.regs, 83659, 1);
  EXPECT_NEAR(soc.bram_tiles, 298, 0.1);
  EXPECT_NEAR(soc.dsps, 36, 0.1);
  const auto overall = fpga::overall_system(cfg);
  EXPECT_NEAR(overall.luts, 96733, 1);
  EXPECT_NEAR(overall.regs, 102823, 1);
  EXPECT_NEAR(overall.clbs, 19898, 1);
  EXPECT_NEAR(overall.bram_tiles, 323.5, 0.1);
  EXPECT_NEAR(overall.dsps, 39, 0.1);
}

TEST(Resources, NvSmallFitsNvFullDoesNot) {
  const auto capacity = fpga::zcu102_capacity();
  EXPECT_TRUE(fpga::fits(fpga::overall_system(nvdla::NvdlaConfig::small()),
                         capacity));
  // The paper: "LUTs overutilization was quite substantial for nv_full".
  const auto full = fpga::overall_system(nvdla::NvdlaConfig::full());
  EXPECT_FALSE(fpga::fits(full, capacity));
  EXPECT_GT(full.luts / capacity.luts, 2.0);
}

TEST(Resources, UtilizationScalesWithMacs) {
  auto custom = nvdla::NvdlaConfig::small();
  const auto base = fpga::estimate_nvdla(custom);
  custom.atomic_k = 16;  // 128 MACs
  const auto doubled = fpga::estimate_nvdla(custom);
  EXPECT_GT(doubled.luts, base.luts);
  EXPECT_GT(doubled.dsps, base.dsps);
}

// ---------------------------------------------------------------------------
// Linux-baseline shape (Table II comparison column)
// ---------------------------------------------------------------------------

TEST(Baseline, OverheadDominatesSmallModels) {
  const auto est = run_or_die(lenet(), "linux_baseline");
  ASSERT_TRUE(est.linux_estimate.has_value());
  EXPECT_GT(est.linux_estimate->overhead_fraction(), 0.9);
  // Paper: 263 ms on the 50 MHz Linux platform.
  EXPECT_GT(est.ms, 150.0);
  EXPECT_LT(est.ms, 400.0);
}

TEST(Baseline, SpeedupShapeMatchesTable2) {
  const auto bare = run_or_die(lenet(), "system_top");
  const auto est = run_or_die(lenet(), "linux_baseline");
  // Paper: 4.8 ms vs 263 ms -> ~55x. Require a large one-sided win.
  EXPECT_GT(est.ms / bare.ms, 20.0);
}

}  // namespace
}  // namespace nvsoc
