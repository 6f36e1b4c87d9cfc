// Decode-cache tests: the decoded-basic-block dispatcher must be an exact
// drop-in for the per-instruction fetch/decode path — same architectural
// results, same cycle accounting (branch penalties, load-use bubbles,
// memory stalls), same halt reasons — while staying coherent through
// self-modifying stores and program reloads. The cached and uncached legs
// differ only in the CpuStats cache-evidence counters.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "compiler/network.hpp"
#include "mem/dram.hpp"
#include "mem/program_memory.hpp"
#include "models/models.hpp"
#include "riscv/assembler.hpp"
#include "riscv/cpu.hpp"
#include "runtime/inference_session.hpp"

namespace nvsoc {
namespace {

/// Everything but the cache-evidence counters must agree bit for bit.
void expect_stats_match(const rv::CpuStats& cached,
                        const rv::CpuStats& uncached) {
  EXPECT_EQ(cached.instructions, uncached.instructions);
  EXPECT_EQ(cached.loads, uncached.loads);
  EXPECT_EQ(cached.stores, uncached.stores);
  EXPECT_EQ(cached.branches, uncached.branches);
  EXPECT_EQ(cached.taken_branches, uncached.taken_branches);
  EXPECT_EQ(cached.load_use_stalls, uncached.load_use_stalls);
  EXPECT_EQ(cached.memory_stall_cycles, uncached.memory_stall_cycles);
  EXPECT_EQ(cached.traps, uncached.traps);
}

/// One program, two Cpus (decode cache on / off); returns the pair and
/// asserts the full parity contract: halt, cycles, stats, all registers.
struct TwinOutcome {
  rv::RunResult cached;
  rv::RunResult uncached;
};

TwinOutcome run_twins(const std::string& source, bool dmem_is_pmem = false,
                      std::uint64_t max_instructions = 100000) {
  rv::Assembler assembler;
  const auto image = assembler.assemble(source);

  TwinOutcome outcome;
  std::array<rv::RunResult*, 2> slots = {&outcome.cached, &outcome.uncached};
  std::array<std::array<Word, 32>, 2> regs{};
  for (int leg = 0; leg < 2; ++leg) {
    ProgramMemory pmem(64 * 1024);
    pmem.load_image(0, image.bytes);
    Dram dram(1 << 20);
    rv::CpuConfig config;
    config.decode_cache = (leg == 0);
    rv::Cpu cpu(pmem, dmem_is_pmem ? static_cast<BusTarget&>(pmem)
                                   : static_cast<BusTarget&>(dram),
                config);
    *slots[leg] = cpu.run(max_instructions);
    for (unsigned r = 0; r < 32; ++r) regs[leg][r] = cpu.reg(r);
  }

  EXPECT_EQ(outcome.cached.reason, outcome.uncached.reason);
  EXPECT_EQ(outcome.cached.cycles, outcome.uncached.cycles);
  EXPECT_EQ(outcome.cached.detail, outcome.uncached.detail);
  expect_stats_match(outcome.cached.stats, outcome.uncached.stats);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(regs[0][r], regs[1][r]) << "x" << r;
  }
  return outcome;
}

TEST(DecodeCache, LoopTimingParityAndBlockReuse) {
  const auto twins = run_twins(R"(
    li t0, 0
    li t1, 200
  loop:
    addi t0, t0, 1
    bne t0, t1, loop
    ebreak
  )");
  // The loop body re-dispatches from the cache. Exactly three blocks
  // (entry + first iteration, loop body, ebreak); the loop body is decoded
  // on its second iteration and hit on every later one — per-instruction
  // dispatch or a block rebuilt per iteration both break these counts.
  EXPECT_EQ(twins.cached.stats.decoded_blocks, 3u);
  EXPECT_EQ(twins.cached.stats.block_hits, 198u);
  EXPECT_EQ(twins.cached.stats.block_invalidations, 0u);
  // The oracle leg never builds a block.
  EXPECT_EQ(twins.uncached.stats.decoded_blocks, 0u);
  EXPECT_EQ(twins.uncached.stats.block_hits, 0u);
}

TEST(DecodeCache, HazardAndStallTimingParity) {
  // Exercises every cycle-accounting deviation inside cached blocks:
  // load-use bubbles, taken and fall-through branches, MUL/DIV latency,
  // and data-memory stalls through the DRAM model.
  run_twins(R"(
    li   s0, 0x1000
    li   s1, 77
    sw   s1, 0(s0)
    li   t0, 0
    li   t1, 16
  loop:
    lw   t2, 0(s0)       # load ...
    addi t3, t2, 1       # ... use: bubble every iteration
    mul  t4, t3, t3
    div  t5, t4, t3
    addi t0, t0, 1
    beq  t0, t1, done    # fall-through 15 times, taken once
    j    loop            # taken every iteration
  done:
    ebreak
  )");
}

TEST(DecodeCache, SelfModifyingStoreInvalidatesItsBlock) {
  // Program memory doubles as data memory so a store can patch code the
  // cache already decoded. Pass 1 executes `target` (caching its block);
  // the patch then rewrites it; pass 2 must execute the *new* instruction
  // on both legs.
  const auto twins = run_twins(R"(
    la   t0, target
    jal  ra, target      # first call: t2 = 5, block cached
    li   t1, 0x06300393  # encoding of: addi t2, zero, 99
    sw   t1, 0(t0)       # patch target -> invalidates its cached block
    jal  ra, target      # second call: t2 = 99
    ebreak
  target:
    li   t2, 5
    jalr zero, 0(ra)
  )",
                               /*dmem_is_pmem=*/true);
  EXPECT_GE(twins.cached.stats.block_invalidations, 1u);
  EXPECT_EQ(twins.uncached.stats.block_invalidations, 0u);
}

TEST(DecodeCache, ProgramReloadInvalidatesStaleBlocks) {
  rv::Assembler assembler;
  const auto first = assembler.assemble(R"(
    li t0, 11
    ebreak
  )");
  const auto second = assembler.assemble(R"(
    li t0, 22
    ebreak
  )");

  ProgramMemory pmem(64 * 1024);
  Dram dram(1 << 20);
  pmem.load_image(0, first.bytes);
  rv::Cpu cpu(pmem, dram);
  ASSERT_TRUE(cpu.decode_cache_active());
  ASSERT_EQ(cpu.run().reason, rv::HaltReason::kEbreak);
  EXPECT_EQ(cpu.reg(5), 11u);
  ASSERT_GT(cpu.stats().decoded_blocks, 0u);
  EXPECT_EQ(cpu.stats().block_invalidations, 0u);

  // Reload through the backdoor: the write listener must retire every
  // block the new image overlaps (reset() zeroes stats, so read the
  // evidence before resetting).
  pmem.load_image(0, second.bytes);
  EXPECT_GT(cpu.stats().block_invalidations, 0u);

  cpu.reset();
  ASSERT_EQ(cpu.run().reason, rv::HaltReason::kEbreak);
  EXPECT_EQ(cpu.reg(5), 22u);  // the stale block did not execute
}

TEST(DecodeCache, MemTextReloadInvalidates) {
  ProgramMemory pmem(64 * 1024);
  Dram dram(1 << 20);
  rv::Assembler assembler;
  pmem.load_image(0, assembler.assemble("li t0, 7\n ebreak").bytes);
  rv::Cpu cpu(pmem, dram);
  ASSERT_EQ(cpu.run().reason, rv::HaltReason::kEbreak);
  ASSERT_GT(cpu.stats().decoded_blocks, 0u);

  // A .mem reload (the Vivado $readmemh path) reports its write envelope.
  pmem.load_mem_text("00100073  // ebreak over word 0\n");
  EXPECT_GT(cpu.stats().block_invalidations, 0u);

  cpu.reset();
  const auto rerun = cpu.run();
  EXPECT_EQ(rerun.reason, rv::HaltReason::kEbreak);
  EXPECT_EQ(rerun.stats.instructions, 0u);  // word 0 is now the ebreak
}

// ---------------------------------------------------------------------------
// Differential: cycle-accurate inference with the cache on vs off
// ---------------------------------------------------------------------------

/// `on_spec` and `off_spec` differ only in ?decode_cache: outputs, cycles
/// and the ISS profile (minus cache counters) must be bit-identical.
void expect_backend_differential(compiler::Network (*build)(),
                                 const std::string& on_spec,
                                 const std::string& off_spec) {
  runtime::InferenceSession session(build());
  const auto image =
      compiler::synthetic_input(build().input_shape(), 8500);
  const auto on = session.run(on_spec, image);
  const auto off = session.run(off_spec, image);
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  ASSERT_TRUE(off.is_ok()) << off.status().to_string();
  EXPECT_EQ(on->output, off->output);
  EXPECT_EQ(on->predicted_class, off->predicted_class);
  EXPECT_EQ(on->cycles, off->cycles);
  if (on->soc.has_value()) {
    ASSERT_TRUE(off->soc.has_value());
    expect_stats_match(on->soc->cpu.stats, off->soc->cpu.stats);
    // The cached leg really dispatched from blocks; the oracle never did.
    EXPECT_GT(on->soc->cpu.stats.decoded_blocks, 0u);
    EXPECT_GT(on->soc->cpu.stats.block_hits, 0u);
    EXPECT_EQ(off->soc->cpu.stats.decoded_blocks, 0u);
    EXPECT_EQ(off->soc->cpu.stats.block_hits, 0u);
  }
}

TEST(DecodeCacheDifferential, SocLenet) {
  expect_backend_differential(models::lenet5, "soc?mode=cycle_accurate",
                              "soc?mode=cycle_accurate&decode_cache=off");
}

TEST(DecodeCacheDifferential, SystemTopLenet) {
  expect_backend_differential(
      models::lenet5, "system_top?mode=cycle_accurate",
      "system_top?mode=cycle_accurate&decode_cache=off");
}

TEST(DecodeCacheDifferential, VpLenet) {
  // The VP has no ISS; the knob must parse and stay a no-op.
  expect_backend_differential(models::lenet5, "vp", "vp?decode_cache=off");
}

TEST(DecodeCacheDifferential, LinuxBaselineLenet) {
  expect_backend_differential(models::lenet5, "linux_baseline",
                              "linux_baseline?decode_cache=off");
}

TEST(DecodeCacheDifferential, SocResnet) {
  expect_backend_differential(models::resnet18_cifar,
                              "soc?mode=cycle_accurate",
                              "soc?mode=cycle_accurate&decode_cache=off");
}

TEST(DecodeCacheDifferential, SystemTopResnet) {
  expect_backend_differential(
      models::resnet18_cifar, "system_top?mode=cycle_accurate",
      "system_top?mode=cycle_accurate&decode_cache=off");
}

}  // namespace
}  // namespace nvsoc
