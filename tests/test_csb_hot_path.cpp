// CSB hot-path allocation gate: a mapped register access on the NVDLA's
// CSB slave performs no heap allocation. The bare-metal program drives
// every layer through these accesses (descriptor writes, pointer flips,
// interrupt-status polling), about 124k of them per ResNet-18 run, so a
// per-access string build or container growth shows up directly in the
// cycle-accurate path's host time. This binary replaces the global
// operator new with a counting one, which is why it is its own suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nvdla/engine.hpp"
#include "nvdla/regmap.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants the size rounded up to a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nvsoc::nvdla {
namespace {

/// DBB port that must never be reached: none of the accesses below launch
/// an op.
class UnreachableAxi final : public AxiTarget {
 public:
  AxiBurstResponse burst(const AxiBurstRequest& req) override {
    ADD_FAILURE() << "unexpected DBB burst at " << req.addr;
    return {Status::ok(), req.start};
  }
  std::string_view name() const override { return "unreachable"; }
};

TEST(CsbHotPath, CountingAllocatorSeesHeapAllocations) {
  // Control for the gate below: the replaced operator new is the one in use.
  // A direct call, unlike a new-expression, cannot be elided.
  const std::uint64_t before = g_allocations.load();
  void* block = ::operator new(64);
  const std::uint64_t after = g_allocations.load();
  ::operator delete(block);
  EXPECT_EQ(after - before, 1u);
}

TEST(CsbHotPath, MappedRegisterAccessesDoNotAllocate) {
  UnreachableAxi dbb;
  Nvdla engine(NvdlaConfig::small(), dbb);

  const Addr cdma_base = unit_base(Unit::kCdma);
  const Addr csc_base = unit_base(Unit::kCsc);
  const Addr pdp_base = unit_base(Unit::kPdp);
  constexpr int kRounds = 1000;
  constexpr int kWritesPerRound = 9;
  constexpr int kReadsPerRound = 7;
  std::vector<std::uint32_t> reads;
  reads.reserve(kRounds * kReadsPerRound);
  std::uint64_t failed = 0;
  Cycle now = 0;

  auto write = [&](Addr addr, std::uint32_t value) {
    const auto rsp = engine.csb_access(
        {.addr = addr, .is_write = true, .wdata = value, .start = now++});
    failed += rsp.status.is_ok() ? 0 : 1;
  };
  auto read = [&](Addr addr) {
    const auto rsp = engine.csb_access(
        {.addr = addr, .is_write = false, .wdata = 0, .start = now++});
    failed += rsp.status.is_ok() ? 0 : 1;
    reads.push_back(rsp.rdata);
  };

  // OP_ENABLE is left out: it launches an op, whose DMA and bookkeeping
  // are not part of the register path.
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < kRounds; ++round) {
    const std::uint32_t group = static_cast<std::uint32_t>(round) & 1u;
    const std::uint32_t value = 0x1000u + static_cast<std::uint32_t>(round);
    write(cdma_base + ctrl::kPointer, group);
    write(cdma_base + cdma::kDainAddr, value);
    read(cdma_base + cdma::kDainAddr);
    write(cdma_base + cdma::kWeightBytes, value + 1);
    read(cdma_base + cdma::kWeightBytes);
    read(cdma_base + ctrl::kPointer);
    write(csc_base + ctrl::kPointer, group);
    write(csc_base + csc::kKernelSize, value + 2);
    read(csc_base + csc::kKernelSize);
    write(pdp_base + ctrl::kPointer, group);
    write(pdp_base + pdp::kSrcBaseAddr, value + 3);
    read(pdp_base + pdp::kSrcBaseAddr);
    write(pdp_base + pdp::kKernelCfg, value + 4);
    read(pdp_base + pdp::kKernelCfg);
    read(glb::kIntrStatus);
    write(glb::kIntrStatus, 0);
  }
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u)
      << "over " << kRounds * (kWritesPerRound + kReadsPerRound)
      << " mapped CSB accesses";
  EXPECT_EQ(failed, 0u);
  // The accesses really went through the register file: every read returns
  // what the round wrote (or the group pointer / an idle intr status).
  ASSERT_EQ(reads.size(), static_cast<std::size_t>(kRounds) * kReadsPerRound);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint32_t value = 0x1000u + static_cast<std::uint32_t>(round);
    const std::uint32_t* r =
        &reads[static_cast<std::size_t>(round) * kReadsPerRound];
    EXPECT_EQ(r[0], value);
    EXPECT_EQ(r[1], value + 1);
    EXPECT_EQ(r[2], static_cast<std::uint32_t>(round) & 1u);
    EXPECT_EQ(r[3], value + 2);
    EXPECT_EQ(r[4], value + 3);
    EXPECT_EQ(r[5], value + 4);
    EXPECT_EQ(r[6], 0u);
  }
  EXPECT_EQ(engine.stats().csb_writes,
            static_cast<std::uint64_t>(kRounds) * kWritesPerRound);
  EXPECT_EQ(engine.stats().csb_reads,
            static_cast<std::uint64_t>(kRounds) * kReadsPerRound);
  EXPECT_EQ(engine.stats().total_ops(), 0u);
}

}  // namespace
}  // namespace nvsoc::nvdla
