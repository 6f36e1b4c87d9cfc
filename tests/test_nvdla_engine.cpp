// NVDLA engine tests: register map, CSB protocol, ping-pong groups,
// interrupt semantics (post / mask / W1C), status-as-of-timestamp, and a
// hand-programmed convolution through the CSB.
#include <gtest/gtest.h>

#include <cstring>

#include "mem/dram.hpp"
#include "nvdla/engine.hpp"
#include "nvdla/regmap.hpp"
#include "nvdla/tensor.hpp"

namespace nvsoc::nvdla {
namespace {

/// Minimal AXI RAM for engine tests (zero-latency data, 1 cycle per beat).
class TestAxiRam final : public AxiTarget {
 public:
  explicit TestAxiRam(std::size_t size) : dram_(size) {}
  AxiBurstResponse burst(const AxiBurstRequest& req) override {
    if (req.is_write) {
      dram_.write_bytes(req.addr, req.wdata);
    } else {
      dram_.read_bytes(req.addr, req.rbuf);
    }
    return {Status::ok(), req.start + 1 + req.size_bytes() / 8};
  }
  std::string_view name() const override { return "test_axi_ram"; }
  Dram& dram() { return dram_; }

 private:
  Dram dram_;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : ram_(1 << 22), engine_(NvdlaConfig::small(), ram_) {}

  CsbResponse write(Addr addr, std::uint32_t value, Cycle at) {
    return engine_.csb_access(
        {.addr = addr, .is_write = true, .wdata = value, .start = at});
  }
  std::uint32_t read(Addr addr, Cycle at) {
    const auto rsp = engine_.csb_access(
        {.addr = addr, .is_write = false, .wdata = 0, .start = at});
    EXPECT_TRUE(rsp.status.is_ok());
    return rsp.rdata;
  }

  TestAxiRam ram_;
  Nvdla engine_;
};

TEST(RegMap, UnitLookupAndNames) {
  EXPECT_EQ(unit_for_address(0x0000), Unit::kGlb);
  EXPECT_EQ(unit_for_address(0x4010), Unit::kCdma);
  EXPECT_EQ(unit_for_address(0xA018), Unit::kSdp);
  EXPECT_EQ(unit_for_address(0x2000), std::nullopt);  // hole (SRAMIF absent)
  EXPECT_EQ(register_name(0x000C), "glb.s_intr_status");
  EXPECT_EQ(register_name(0x4018), "cdma.d_dain_addr");
  EXPECT_EQ(register_name(0x5008), "csc.d_op_enable");
  EXPECT_EQ(register_name(0xC020), "pdp.d_pooling_kernel_cfg");
}

TEST_F(EngineTest, HwVersionIdentifiesConfiguration) {
  EXPECT_EQ(read(glb::kHwVersion, 0), NvdlaConfig::small().hw_version());
  TestAxiRam ram(1 << 20);
  Nvdla full(NvdlaConfig::full(), ram);
  const auto rsp = full.csb_access(
      {.addr = glb::kHwVersion, .is_write = false, .wdata = 0, .start = 0});
  EXPECT_EQ(rsp.rdata, NvdlaConfig::full().hw_version());
  EXPECT_NE(rsp.rdata, NvdlaConfig::small().hw_version());
}

TEST_F(EngineTest, DescriptorRegistersReadBack) {
  const Addr reg = unit_base(Unit::kCdma) + cdma::kDainAddr;
  write(reg, 0x1234, 0);
  EXPECT_EQ(read(reg, 1), 0x1234u);
}

TEST_F(EngineTest, PingPongGroupsAreIndependent) {
  const Addr pointer = unit_base(Unit::kCdma) + ctrl::kPointer;
  const Addr reg = unit_base(Unit::kCdma) + cdma::kDainAddr;
  write(pointer, 0, 0);
  write(reg, 0xAAAA, 1);
  write(pointer, 1, 2);
  write(reg, 0xBBBB, 3);
  EXPECT_EQ(read(reg, 4), 0xBBBBu);  // group 1 selected
  write(pointer, 0, 5);
  EXPECT_EQ(read(reg, 6), 0xAAAAu);  // group 0 preserved
}

TEST_F(EngineTest, UnmappedCsbAddressErrors) {
  const auto rsp = engine_.csb_access(
      {.addr = 0x2000, .is_write = true, .wdata = 1, .start = 0});
  EXPECT_EQ(rsp.status.code(), StatusCode::kBusError);
}

TEST_F(EngineTest, IntrSetPostsAndW1CClears) {
  write(glb::kIntrSet, 0x5, 10);
  EXPECT_EQ(read(glb::kIntrStatus, 11), 0x5u);
  // W1C of bit 0 only.
  write(glb::kIntrStatus, 0x1, 12);
  EXPECT_EQ(read(glb::kIntrStatus, 13), 0x4u);
  write(glb::kIntrStatus, 0x4, 14);
  EXPECT_EQ(read(glb::kIntrStatus, 15), 0x0u);
}

TEST_F(EngineTest, InterruptMaskGatesIrqLineOnly) {
  write(glb::kIntrSet, 0x2, 0);
  EXPECT_TRUE(engine_.irq_pending(1));
  write(glb::kIntrMask, 0x2, 2);
  EXPECT_FALSE(engine_.irq_pending(3));       // line masked
  EXPECT_EQ(read(glb::kIntrStatus, 4), 0x2u);  // status still readable
}

TEST_F(EngineTest, StatusReadsAreAsOfRequestTime) {
  // A W1C issued at an early timestamp must not clear an event that
  // completes later.
  write(glb::kIntrSet, 0x1, 100);
  write(glb::kIntrStatus, 0x1, 50);  // "before" the event
  EXPECT_EQ(read(glb::kIntrStatus, 200), 0x1u);
}

/// Program a 1x1 convolution through raw CSB writes and verify output and
/// interrupt behaviour end to end.
TEST_F(EngineTest, HandProgrammedConvRuns) {
  const CubeDims in_dims{2, 2, 1};
  const SurfaceDesc in_desc =
      SurfaceDesc::packed(0x1000, in_dims, Precision::kInt8, 8);
  CubeBuffer input(in_desc);
  input.set_i8(0, 0, 0, 3);
  input.set_i8(0, 0, 1, -2);
  input.set_i8(0, 1, 0, 5);
  input.set_i8(0, 1, 1, 7);
  ram_.dram().write_bytes(in_desc.base, input.bytes());

  const std::int8_t weight = 2;
  ram_.dram().write_bytes(0x2000, {reinterpret_cast<const std::uint8_t*>(&weight), 1});
  const std::int32_t bias = 1;
  std::uint8_t bias_bytes[4];
  std::memcpy(bias_bytes, &bias, 4);
  ram_.dram().write_bytes(0x2100, bias_bytes);

  const SurfaceDesc out_desc =
      SurfaceDesc::packed(0x3000, in_dims, Precision::kInt8, 8);

  Cycle t = 0;
  auto w = [&](Addr addr, std::uint32_t value) {
    const auto rsp = write(addr, value, t);
    ASSERT_TRUE(rsp.status.is_ok());
    t = rsp.complete;
  };

  // CDMA
  const Addr cdma_b = unit_base(Unit::kCdma);
  w(cdma_b + ctrl::kPointer, 0);
  w(cdma_b + cdma::kDatainSize0, 2 | (2 << 16));
  w(cdma_b + cdma::kDatainSize1, 1);
  w(cdma_b + cdma::kDainAddr, 0x1000);
  w(cdma_b + cdma::kDainLineStride, in_desc.line_stride);
  w(cdma_b + cdma::kDainSurfStride, in_desc.surf_stride);
  w(cdma_b + cdma::kWeightAddr, 0x2000);
  w(cdma_b + cdma::kWeightBytes, 1);
  w(cdma_b + cdma::kConvStride, 1 | (1 << 16));
  // CSC
  const Addr csc_b = unit_base(Unit::kCsc);
  w(csc_b + ctrl::kPointer, 0);
  w(csc_b + csc::kKernelSize, 1 | (1 << 16));
  w(csc_b + csc::kKernelChannels, 1);
  w(csc_b + csc::kKernelNumber, 1);
  // CMAC / CACC
  w(unit_base(Unit::kCmac) + ctrl::kPointer, 0);
  const Addr cacc_b = unit_base(Unit::kCacc);
  w(cacc_b + ctrl::kPointer, 0);
  w(cacc_b + cacc::kDataoutSize0, 2 | (2 << 16));
  w(cacc_b + cacc::kDataoutSize1, 1);
  // SDP (+RDMA): bias enabled, identity CVT.
  const Addr rdma_b = unit_base(Unit::kSdpRdma);
  w(rdma_b + ctrl::kPointer, 0);
  w(rdma_b + sdp_rdma::kBsAddr, 0x2100);
  const Addr sdp_b = unit_base(Unit::kSdp);
  w(sdp_b + ctrl::kPointer, 0);
  w(sdp_b + sdp::kCubeWidth, 2);
  w(sdp_b + sdp::kCubeHeight, 2);
  w(sdp_b + sdp::kCubeChannel, 1);
  w(sdp_b + sdp::kSrcBaseAddr, 0);  // flying
  w(sdp_b + sdp::kDstBaseAddr, 0x3000);
  w(sdp_b + sdp::kDstLineStride, out_desc.line_stride);
  w(sdp_b + sdp::kDstSurfStride, out_desc.surf_stride);
  w(sdp_b + sdp::kOpCfg, 0x1);  // bias only
  w(sdp_b + sdp::kCvtScale, 1);
  w(sdp_b + sdp::kCvtShift, 0);

  // No op must launch before the full chain is enabled.
  EXPECT_EQ(engine_.stats().conv_ops, 0u);
  w(cdma_b + ctrl::kOpEnable, 1);
  w(csc_b + ctrl::kOpEnable, 1);
  w(unit_base(Unit::kCmac) + ctrl::kOpEnable, 1);
  w(cacc_b + ctrl::kOpEnable, 1);
  EXPECT_EQ(engine_.stats().conv_ops, 0u);
  w(sdp_b + ctrl::kOpEnable, 1);  // launch
  EXPECT_EQ(engine_.stats().conv_ops, 1u);

  // Status is busy until the modelled completion, then idle; the interrupt
  // bits (CACC + SDP, group 0) appear exactly at completion.
  const Cycle done = engine_.last_completion();
  EXPECT_GT(done, t);
  EXPECT_EQ(read(cacc_b + ctrl::kStatus, t), 1u);
  EXPECT_EQ(read(cacc_b + ctrl::kStatus, done), 0u);
  EXPECT_EQ(read(glb::kIntrStatus, done - 1), 0u);
  EXPECT_EQ(read(glb::kIntrStatus, done),
            glb::intr_bit(glb::IntrSource::kCacc, 0) |
                glb::intr_bit(glb::IntrSource::kSdp, 0));

  // Output: in * 2 + 1.
  CubeBuffer out(out_desc);
  ram_.dram().read_bytes(out_desc.base, out.bytes());
  EXPECT_EQ(out.get_i8(0, 0, 0), 7);
  EXPECT_EQ(out.get_i8(0, 0, 1), -3);
  EXPECT_EQ(out.get_i8(0, 1, 0), 11);
  EXPECT_EQ(out.get_i8(0, 1, 1), 15);

  EXPECT_TRUE(engine_.irq_pending(done));
  EXPECT_EQ(engine_.op_records().size(), 1u);
  EXPECT_EQ(engine_.op_records()[0].unit, Unit::kCacc);
}

TEST_F(EngineTest, BdmaCopiesMemory) {
  const std::uint8_t pattern[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                    9, 10, 11, 12, 13, 14, 15, 16};
  ram_.dram().write_bytes(0x100, pattern);

  const Addr b = unit_base(Unit::kBdma);
  Cycle t = 0;
  auto w = [&](Addr addr, std::uint32_t value) {
    t = write(addr, value, t).complete;
  };
  w(b + ctrl::kPointer, 0);
  w(b + bdma::kSrcAddr, 0x100);
  w(b + bdma::kDstAddr, 0x900);
  w(b + bdma::kLineSize, 8);
  w(b + bdma::kLineRepeat, 2);
  w(b + bdma::kSrcStride, 8);
  w(b + bdma::kDstStride, 8);
  w(b + ctrl::kOpEnable, 1);
  EXPECT_EQ(engine_.stats().bdma_ops, 1u);

  std::uint8_t out[16] = {};
  ram_.dram().read_bytes(0x900, out);
  EXPECT_EQ(std::memcmp(out, pattern, 16), 0);
  EXPECT_EQ(read(glb::kIntrStatus, engine_.last_completion()),
            glb::intr_bit(glb::IntrSource::kBdma, 0));
}

TEST_F(EngineTest, NextCompletionAfterTracksInFlightOps) {
  EXPECT_FALSE(engine_.next_completion_after(0).has_value());
  write(glb::kIntrSet, 0x1, 500);
  EXPECT_EQ(engine_.next_completion_after(100), 500u);
  EXPECT_FALSE(engine_.next_completion_after(500).has_value());
}

}  // namespace
}  // namespace nvsoc::nvdla
