#include "nvdla/replay.hpp"

#include "common/bitutil.hpp"
#include "nvdla/tensor.hpp"

namespace nvsoc::nvdla {

namespace {

/// X1-channel operand staging size — must match the timed paths in
/// engine.cpp exactly so the eltwise cube bytes replayed here are the
/// bytes the engine would have fetched.
std::size_t eltwise_bytes(const NvdlaConfig& config, const SdpOp& op) {
  return static_cast<std::size_t>(op.operand_surf_stride) *
         ceil_div(op.dims.c,
                  config.atom_bytes / elem_size_bytes(op.out_precision));
}

void replay_conv(const NvdlaConfig& config, const ReplayOp& op,
                 ReplayMemory& mem) {
  const ConvOp& conv = op.conv;
  const SdpOp& sdp = op.sdp;

  CubeBuffer input(conv.input);
  mem.read(conv.input.base, input.bytes());
  std::vector<std::uint8_t> weights(conv.weight_bytes);
  mem.read(conv.weight_addr, weights);

  std::vector<std::uint8_t> bias_table;
  if (sdp.bias_enable) {
    bias_table.resize(static_cast<std::size_t>(sdp.dims.c) * 4);
    mem.read(sdp.bias_addr, bias_table);
  }
  std::vector<std::uint8_t> eltwise;
  if (sdp.eltwise_enable) {
    eltwise.resize(eltwise_bytes(config, sdp));
    mem.read(sdp.operand_addr, eltwise);
  }

  const ConvAccumulators acc =
      conv_execute(conv, input, weights, op.packed_weights.get());
  CubeBuffer out(sdp.dst);
  sdp_execute(sdp, &acc, nullptr, bias_table, eltwise, out);
  mem.write(sdp.dst.base, out.bytes());
}

void replay_sdp(const NvdlaConfig& config, const ReplayOp& op,
                ReplayMemory& mem) {
  const SdpOp& sdp = op.sdp;
  CubeBuffer src(sdp.src);
  mem.read(sdp.src.base, src.bytes());

  std::vector<std::uint8_t> bias_table;
  if (sdp.bias_enable) {
    bias_table.resize(static_cast<std::size_t>(sdp.dims.c) * 4);
    mem.read(sdp.bias_addr, bias_table);
  }
  std::vector<std::uint8_t> eltwise;
  if (sdp.eltwise_enable) {
    eltwise.resize(eltwise_bytes(config, sdp));
    mem.read(sdp.operand_addr, eltwise);
  }

  CubeBuffer out(sdp.dst);
  sdp_execute(sdp, nullptr, &src, bias_table, eltwise, out);
  mem.write(sdp.dst.base, out.bytes());
}

void replay_pdp(const ReplayOp& op, ReplayMemory& mem) {
  CubeBuffer src(op.pdp.src);
  mem.read(op.pdp.src.base, src.bytes());
  CubeBuffer out(op.pdp.dst);
  pdp_execute(op.pdp, src, out);
  mem.write(op.pdp.dst.base, out.bytes());
}

void replay_cdp(const ReplayOp& op, ReplayMemory& mem) {
  CubeBuffer src(op.cdp.src);
  mem.read(op.cdp.src.base, src.bytes());
  CubeBuffer out(op.cdp.dst);
  cdp_execute(op.cdp, src, out);
  mem.write(op.cdp.dst.base, out.bytes());
}

void replay_bdma(const ReplayOp& op, ReplayMemory& mem) {
  const BdmaOp& bdma = op.bdma;
  std::vector<std::uint8_t> line(bdma.line_size);
  for (std::uint32_t i = 0; i < bdma.line_repeat; ++i) {
    mem.read(bdma.src_addr + static_cast<Addr>(i) * bdma.src_stride, line);
    mem.write(bdma.dst_addr + static_cast<Addr>(i) * bdma.dst_stride, line);
  }
}

}  // namespace

void replay_op(const NvdlaConfig& config, const ReplayOp& op,
               ReplayMemory& mem) {
  switch (op.kind) {
    case ReplayOp::Kind::kConv: replay_conv(config, op, mem); return;
    case ReplayOp::Kind::kSdp: replay_sdp(config, op, mem); return;
    case ReplayOp::Kind::kPdp: replay_pdp(op, mem); return;
    case ReplayOp::Kind::kCdp: replay_cdp(op, mem); return;
    case ReplayOp::Kind::kBdma: replay_bdma(op, mem); return;
  }
}

}  // namespace nvsoc::nvdla
