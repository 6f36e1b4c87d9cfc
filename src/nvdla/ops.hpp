// Hardware-layer operation descriptors, decoded from a unit's descriptor
// register group at launch, plus the functional and cycle-model entry
// points implemented in units.cpp.
//
// Dataflow mirrors NVDLA:
//  * Convolution runs through CDMA -> CBUF -> CSC -> CMAC -> CACC and hands
//    its accumulators to the SDP "on the fly"; SDP applies bias, optional
//    element-wise add, ReLU and the output converter, then writes the cube.
//  * SDP can also run standalone (memory source) for element-wise layers.
//  * PDP pools, CDP applies LRN, BDMA copies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nvdla/config.hpp"
#include "nvdla/tensor.hpp"

namespace nvsoc::nvdla {

struct ConvOp {
  Precision precision = Precision::kInt8;
  SurfaceDesc input;
  Addr weight_addr = 0;
  std::uint32_t weight_bytes = 0;
  std::uint32_t kernel_w = 0, kernel_h = 0;
  /// Channels per kernel group and total output kernels. `groups` splits the
  /// input channels (depthwise convolution has groups == input channels and
  /// kernel_c == 1) — grouped convolution is executed as `groups`
  /// channel-sliced passes, mirroring how NVDLA compilers lower it.
  std::uint32_t kernel_c = 0, kernel_k = 0;
  std::uint32_t groups = 1;
  std::uint32_t pad_left = 0, pad_top = 0, pad_right = 0, pad_bottom = 0;
  std::uint32_t stride_x = 1, stride_y = 1;
  std::int32_t pad_value = 0;
  std::uint32_t out_w = 0, out_h = 0;

  std::uint64_t macs() const {
    return static_cast<std::uint64_t>(out_w) * out_h * kernel_k * kernel_c *
           kernel_w * kernel_h;
  }
};

struct SdpOp {
  Precision in_precision = Precision::kInt8;
  Precision out_precision = Precision::kInt8;
  CubeDims dims;          ///< output cube dimensions
  SurfaceDesc src;        ///< src.base == 0 means on-the-fly from CACC
  SurfaceDesc dst;
  bool bias_enable = false;
  bool relu_enable = false;
  bool eltwise_enable = false;
  /// BS channel: per-kernel bias table (int32 on the INT8 path, float32 on
  /// the FP16 path), indexed by output channel.
  Addr bias_addr = 0;
  /// X1 channel: per-element element-wise operand, a cube in the same
  /// surface format as dst. The two channels mirror NVDLA SDP's separate
  /// BS and X RDMA engines, so a fused conv+BN+residual-add uses both.
  Addr operand_addr = 0;
  std::uint32_t operand_line_stride = 0;
  std::uint32_t operand_surf_stride = 0;
  bool operand_per_element = true;
  /// Output converter: int8_out = sat((value * cvt_scale) >> cvt_shift).
  std::int32_t cvt_scale = 1;
  std::uint32_t cvt_shift = 0;

  bool flying_mode() const { return src.base == 0; }
};

struct PdpOp {
  Precision precision = Precision::kInt8;
  SurfaceDesc src;
  SurfaceDesc dst;
  std::uint32_t kernel_w = 1, kernel_h = 1;
  std::uint32_t stride_x = 1, stride_y = 1;
  std::uint32_t pad_left = 0, pad_top = 0, pad_right = 0, pad_bottom = 0;
  bool average = false;  ///< false = max pooling
};

struct CdpOp {
  Precision precision = Precision::kInt8;
  SurfaceDesc src;
  SurfaceDesc dst;
  std::uint32_t local_size = 5;
  /// LRN parameters in Q16.16 fixed point, as programmed via CSB.
  std::uint32_t alpha_q16 = 0;
  std::uint32_t beta_q16 = 0;
  std::uint32_t k_q16 = 1 << 16;
  /// Dequantisation scale of the INT8 input (Q16.16); 0 disables requant.
  std::uint32_t in_scale_q16 = 1 << 16;
};

struct BdmaOp {
  Addr src_addr = 0;
  Addr dst_addr = 0;
  std::uint32_t line_size = 0;
  std::uint32_t line_repeat = 1;
  std::uint32_t src_stride = 0;
  std::uint32_t dst_stride = 0;

  std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(line_size) * line_repeat;
  }
};

// ---------------------------------------------------------------------------
// Functional execution (units.cpp)
// ---------------------------------------------------------------------------

/// Convolution accumulators, [k][oh][ow] row-major. INT8 path accumulates in
/// int32 (the CACC width); FP16 path accumulates in float.
struct ConvAccumulators {
  std::vector<std::int32_t> i32;
  std::vector<float> f32;
  std::uint32_t k = 0, h = 0, w = 0;

  std::size_t index(std::uint32_t kk, std::uint32_t y, std::uint32_t x) const {
    return (static_cast<std::size_t>(kk) * h + y) * w + x;
  }
};

/// An int8 conv op's weights reordered from the blob's [k][c][r][s] into
/// the kernel's [k][r][s][c] (channels innermost, like the packed-atom
/// surfaces), together with the blob bytes they were built from. Built once
/// per replay schedule (see pack_conv_weights) and immutable afterwards.
struct PackedConvWeights {
  std::uint32_t kernel_k = 0, kernel_c = 0, kernel_h = 0, kernel_w = 0;
  std::vector<std::uint8_t> source;  ///< the [k][c][r][s] blob bytes
  std::vector<std::int8_t> krsc;     ///< the same weights, [k][r][s][c]

  /// True when this pack was built for `op`'s kernel shape from exactly
  /// `weights` (a byte-for-byte compare, not a hash).
  bool matches(const ConvOp& op, std::span<const std::uint8_t> weights) const;
  /// Heap bytes held (reordered weights plus source bytes).
  std::uint64_t bytes() const { return source.capacity() + krsc.capacity(); }
};

/// Pack an int8 conv op's weight blob for conv_execute. Returns nullptr for
/// FP16 ops and for a blob shorter than the op's kernels need.
std::shared_ptr<const PackedConvWeights> pack_conv_weights(
    const ConvOp& op, std::span<const std::uint8_t> weights);

/// Run the convolution pipeline on a staged input cube and a raw weight
/// blob laid out [k][c][r][s]. `packed` (may be nullptr) is a pack of the
/// same op's weights: the int8 kernel uses its reordered weights when it
/// matches `weights` byte for byte, and reorders `weights` itself
/// otherwise, so the result is a function of `weights` alone.
ConvAccumulators conv_execute(const ConvOp& op, const CubeBuffer& input,
                              std::span<const std::uint8_t> weights,
                              const PackedConvWeights* packed = nullptr);

/// The instruction-set variant of the int8 conv kernel conv_execute runs
/// on this host: "avx2" where the build has that variant and the CPU
/// supports it, "portable" otherwise.
const char* int8_conv_kernel_isa();

/// Apply the SDP post-processing pipeline. Exactly one of `acc` (flying
/// mode) or `src` (memory mode) is used. `bias_table` holds the BS-channel
/// per-kernel values, `eltwise` the X1-channel cube bytes; either may be
/// empty when the corresponding stage is disabled.
void sdp_execute(const SdpOp& op, const ConvAccumulators* acc,
                 const CubeBuffer* src,
                 std::span<const std::uint8_t> bias_table,
                 std::span<const std::uint8_t> eltwise, CubeBuffer& out);

void pdp_execute(const PdpOp& op, const CubeBuffer& src, CubeBuffer& out);

void cdp_execute(const CdpOp& op, const CubeBuffer& src, CubeBuffer& out);

// ---------------------------------------------------------------------------
// Cycle model (units.cpp); see DESIGN.md §5
// ---------------------------------------------------------------------------

struct OpCost {
  Cycle compute_cycles = 0;
  Cycle dbb_cycles = 0;
  std::uint64_t traffic_bytes = 0;

  Cycle total(const NvdlaTiming& t) const {
    return t.op_overhead + std::max(compute_cycles, dbb_cycles);
  }
};

OpCost conv_cost(const NvdlaConfig& cfg, const ConvOp& op,
                 std::uint64_t output_bytes);
OpCost sdp_cost(const NvdlaConfig& cfg, const SdpOp& op);
OpCost pdp_cost(const NvdlaConfig& cfg, const PdpOp& op);
OpCost cdp_cost(const NvdlaConfig& cfg, const CdpOp& op);
OpCost bdma_cost(const NvdlaConfig& cfg, const BdmaOp& op);

}  // namespace nvsoc::nvdla
