// The compiled-network artifact ("loadable", after the NVDLA compiler's
// output format): the ordered list of hardware-layer descriptors, the packed
// parameter blob, the DRAM placement of every tensor, and the input/output
// quantisation metadata. Serialisable, so compiled networks can be stored
// and shipped — the role ONNC loadables play in the paper's future work §2.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nvdla/ops.hpp"

namespace nvsoc::compiler {

enum class HwOpKind : std::uint8_t {
  kConv = 0,   ///< convolution pipeline + fused SDP tail
  kSdp,        ///< standalone SDP (element-wise / ReLU-only)
  kPdp,        ///< pooling
  kCdp,        ///< LRN
  kBdma,       ///< memory copy
};

const char* hw_op_kind_name(HwOpKind kind);

struct HwOp {
  HwOpKind kind = HwOpKind::kConv;
  /// Source IR layer(s), for diagnostics ("conv1+bn1+scale1+relu1").
  std::string name;
  nvdla::ConvOp conv;  ///< kConv
  nvdla::SdpOp sdp;    ///< kConv (tail) and kSdp
  nvdla::PdpOp pdp;    ///< kPdp
  nvdla::CdpOp cdp;    ///< kCdp
  nvdla::BdmaOp bdma;  ///< kBdma
};

struct Loadable {
  std::string network_name;
  nvdla::Precision precision = nvdla::Precision::kInt8;
  std::uint32_t atom_bytes = 8;

  std::vector<HwOp> ops;

  /// Packed parameters (quantised weights + bias tables), to be placed at
  /// `weight_base` in DRAM before execution.
  std::vector<std::uint8_t> weight_blob;
  Addr weight_base = 0;

  nvdla::SurfaceDesc input_surface;
  nvdla::SurfaceDesc output_surface;
  /// real = scale * stored (1.0 on the FP16 path).
  float input_scale = 1.0f;
  float output_scale = 1.0f;
  /// The final Softmax runs on the CPU (NVDLA has no softmax unit).
  bool softmax_on_cpu = false;

  /// One past the highest DRAM byte used by any tensor.
  std::uint64_t arena_end = 0;

  // --- runtime helpers ----------------------------------------------------
  /// Quantise/pack a planar [c][h][w] float image into the input surface
  /// byte layout (the "input .bin" the paper preloads into DRAM).
  std::vector<std::uint8_t> pack_input(std::span<const float> image) const;
  /// Decode raw output-surface bytes into planar float values (applying the
  /// output scale; softmax applied if softmax_on_cpu).
  std::vector<float> unpack_output(std::span<const std::uint8_t> raw) const;

  // --- serialisation -------------------------------------------------------
  void serialize(std::ostream& os) const;
  /// The loader half of the tool flow's loadable format (round-trip tests).
  static Loadable deserialize(std::istream& is);
  std::vector<std::uint8_t> to_bytes() const;
  /// The loader half of the tool flow's loadable format (round-trip tests).
  static Loadable from_bytes(std::span<const std::uint8_t> bytes);
};

}  // namespace nvsoc::compiler
