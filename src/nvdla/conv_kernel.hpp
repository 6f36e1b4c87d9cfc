// Internal seam of the int8 conv kernel: its compiled instruction-set
// variants, for tests that check each one the host can run against a
// reference. conv_execute always runs the first (the dispatched) variant;
// nothing outside units.cpp and the tests should pick one.
#pragma once

#include <cstdint>
#include <span>

#include "nvdla/ops.hpp"

namespace nvsoc::nvdla::internal {

/// One compiled variant of the int8 conv kernel: conv_execute's int8 fast
/// path over [k][r][s][c] weights, writing [k][oh][ow] int32 sums.
struct Int8ConvVariant {
  const char* isa;  ///< "avx2" or "portable"
  void (*run)(const ConvOp& op, const CubeBuffer& input,
              const std::int8_t* krsc, std::int32_t* out);
};

/// The variants this build compiled and this CPU can run, the one
/// conv_execute dispatches to first.
std::span<const Int8ConvVariant> runnable_int8_conv_variants();

/// conv_execute with its int8 kernel pinned to `variant`.
ConvAccumulators conv_execute_with(const Int8ConvVariant& variant,
                                   const ConvOp& op, const CubeBuffer& input,
                                   std::span<const std::uint8_t> weights,
                                   const PackedConvWeights* packed = nullptr);

}  // namespace nvsoc::nvdla::internal
