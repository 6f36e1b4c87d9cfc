// NVDLA register map (byte offsets within the NVDLA CSB space).
//
// The layout mirrors the NVDLA address assignment: one 4 KiB page per
// functional unit, a common control block at the start of each page
// (S_STATUS / S_POINTER / D_OP_ENABLE) and unit-specific descriptor
// registers after it. The register subset is the one the nvsoc compiler
// programs; names follow the NVDLA hardware manual.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace nvsoc::nvdla {

/// Functional units, in address order.
enum class Unit : std::uint8_t {
  kGlb = 0,
  kMcif,
  kBdma,
  kCdma,
  kCsc,
  kCmac,
  kCacc,
  kSdpRdma,
  kSdp,
  kPdp,
  kCdp,
  kCount,
};

inline constexpr std::size_t kNumUnits = static_cast<std::size_t>(Unit::kCount);

/// 4 KiB register page per unit.
inline constexpr Addr kUnitPage = 0x1000;

constexpr Addr unit_base(Unit unit) {
  switch (unit) {
    case Unit::kGlb: return 0x0000;
    case Unit::kMcif: return 0x1000;
    case Unit::kBdma: return 0x3000;
    case Unit::kCdma: return 0x4000;
    case Unit::kCsc: return 0x5000;
    case Unit::kCmac: return 0x6000;
    case Unit::kCacc: return 0x8000;
    case Unit::kSdpRdma: return 0x9000;
    case Unit::kSdp: return 0xA000;
    case Unit::kPdp: return 0xC000;
    case Unit::kCdp: return 0xE000;
    case Unit::kCount: break;
  }
  return 0xF000;
}

/// Map a CSB byte address to the owning unit (by page).
std::optional<Unit> unit_for_address(Addr addr);

std::string_view unit_name(Unit unit);

// ---------------------------------------------------------------------------
// GLB registers
// ---------------------------------------------------------------------------
namespace glb {
inline constexpr Addr kHwVersion = 0x0000;
inline constexpr Addr kIntrMask = 0x0004;
inline constexpr Addr kIntrSet = 0x0008;
inline constexpr Addr kIntrStatus = 0x000C;  // W1C

/// Interrupt bit for a unit's done event: bit = source*2 + group.
enum class IntrSource : std::uint8_t {
  kCacc = 0,  ///< convolution pipeline done
  kSdp = 1,
  kPdp = 2,
  kCdp = 3,
  kBdma = 4,
};
constexpr std::uint32_t intr_bit(IntrSource src, unsigned group) {
  return 1u << (static_cast<unsigned>(src) * 2 + (group & 1));
}
}  // namespace glb

// ---------------------------------------------------------------------------
// Common per-unit control block (offsets within the unit page)
// ---------------------------------------------------------------------------
namespace ctrl {
inline constexpr Addr kStatus = 0x00;     // RO: 0 idle, else busy
inline constexpr Addr kPointer = 0x04;    // bit0: producer register group
inline constexpr Addr kOpEnable = 0x08;   // write 1: launch producer group
}  // namespace ctrl

/// Number of ping-pong register groups per unit.
inline constexpr unsigned kNumGroups = 2;
/// Descriptor registers live at page offsets [0x0C, kGroupRegs*4 + 0x0C).
inline constexpr std::size_t kGroupRegs = 64;

// ---------------------------------------------------------------------------
// Unit descriptor registers (offsets within the unit page)
// ---------------------------------------------------------------------------
namespace cdma {
inline constexpr Addr kDatainFormat = 0x0C;     // 0 int8, 1 fp16
inline constexpr Addr kDatainSize0 = 0x10;      // w | h<<16
inline constexpr Addr kDatainSize1 = 0x14;      // c
inline constexpr Addr kDainAddr = 0x18;
inline constexpr Addr kDainLineStride = 0x1C;
inline constexpr Addr kDainSurfStride = 0x20;
inline constexpr Addr kWeightAddr = 0x24;
inline constexpr Addr kWeightBytes = 0x28;
inline constexpr Addr kZeroPadding = 0x2C;      // l | t<<8 | r<<16 | b<<24
inline constexpr Addr kConvStride = 0x30;       // sx | sy<<16
inline constexpr Addr kPadValue = 0x34;
}  // namespace cdma

namespace csc {
inline constexpr Addr kKernelSize = 0x0C;       // s | r<<16 (width | height)
inline constexpr Addr kKernelChannels = 0x10;   // channels per kernel group
inline constexpr Addr kKernelNumber = 0x14;
/// Channel groups (the compiler's split for grouped/depthwise convolution;
/// plain convolution uses 1).
inline constexpr Addr kKernelGroups = 0x18;
}  // namespace csc

namespace cmac {
inline constexpr Addr kMiscCfg = 0x0C;          // bit0: proc precision
}  // namespace cmac

namespace cacc {
inline constexpr Addr kDataoutSize0 = 0x0C;     // w | h<<16
inline constexpr Addr kDataoutSize1 = 0x10;     // k
inline constexpr Addr kClipTruncate = 0x14;
}  // namespace cacc

namespace sdp_rdma {
inline constexpr Addr kBrdmaAddr = 0x0C;        // X1: eltwise operand cube
inline constexpr Addr kBrdmaLineStride = 0x10;
inline constexpr Addr kBrdmaSurfStride = 0x14;
inline constexpr Addr kBrdmaMode = 0x18;        // 0 per-kernel, 1 per-element
inline constexpr Addr kBrdmaPrecision = 0x1C;   // operand precision
inline constexpr Addr kBsAddr = 0x20;           // BS: per-kernel bias table
}  // namespace sdp_rdma

namespace sdp {
inline constexpr Addr kCubeWidth = 0x0C;
inline constexpr Addr kCubeHeight = 0x10;
inline constexpr Addr kCubeChannel = 0x14;
inline constexpr Addr kSrcBaseAddr = 0x18;      // 0 = on-the-fly from CACC
inline constexpr Addr kSrcLineStride = 0x1C;
inline constexpr Addr kSrcSurfStride = 0x20;
inline constexpr Addr kDstBaseAddr = 0x24;
inline constexpr Addr kDstLineStride = 0x28;
inline constexpr Addr kDstSurfStride = 0x2C;
inline constexpr Addr kOpCfg = 0x30;            // bit0 bias, bit1 relu, bit2 eltwise-add
inline constexpr Addr kCvtScale = 0x34;         // int16 multiplier
inline constexpr Addr kCvtShift = 0x38;         // right shift amount
inline constexpr Addr kOutPrecision = 0x3C;
}  // namespace sdp

namespace pdp {
inline constexpr Addr kCubeInWidth = 0x0C;
inline constexpr Addr kCubeInHeight = 0x10;
inline constexpr Addr kCubeInChannel = 0x14;
inline constexpr Addr kCubeOutWidth = 0x18;
inline constexpr Addr kCubeOutHeight = 0x1C;
inline constexpr Addr kKernelCfg = 0x20;   // kw | kh<<8 | mode<<16 | sx<<20 | sy<<24
inline constexpr Addr kPaddingCfg = 0x24;  // l | t<<8 | r<<16 | b<<24
inline constexpr Addr kSrcBaseAddr = 0x28;
inline constexpr Addr kSrcLineStride = 0x2C;
inline constexpr Addr kSrcSurfStride = 0x30;
inline constexpr Addr kDstBaseAddr = 0x34;
inline constexpr Addr kDstLineStride = 0x38;
inline constexpr Addr kDstSurfStride = 0x3C;
inline constexpr Addr kPrecision = 0x40;
inline constexpr std::uint32_t kModeMax = 0;
inline constexpr std::uint32_t kModeAvg = 1;
}  // namespace pdp

namespace cdp {
inline constexpr Addr kCubeWidth = 0x0C;
inline constexpr Addr kCubeHeight = 0x10;
inline constexpr Addr kCubeChannel = 0x14;
inline constexpr Addr kSrcBaseAddr = 0x18;
inline constexpr Addr kSrcLineStride = 0x1C;
inline constexpr Addr kSrcSurfStride = 0x20;
inline constexpr Addr kDstBaseAddr = 0x24;
inline constexpr Addr kDstLineStride = 0x28;
inline constexpr Addr kDstSurfStride = 0x2C;
inline constexpr Addr kLocalSize = 0x30;
inline constexpr Addr kAlphaQ16 = 0x34;         // alpha * 2^16
inline constexpr Addr kBetaQ16 = 0x38;          // beta * 2^16
inline constexpr Addr kKQ16 = 0x3C;             // k * 2^16
inline constexpr Addr kInScaleQ16 = 0x40;       // input dequant scale * 2^16
inline constexpr Addr kPrecision = 0x44;
}  // namespace cdp

namespace bdma {
inline constexpr Addr kSrcAddr = 0x0C;
inline constexpr Addr kDstAddr = 0x10;
inline constexpr Addr kLineSize = 0x14;
inline constexpr Addr kLineRepeat = 0x18;
inline constexpr Addr kSrcStride = 0x1C;
inline constexpr Addr kDstStride = 0x20;
}  // namespace bdma

/// Human-readable register name ("cdma.d_dain_addr") for the annotated
/// bare-metal assembly; falls back to "unit.+0xOFF".
std::string register_name(Addr csb_addr);

}  // namespace nvsoc::nvdla
