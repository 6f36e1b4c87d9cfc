// Functional replay of a recorded op schedule — the execution entry points
// of the five op pipelines decoupled from the timed CSB path.
//
// The paper's bare-metal-flow insight, applied as a runtime optimisation:
// for a fixed (network, hardware-tree) pair the CSB programming sequence,
// the decoded op descriptors and the analytic per-op timing are all
// input-independent — only the data payloads differ between images. A
// full cycle-accurate run therefore needs to happen once; every further
// image can *replay* the recorded ops functionally (DMA payload movement
// plus the op math on the new input surfaces) with no register
// programming, no bus arbitration, no trace capture and no µRISC-V ISS.
//
// `ReplayOp` is what the engine records at each launch (see
// Nvdla::set_op_recorder); `replay_op` re-executes one record against a
// byte-addressable memory using the same functional kernels as the timed
// paths, so replayed outputs are bit-identical by construction.
#pragma once

#include <memory>
#include <span>

#include "nvdla/config.hpp"
#include "nvdla/ops.hpp"

namespace nvsoc::nvdla {

/// Byte-addressable memory a replay executes against. Implementations wrap
/// whatever backs the platform (the VP's DRAM model via its zero-time
/// backdoor); no cycles are consumed.
class ReplayMemory {
 public:
  virtual ~ReplayMemory() = default;
  virtual void read(Addr addr, std::span<std::uint8_t> out) const = 0;
  virtual void write(Addr addr, std::span<const std::uint8_t> data) = 0;
};

/// One launched hardware-layer op, decoded from the descriptor registers at
/// its CSB enable, with the completion time the analytic cycle model
/// assigned to it. The payload fields mirror the launch kinds of
/// Nvdla::try_launch: a convolution carries both the conv chain and the
/// flying-mode SDP that consumed its accumulators.
struct ReplayOp {
  enum class Kind { kConv, kSdp, kPdp, kCdp, kBdma };

  Kind kind = Kind::kConv;
  Cycle launch = 0;
  Cycle complete = 0;

  ConvOp conv;  ///< kConv
  /// kConv, int8: the op's weights packed once for the conv kernel, set
  /// when a replay schedule is made (core::make_replay_schedule) and null
  /// on records fresh from the engine. Immutable and shared by every
  /// replay of the schedule; replay_op uses it only while the weight bytes
  /// it reads from memory still equal the pack's source bytes.
  std::shared_ptr<const PackedConvWeights> packed_weights;
  SdpOp sdp;    ///< kConv (flying tail) and kSdp (standalone)
  PdpOp pdp;    ///< kPdp
  CdpOp cdp;    ///< kCdp
  BdmaOp bdma;  ///< kBdma
};

/// Execute one recorded op functionally: the same surface staging, DMA byte
/// movement and kernel math as the timed engine paths (run_conv et al.),
/// minus all cycle accounting. Ops must be replayed in recorded (launch)
/// order — they chain through memory.
void replay_op(const NvdlaConfig& config, const ReplayOp& op,
               ReplayMemory& mem);

}  // namespace nvsoc::nvdla
