#include "nvdla/engine.hpp"

#include <algorithm>

#include "common/strfmt.hpp"

namespace nvsoc::nvdla {

namespace {

/// Descriptor registers are indexed from page offset 0x0C in word steps.
constexpr std::size_t desc_index(Addr offset) {
  return (offset - 0x0C) / 4;
}

constexpr bool is_desc_offset(Addr offset) {
  return offset >= 0x0C && desc_index(offset) < kGroupRegs;
}

}  // namespace

Nvdla::Nvdla(NvdlaConfig config, AxiTarget& dbb_port)
    : config_(std::move(config)), dbb_(dbb_port, config_) {}

void Nvdla::reset() {
  units_ = {};
  intr_mask_ = 0;
  intr_events_.clear();
  conv_busy_until_ = sdp_busy_until_ = pdp_busy_until_ = cdp_busy_until_ =
      bdma_busy_until_ = 0;
  last_completion_ = 0;
  stats_ = {};
  op_records_.clear();
}

std::uint32_t Nvdla::reg(Unit u, unsigned group, Addr offset) const {
  return unit(u).regs[group][desc_index(offset)];
}

std::uint32_t Nvdla::intr_status_at(Cycle now) const {
  std::uint32_t status = 0;
  for (const auto& event : intr_events_) {
    if (event.at <= now) status |= 1u << event.bit;
  }
  return status;
}

bool Nvdla::irq_pending(Cycle now) const {
  return (intr_status_at(now) & ~intr_mask_) != 0;
}

std::optional<Cycle> Nvdla::next_completion_after(Cycle now) const {
  std::optional<Cycle> best;
  for (const auto& event : intr_events_) {
    if (event.at <= now) continue;
    if (!best || event.at < *best) best = event.at;
  }
  return best;
}

CsbResponse Nvdla::glb_access(const CsbRequest& req) {
  const Addr offset = req.addr;  // GLB base is 0
  CsbResponse rsp{Status::ok(), 0, req.start + config_.timing.csb_internal};
  if (req.is_write) {
    switch (offset) {
      case glb::kIntrMask:
        intr_mask_ = req.wdata;
        break;
      case glb::kIntrSet:
        // Software-set interrupt (test feature): posts an immediate event
        // for every bit written.
        for (unsigned bit = 0; bit < 32; ++bit) {
          if (req.wdata & (1u << bit)) {
            intr_events_.push_back({bit, req.start});
          }
        }
        break;
      case glb::kIntrStatus:
        // W1C: clears only events visible at the write's timestamp. A
        // cleared event is erased, so the status polls and the completion
        // look-ahead scan only the events still pending.
        std::erase_if(intr_events_, [&](const IntrEvent& event) {
          return event.at <= req.start && (req.wdata & (1u << event.bit));
        });
        break;
      default:
        break;  // writes to RO/unknown GLB registers are ignored
    }
    return rsp;
  }
  switch (offset) {
    case glb::kHwVersion: rsp.rdata = config_.hw_version(); break;
    case glb::kIntrMask: rsp.rdata = intr_mask_; break;
    case glb::kIntrStatus: rsp.rdata = intr_status_at(req.start); break;
    default: rsp.rdata = 0; break;
  }
  return rsp;
}

CsbResponse Nvdla::csb_access(const CsbRequest& req) {
  CsbResponse rsp;
  // Injected CSB faults (reads only — the classes production watchdogs
  // see): a timeout completes only at the watchdog latency with
  // kDeadlineExceeded; an error response is transient (kUnavailable).
  // Both reach the KMD as an error status, or — on the bare-metal path —
  // ride the bus bridges into a CPU bus-error halt whose detail carries
  // the status name for the typed mapping at the execution boundary.
  if (fault_ != nullptr && !req.is_write) {
    constexpr Cycle kWatchdogCycles = 4096;
    if (fault_->fire(fault::Kind::kCsbTimeout)) {
      ++stats_.csb_reads;
      return CsbResponse{
          Status(StatusCode::kDeadlineExceeded,
                 strfmt("injected CSB read timeout at {:#x} (watchdog after "
                        "{} cycles)",
                        req.addr, kWatchdogCycles)),
          0, req.start + kWatchdogCycles};
    }
    if (fault_->fire(fault::Kind::kCsbError)) {
      ++stats_.csb_reads;
      return CsbResponse{
          Status(StatusCode::kUnavailable,
                 strfmt("injected CSB error response at {:#x}", req.addr)),
          0, req.start + config_.timing.csb_internal};
    }
  }
  const auto owner = unit_for_address(req.addr);
  if (!owner) {
    rsp = CsbResponse{Status(StatusCode::kBusError,
                             strfmt("CSB access to unmapped {:#x}", req.addr)),
                      0, req.start + 1};
  } else if (*owner == Unit::kGlb) {
    rsp = glb_access(req);
  } else {
    UnitState& state = unit(*owner);
    const Addr offset = req.addr - unit_base(*owner);
    rsp = CsbResponse{Status::ok(), 0,
                      req.start + config_.timing.csb_internal};
    if (req.is_write) {
      if (offset == ctrl::kPointer) {
        state.pointer = req.wdata & 1u;
      } else if (offset == ctrl::kOpEnable) {
        if (req.wdata & 1u) {
          const unsigned group = state.pointer;
          state.armed[group] = true;
          try_launch(*owner, group, rsp.complete);
        }
      } else if (is_desc_offset(offset)) {
        state.regs[state.pointer][desc_index(offset)] = req.wdata;
      }
      // Writes to S_STATUS / unknown offsets are ignored (RO).
    } else {
      if (offset == ctrl::kStatus) {
        Cycle busy_until = 0;
        switch (*owner) {
          case Unit::kCdma: case Unit::kCsc: case Unit::kCmac:
          case Unit::kCacc:
            busy_until = conv_busy_until_;
            break;
          case Unit::kSdp: case Unit::kSdpRdma:
            busy_until = sdp_busy_until_;
            break;
          case Unit::kPdp: busy_until = pdp_busy_until_; break;
          case Unit::kCdp: busy_until = cdp_busy_until_; break;
          case Unit::kBdma: busy_until = bdma_busy_until_; break;
          default: break;
        }
        rsp.rdata = req.start < busy_until ? 1u : 0u;
      } else if (offset == ctrl::kPointer) {
        rsp.rdata = state.pointer;
      } else if (offset == ctrl::kOpEnable) {
        rsp.rdata = state.armed[state.pointer] ? 1u : 0u;
      } else if (is_desc_offset(offset)) {
        rsp.rdata = state.regs[state.pointer][desc_index(offset)];
      }
    }
  }

  if (req.is_write) ++stats_.csb_writes; else ++stats_.csb_reads;
  return rsp;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

SurfaceDesc Nvdla::surface_from_regs(Unit u, unsigned group, Addr addr_reg,
                                     Addr line_reg, Addr surf_reg,
                                     CubeDims dims,
                                     Precision precision) const {
  SurfaceDesc d;
  d.base = reg(u, group, addr_reg);
  d.line_stride = reg(u, group, line_reg);
  d.surf_stride = reg(u, group, surf_reg);
  d.dims = dims;
  d.precision = precision;
  d.atom_bytes = config_.atom_bytes;
  return d;
}

ConvOp Nvdla::decode_conv(unsigned group) const {
  ConvOp op;
  op.precision = (reg(Unit::kCdma, group, cdma::kDatainFormat) & 1)
                     ? Precision::kFp16
                     : Precision::kInt8;
  const std::uint32_t size0 = reg(Unit::kCdma, group, cdma::kDatainSize0);
  const CubeDims in_dims{size0 & 0xFFFF, size0 >> 16,
                         reg(Unit::kCdma, group, cdma::kDatainSize1)};
  op.input = surface_from_regs(Unit::kCdma, group, cdma::kDainAddr,
                               cdma::kDainLineStride, cdma::kDainSurfStride,
                               in_dims, op.precision);
  op.weight_addr = reg(Unit::kCdma, group, cdma::kWeightAddr);
  op.weight_bytes = reg(Unit::kCdma, group, cdma::kWeightBytes);
  const std::uint32_t pad = reg(Unit::kCdma, group, cdma::kZeroPadding);
  op.pad_left = pad & 0xFF;
  op.pad_top = (pad >> 8) & 0xFF;
  op.pad_right = (pad >> 16) & 0xFF;
  op.pad_bottom = (pad >> 24) & 0xFF;
  const std::uint32_t stride = reg(Unit::kCdma, group, cdma::kConvStride);
  op.stride_x = std::max(1u, stride & 0xFFFF);
  op.stride_y = std::max(1u, stride >> 16);
  op.pad_value = static_cast<std::int32_t>(
      reg(Unit::kCdma, group, cdma::kPadValue));
  const std::uint32_t ksize = reg(Unit::kCsc, group, csc::kKernelSize);
  op.kernel_w = ksize & 0xFFFF;
  op.kernel_h = ksize >> 16;
  op.kernel_c = reg(Unit::kCsc, group, csc::kKernelChannels);
  op.kernel_k = reg(Unit::kCsc, group, csc::kKernelNumber);
  op.groups = std::max(1u, reg(Unit::kCsc, group, csc::kKernelGroups));
  const std::uint32_t out0 = reg(Unit::kCacc, group, cacc::kDataoutSize0);
  op.out_w = out0 & 0xFFFF;
  op.out_h = out0 >> 16;
  return op;
}

SdpOp Nvdla::decode_sdp(unsigned group) const {
  SdpOp op;
  op.out_precision = (reg(Unit::kSdp, group, sdp::kOutPrecision) & 1)
                         ? Precision::kFp16
                         : Precision::kInt8;
  op.in_precision = op.out_precision;
  op.dims = CubeDims{reg(Unit::kSdp, group, sdp::kCubeWidth),
                     reg(Unit::kSdp, group, sdp::kCubeHeight),
                     reg(Unit::kSdp, group, sdp::kCubeChannel)};
  op.src = surface_from_regs(Unit::kSdp, group, sdp::kSrcBaseAddr,
                             sdp::kSrcLineStride, sdp::kSrcSurfStride, op.dims,
                             op.in_precision);
  op.dst = surface_from_regs(Unit::kSdp, group, sdp::kDstBaseAddr,
                             sdp::kDstLineStride, sdp::kDstSurfStride, op.dims,
                             op.out_precision);
  const std::uint32_t cfg = reg(Unit::kSdp, group, sdp::kOpCfg);
  op.bias_enable = cfg & 1u;
  op.relu_enable = cfg & 2u;
  op.eltwise_enable = cfg & 4u;
  op.operand_addr = reg(Unit::kSdpRdma, group, sdp_rdma::kBrdmaAddr);
  op.operand_line_stride =
      reg(Unit::kSdpRdma, group, sdp_rdma::kBrdmaLineStride);
  op.operand_surf_stride =
      reg(Unit::kSdpRdma, group, sdp_rdma::kBrdmaSurfStride);
  op.operand_per_element =
      reg(Unit::kSdpRdma, group, sdp_rdma::kBrdmaMode) & 1u;
  op.bias_addr = reg(Unit::kSdpRdma, group, sdp_rdma::kBsAddr);
  op.cvt_scale = static_cast<std::int16_t>(
      reg(Unit::kSdp, group, sdp::kCvtScale) & 0xFFFF);
  op.cvt_shift = reg(Unit::kSdp, group, sdp::kCvtShift) & 31u;
  if (op.cvt_scale == 0) op.cvt_scale = 1;
  return op;
}

PdpOp Nvdla::decode_pdp(unsigned group) const {
  PdpOp op;
  op.precision = (reg(Unit::kPdp, group, pdp::kPrecision) & 1)
                     ? Precision::kFp16
                     : Precision::kInt8;
  const CubeDims in_dims{reg(Unit::kPdp, group, pdp::kCubeInWidth),
                         reg(Unit::kPdp, group, pdp::kCubeInHeight),
                         reg(Unit::kPdp, group, pdp::kCubeInChannel)};
  const CubeDims out_dims{reg(Unit::kPdp, group, pdp::kCubeOutWidth),
                          reg(Unit::kPdp, group, pdp::kCubeOutHeight),
                          in_dims.c};
  op.src = surface_from_regs(Unit::kPdp, group, pdp::kSrcBaseAddr,
                             pdp::kSrcLineStride, pdp::kSrcSurfStride, in_dims,
                             op.precision);
  op.dst = surface_from_regs(Unit::kPdp, group, pdp::kDstBaseAddr,
                             pdp::kDstLineStride, pdp::kDstSurfStride,
                             out_dims, op.precision);
  const std::uint32_t kcfg = reg(Unit::kPdp, group, pdp::kKernelCfg);
  op.kernel_w = kcfg & 0xFF;
  op.kernel_h = (kcfg >> 8) & 0xFF;
  op.average = ((kcfg >> 16) & 0xF) == pdp::kModeAvg;
  op.stride_x = std::max(1u, (kcfg >> 20) & 0xF);
  op.stride_y = std::max(1u, (kcfg >> 24) & 0xF);
  const std::uint32_t pad = reg(Unit::kPdp, group, pdp::kPaddingCfg);
  op.pad_left = pad & 0xFF;
  op.pad_top = (pad >> 8) & 0xFF;
  op.pad_right = (pad >> 16) & 0xFF;
  op.pad_bottom = (pad >> 24) & 0xFF;
  return op;
}

CdpOp Nvdla::decode_cdp(unsigned group) const {
  CdpOp op;
  op.precision = (reg(Unit::kCdp, group, cdp::kPrecision) & 1)
                     ? Precision::kFp16
                     : Precision::kInt8;
  const CubeDims dims{reg(Unit::kCdp, group, cdp::kCubeWidth),
                      reg(Unit::kCdp, group, cdp::kCubeHeight),
                      reg(Unit::kCdp, group, cdp::kCubeChannel)};
  op.src = surface_from_regs(Unit::kCdp, group, cdp::kSrcBaseAddr,
                             cdp::kSrcLineStride, cdp::kSrcSurfStride, dims,
                             op.precision);
  op.dst = surface_from_regs(Unit::kCdp, group, cdp::kDstBaseAddr,
                             cdp::kDstLineStride, cdp::kDstSurfStride, dims,
                             op.precision);
  op.local_size = std::max(1u, reg(Unit::kCdp, group, cdp::kLocalSize));
  op.alpha_q16 = reg(Unit::kCdp, group, cdp::kAlphaQ16);
  op.beta_q16 = reg(Unit::kCdp, group, cdp::kBetaQ16);
  op.k_q16 = reg(Unit::kCdp, group, cdp::kKQ16);
  op.in_scale_q16 = reg(Unit::kCdp, group, cdp::kInScaleQ16);
  return op;
}

BdmaOp Nvdla::decode_bdma(unsigned group) const {
  BdmaOp op;
  op.src_addr = reg(Unit::kBdma, group, bdma::kSrcAddr);
  op.dst_addr = reg(Unit::kBdma, group, bdma::kDstAddr);
  op.line_size = reg(Unit::kBdma, group, bdma::kLineSize);
  op.line_repeat = std::max(1u, reg(Unit::kBdma, group, bdma::kLineRepeat));
  op.src_stride = reg(Unit::kBdma, group, bdma::kSrcStride);
  op.dst_stride = reg(Unit::kBdma, group, bdma::kDstStride);
  return op;
}

// ---------------------------------------------------------------------------
// Launch + execution
// ---------------------------------------------------------------------------

void Nvdla::try_launch(Unit enabled_unit, unsigned group, Cycle now) {
  switch (enabled_unit) {
    case Unit::kPdp:
      unit(Unit::kPdp).armed[group] = false;
      run_pdp(group, std::max(now, pdp_busy_until_));
      return;
    case Unit::kCdp:
      unit(Unit::kCdp).armed[group] = false;
      run_cdp(group, std::max(now, cdp_busy_until_));
      return;
    case Unit::kBdma:
      unit(Unit::kBdma).armed[group] = false;
      run_bdma(group, std::max(now, bdma_busy_until_));
      return;
    case Unit::kSdp: {
      // Standalone (memory-source) SDP launches on its own; a flying-mode
      // SDP waits for the convolution chain below.
      const SdpOp op = decode_sdp(group);
      if (!op.flying_mode()) {
        unit(Unit::kSdp).armed[group] = false;
        run_sdp_standalone(group, std::max(now, sdp_busy_until_));
        return;
      }
      break;
    }
    default:
      break;
  }

  // Convolution chain: launches when CDMA, CSC, CMAC, CACC and a
  // flying-mode SDP are all armed on the same group.
  const bool chain_ready =
      unit(Unit::kCdma).armed[group] && unit(Unit::kCsc).armed[group] &&
      unit(Unit::kCmac).armed[group] && unit(Unit::kCacc).armed[group] &&
      unit(Unit::kSdp).armed[group];
  if (chain_ready) {
    for (Unit u : {Unit::kCdma, Unit::kCsc, Unit::kCmac, Unit::kCacc,
                   Unit::kSdp, Unit::kSdpRdma}) {
      unit(u).armed[group] = false;
    }
    run_conv(group, std::max({now, conv_busy_until_, sdp_busy_until_}));
  }
}

void Nvdla::post_interrupt(glb::IntrSource source, unsigned group, Cycle at) {
  const std::uint32_t bit =
      static_cast<std::uint32_t>(source) * 2 + (group & 1);
  intr_events_.push_back({bit, at});
}

void Nvdla::record_op(Unit u, Cycle launch, Cycle complete,
                      const OpCost& cost) {
  op_records_.push_back({u, launch, complete, cost});
  last_completion_ = std::max(last_completion_, complete);
}

namespace {

ReplayOp replay_record(ReplayOp::Kind kind, Cycle launch, Cycle complete) {
  ReplayOp op;
  op.kind = kind;
  op.launch = launch;
  op.complete = complete;
  return op;
}

}  // namespace

Cycle Nvdla::run_conv(unsigned group, Cycle start) {
  const ConvOp conv = decode_conv(group);
  const SdpOp sdp_op = decode_sdp(group);

  // Stage input cube and weights through the DBB.
  CubeBuffer input(conv.input);
  Cycle t = dbb_.read(conv.input.base, input.bytes(), start);
  std::vector<std::uint8_t> weights(conv.weight_bytes);
  t = dbb_.read(conv.weight_addr, weights, t);

  std::vector<std::uint8_t> bias_table;
  if (sdp_op.bias_enable) {
    bias_table.resize(static_cast<std::size_t>(sdp_op.dims.c) * 4);
    t = dbb_.read(sdp_op.bias_addr, bias_table, t);
  }
  std::vector<std::uint8_t> eltwise;
  if (sdp_op.eltwise_enable) {
    eltwise.resize(static_cast<std::size_t>(sdp_op.operand_surf_stride) *
                   ceil_div(sdp_op.dims.c,
                            config_.atom_bytes /
                                elem_size_bytes(sdp_op.out_precision)));
    t = dbb_.read(sdp_op.operand_addr, eltwise, t);
  }

  const ConvAccumulators acc = conv_execute(conv, input, weights);
  CubeBuffer out(sdp_op.dst);
  sdp_execute(sdp_op, &acc, nullptr, bias_table, eltwise, out);
  t = dbb_.write(sdp_op.dst.base, out.bytes(), t);

  const std::uint64_t out_bytes = out.bytes().size();
  OpCost cost = conv_cost(config_, conv, out_bytes);
  const Cycle complete = std::max(t, start + cost.total(config_.timing));
  conv_busy_until_ = complete;
  sdp_busy_until_ = complete;
  ++stats_.conv_ops;
  post_interrupt(glb::IntrSource::kCacc, group, complete);
  post_interrupt(glb::IntrSource::kSdp, group, complete);
  record_op(Unit::kCacc, start, complete, cost);
  if (op_recorder_) {
    ReplayOp record = replay_record(ReplayOp::Kind::kConv, start, complete);
    record.conv = conv;
    record.sdp = sdp_op;
    op_recorder_(record);
  }
  return complete;
}

Cycle Nvdla::run_sdp_standalone(unsigned group, Cycle start) {
  const SdpOp op = decode_sdp(group);
  CubeBuffer src(op.src);
  Cycle t = dbb_.read(op.src.base, src.bytes(), start);

  std::vector<std::uint8_t> bias_table;
  if (op.bias_enable) {
    bias_table.resize(static_cast<std::size_t>(op.dims.c) * 4);
    t = dbb_.read(op.bias_addr, bias_table, t);
  }
  std::vector<std::uint8_t> eltwise;
  if (op.eltwise_enable) {
    eltwise.resize(static_cast<std::size_t>(op.operand_surf_stride) *
                   ceil_div(op.dims.c,
                            config_.atom_bytes /
                                elem_size_bytes(op.out_precision)));
    t = dbb_.read(op.operand_addr, eltwise, t);
  }

  CubeBuffer out(op.dst);
  sdp_execute(op, nullptr, &src, bias_table, eltwise, out);
  t = dbb_.write(op.dst.base, out.bytes(), t);

  const OpCost cost = sdp_cost(config_, op);
  const Cycle complete = std::max(t, start + cost.total(config_.timing));
  sdp_busy_until_ = complete;
  ++stats_.sdp_ops;
  post_interrupt(glb::IntrSource::kSdp, group, complete);
  record_op(Unit::kSdp, start, complete, cost);
  if (op_recorder_) {
    ReplayOp record = replay_record(ReplayOp::Kind::kSdp, start, complete);
    record.sdp = op;
    op_recorder_(record);
  }
  return complete;
}

Cycle Nvdla::run_pdp(unsigned group, Cycle start) {
  const PdpOp op = decode_pdp(group);
  CubeBuffer src(op.src);
  Cycle t = dbb_.read(op.src.base, src.bytes(), start);
  CubeBuffer out(op.dst);
  pdp_execute(op, src, out);
  t = dbb_.write(op.dst.base, out.bytes(), t);

  const OpCost cost = pdp_cost(config_, op);
  const Cycle complete = std::max(t, start + cost.total(config_.timing));
  pdp_busy_until_ = complete;
  ++stats_.pdp_ops;
  post_interrupt(glb::IntrSource::kPdp, group, complete);
  record_op(Unit::kPdp, start, complete, cost);
  if (op_recorder_) {
    ReplayOp record = replay_record(ReplayOp::Kind::kPdp, start, complete);
    record.pdp = op;
    op_recorder_(record);
  }
  return complete;
}

Cycle Nvdla::run_cdp(unsigned group, Cycle start) {
  const CdpOp op = decode_cdp(group);
  CubeBuffer src(op.src);
  Cycle t = dbb_.read(op.src.base, src.bytes(), start);
  CubeBuffer out(op.dst);
  cdp_execute(op, src, out);
  t = dbb_.write(op.dst.base, out.bytes(), t);

  const OpCost cost = cdp_cost(config_, op);
  const Cycle complete = std::max(t, start + cost.total(config_.timing));
  cdp_busy_until_ = complete;
  ++stats_.cdp_ops;
  post_interrupt(glb::IntrSource::kCdp, group, complete);
  record_op(Unit::kCdp, start, complete, cost);
  if (op_recorder_) {
    ReplayOp record = replay_record(ReplayOp::Kind::kCdp, start, complete);
    record.cdp = op;
    op_recorder_(record);
  }
  return complete;
}

Cycle Nvdla::run_bdma(unsigned group, Cycle start) {
  const BdmaOp op = decode_bdma(group);
  Cycle t = start;
  std::vector<std::uint8_t> line(op.line_size);
  for (std::uint32_t i = 0; i < op.line_repeat; ++i) {
    t = dbb_.read(op.src_addr + static_cast<Addr>(i) * op.src_stride, line, t);
    t = dbb_.write(op.dst_addr + static_cast<Addr>(i) * op.dst_stride, line,
                   t);
  }
  const OpCost cost = bdma_cost(config_, op);
  const Cycle complete = std::max(t, start + cost.total(config_.timing));
  bdma_busy_until_ = complete;
  ++stats_.bdma_ops;
  post_interrupt(glb::IntrSource::kBdma, group, complete);
  record_op(Unit::kBdma, start, complete, cost);
  if (op_recorder_) {
    ReplayOp record = replay_record(ReplayOp::Kind::kBdma, start, complete);
    record.bdma = op;
    op_recorder_(record);
  }
  return complete;
}

}  // namespace nvsoc::nvdla
