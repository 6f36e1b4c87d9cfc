#include "mem/dram.hpp"

#include <cstring>
#include "common/strfmt.hpp"
#include <stdexcept>

namespace nvsoc {

Dram::Dram(std::uint64_t size_bytes, DramTiming timing)
    : size_(size_bytes), timing_(timing) {
  if (size_bytes == 0) throw std::runtime_error("DRAM size must be nonzero");
}

std::uint8_t* Dram::page_for(Addr addr, bool create) {
  const std::uint64_t page_index = addr / kPageBytes;
  auto it = pages_.find(page_index);
  if (it == pages_.end()) {
    if (!create) return nullptr;
    auto page = std::make_unique<std::uint8_t[]>(kPageBytes);
    std::memset(page.get(), 0, kPageBytes);
    it = pages_.emplace(page_index, std::move(page)).first;
  }
  return it->second.get();
}

const std::uint8_t* Dram::page_for(Addr addr) const {
  const auto it = pages_.find(addr / kPageBytes);
  return it == pages_.end() ? nullptr : it->second.get();
}

BusResponse Dram::access(const BusRequest& req) {
  if (req.addr + 4 > size_) {
    BusResponse rsp{Status(StatusCode::kOutOfRange,
                           strfmt("DRAM access at {:#x} beyond {:#x}",
                                       req.addr, size_)),
                    0, req.start + 1};
    stats_.note(req, rsp, 1);
    return rsp;
  }
  if ((req.addr & 0x3u) != 0) {
    BusResponse rsp{Status(StatusCode::kUnaligned,
                           strfmt("DRAM word access at {:#x} unaligned",
                                       req.addr)),
                    0, req.start + 1};
    stats_.note(req, rsp, 1);
    return rsp;
  }

  const std::uint64_t row = req.addr / timing_.row_bytes;
  Cycle latency;
  if (row != open_row_) {
    latency = timing_.row_miss;
  } else if (last_complete_ > 0 &&
             req.start <= last_complete_ + timing_.streaming_gap) {
    latency = timing_.streaming_beat;  // pipelined burst beat
  } else {
    latency = timing_.row_hit;
  }
  open_row_ = row;

  BusResponse rsp{Status::ok(), 0, req.start + latency};
  last_complete_ = rsp.complete;
  const std::uint64_t in_page = req.addr % kPageBytes;
  if (req.is_write) {
    std::uint8_t* page = page_for(req.addr, /*create=*/true);
    for (unsigned i = 0; i < 4; ++i) {
      if (req.byte_enable & (1u << i)) {
        page[in_page + i] = static_cast<std::uint8_t>(req.wdata >> (8 * i));
      }
    }
  } else {
    const std::uint8_t* page = page_for(req.addr);
    Word value = 0;
    if (page != nullptr) {
      std::memcpy(&value, page + in_page, 4);
    }
    rsp.rdata = value;
  }
  stats_.note(req, rsp, timing_.row_hit);
  return rsp;
}

void Dram::write_bytes(Addr addr, std::span<const std::uint8_t> data) {
  if (addr + data.size() > size_) {
    throw std::runtime_error(
        strfmt("DRAM backdoor write at {:#x}+{} beyond {:#x}", addr,
                    data.size(), size_));
  }
  std::size_t done = 0;
  while (done < data.size()) {
    const Addr cur = addr + done;
    const std::uint64_t in_page = cur % kPageBytes;
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - done, kPageBytes - in_page);
    std::memcpy(page_for(cur, /*create=*/true) + in_page, data.data() + done,
                chunk);
    done += chunk;
  }
}

void Dram::read_bytes(Addr addr, std::span<std::uint8_t> out) const {
  if (addr + out.size() > size_) {
    throw std::runtime_error(
        strfmt("DRAM backdoor read at {:#x}+{} beyond {:#x}", addr,
                    out.size(), size_));
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr cur = addr + done;
    const std::uint64_t in_page = cur % kPageBytes;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageBytes - in_page);
    const std::uint8_t* page = page_for(cur);
    if (page == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, page + in_page, chunk);
    }
    done += chunk;
  }
}

}  // namespace nvsoc
