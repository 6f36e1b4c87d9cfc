#include "mem/program_memory.hpp"

#include <algorithm>
#include <cstring>
#include "common/strfmt.hpp"
#include <sstream>
#include <stdexcept>

namespace nvsoc {

ProgramMemory::ProgramMemory(std::uint64_t size_bytes)
    : data_(size_bytes, 0) {
  if (size_bytes == 0 || (size_bytes % 4) != 0) {
    throw std::runtime_error("program memory size must be a nonzero word "
                             "multiple");
  }
}

BusResponse ProgramMemory::access(const BusRequest& req) {
  if (req.addr + 4 > data_.size() || (req.addr & 0x3u) != 0) {
    BusResponse rsp{
        Status(StatusCode::kBusError,
               strfmt("program memory access fault at {:#x}", req.addr)),
        0, req.start + 1};
    stats_.note(req, rsp, 1);
    return rsp;
  }
  BusResponse rsp{Status::ok(), 0, req.start + 1};  // BRAM: 1-cycle access
  if (req.is_write) {
    for (unsigned i = 0; i < 4; ++i) {
      if (req.byte_enable & (1u << i)) {
        data_[req.addr + i] = static_cast<std::uint8_t>(req.wdata >> (8 * i));
      }
    }
    notify_code_write(req.addr, 4);
  } else {
    Word value = 0;
    std::memcpy(&value, data_.data() + req.addr, 4);
    rsp.rdata = value;
  }
  stats_.note(req, rsp, 1);
  return rsp;
}

void ProgramMemory::load_image(Addr base, std::span<const std::uint8_t> image) {
  if (base + image.size() > data_.size()) {
    throw std::runtime_error(
        strfmt("program image at {:#x}+{} exceeds memory of {} bytes",
                    base, image.size(), data_.size()));
  }
  std::memcpy(data_.data() + base, image.data(), image.size());
  notify_code_write(base, image.size());
}

std::size_t ProgramMemory::load_mem_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  Addr addr = 0;
  std::size_t words = 0;
  Addr lo = 0;
  Addr hi = 0;  // envelope of all words written, reported once at the end
  while (std::getline(in, line)) {
    if (const auto comment = line.find("//"); comment != std::string::npos) {
      line.resize(comment);
    }
    // Trim whitespace.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    std::string token = line.substr(first, last - first + 1);
    if (token.empty()) continue;
    if (token[0] == '@') {
      addr = std::stoull(token.substr(1), nullptr, 16) * 4;  // word address
      continue;
    }
    const Word value = static_cast<Word>(std::stoul(token, nullptr, 16));
    if (addr + 4 > data_.size()) {
      throw std::runtime_error(".mem image exceeds program memory");
    }
    std::memcpy(data_.data() + addr, &value, 4);
    if (words == 0) {
      lo = addr;
      hi = addr + 4;
    } else {
      lo = std::min(lo, addr);
      hi = std::max(hi, addr + 4);
    }
    addr += 4;
    ++words;
  }
  if (words > 0) notify_code_write(lo, hi - lo);
  return words;
}

void ProgramMemory::add_code_write_listener(std::weak_ptr<Listener> fn) {
  listeners_.push_back(std::move(fn));
}

void ProgramMemory::notify_code_write(Addr base, std::uint64_t bytes) {
  std::erase_if(listeners_, [](const auto& weak) { return weak.expired(); });
  for (const auto& weak : listeners_) {
    if (const auto fn = weak.lock()) (*fn)(base, bytes);
  }
}

Word ProgramMemory::word_at(Addr addr) const {
  if (addr + 4 > data_.size()) {
    throw std::runtime_error("word_at out of range");
  }
  Word value = 0;
  std::memcpy(&value, data_.data() + addr, 4);
  return value;
}

}  // namespace nvsoc
