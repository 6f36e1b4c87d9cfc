// Sparse DRAM model backing the SoC's 512 MB data memory.
//
// Storage is a page map so mapping the full 512 MB window costs only what is
// actually touched. Timing follows a simple open-row model: an access to the
// currently open row costs `row_hit` cycles, switching rows costs
// `row_miss`, and each additional sequential word streams at one word per
// cycle. A byte-level backdoor lets the Zynq-PS loader (Fig. 4) and the
// virtual platform initialise weights and images without consuming simulated
// bus cycles, exactly like preloading DDR through the PS before flipping the
// SmartConnect mux.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/bus_types.hpp"

namespace nvsoc {

struct DramTiming {
  Cycle row_hit = 4;    ///< CAS-to-data for an open row
  Cycle row_miss = 12;  ///< precharge + activate + CAS
  std::uint32_t row_bytes = 2048;  ///< row (page) size for the locality model
  /// Back-to-back accesses to the open row stream at one beat per cycle
  /// (DDR burst pipelining): a request issued within `streaming_gap` cycles
  /// of the previous completion pays `streaming_beat` instead of `row_hit`.
  Cycle streaming_gap = 2;
  Cycle streaming_beat = 1;
};

class Dram final : public BusTarget {
 public:
  /// `size_bytes` bounds the addressable window (requests beyond it are bus
  /// errors, as they would fall off the MIG's mapped range).
  explicit Dram(std::uint64_t size_bytes, DramTiming timing = {});

  // --- 32-bit bus port (through arbiter / bridges) ------------------------
  BusResponse access(const BusRequest& req) override;
  std::string_view name() const override { return "dram"; }

  // --- zero-time backdoor (PS preload, VP, test fixtures) -----------------
  void write_bytes(Addr addr, std::span<const std::uint8_t> data);
  void read_bytes(Addr addr, std::span<std::uint8_t> out) const;

  std::uint64_t size_bytes() const { return size_; }
  std::uint64_t touched_pages() const { return pages_.size(); }
  const BusStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kPageBytes = 4096;

  std::uint8_t* page_for(Addr addr, bool create);
  const std::uint8_t* page_for(Addr addr) const;

  std::uint64_t size_;
  DramTiming timing_;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>> pages_;
  std::uint64_t open_row_ = ~0ull;
  Cycle last_complete_ = 0;
  BusStats stats_;
};

}  // namespace nvsoc
