// RISC-V program memory, implemented on the FPGA with block RAMs and loaded
// with machine code generated from the configuration file in .mem format
// (one 32-bit hex word per line, the Vivado $readmemh convention).
// Single-cycle access, as for true dual-port BRAM at the core clock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus_types.hpp"

namespace nvsoc {

class ProgramMemory final : public BusTarget, public CodeWriteSource {
 public:
  explicit ProgramMemory(std::uint64_t size_bytes);

  BusResponse access(const BusRequest& req) override;
  std::string_view name() const override { return "program_memory"; }

  // CodeWriteSource: every mutation path (bus-side stores, backdoor image
  // loads, .mem reloads) reports the byte range written, so the ISS decode
  // cache stays coherent across program reloads and self-modifying code.
  // Listeners fire synchronously on the writing thread (one simulated SoC
  // owns a ProgramMemory at a time, so no locking); expired registrations
  // are pruned as they are encountered.
  void add_code_write_listener(std::weak_ptr<Listener> fn) override;

  /// Load a binary image at `base` (backdoor, zero simulated time).
  void load_image(Addr base, std::span<const std::uint8_t> image);

  /// Load Vivado-style .mem text: '//' comments, optional `@addr` records,
  /// one 32-bit hex word per line. Returns the number of words loaded.
  std::size_t load_mem_text(const std::string& text);

  /// Backdoor read of one word: the .mem load tests check images with it.
  Word word_at(Addr addr) const;
  std::uint64_t size_bytes() const { return data_.size(); }
  const BusStats& stats() const { return stats_; }

 private:
  void notify_code_write(Addr base, std::uint64_t bytes);

  std::vector<std::uint8_t> data_;
  BusStats stats_;
  std::vector<std::weak_ptr<Listener>> listeners_;
};

}  // namespace nvsoc
