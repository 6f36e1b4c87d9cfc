// Disassembler for diagnostics, listings and round-trip tests against the
// assembler.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace nvsoc::rv {

/// Render one instruction at `pc` (pc is needed for branch/jump targets).
/// The reference the assembler's round-trip tests compare against.
std::string disassemble(std::uint32_t raw, Addr pc);

}  // namespace nvsoc::rv
