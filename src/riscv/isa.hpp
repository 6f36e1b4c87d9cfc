// RV32IM instruction-set definitions shared by the decoder, the executing
// core, the assembler and the disassembler.
//
// The µRISC-V core of the paper is a 32-bit, 4-stage pipelined
// general-purpose core; the bare-metal flow only relies on the base integer
// ISA (loads/stores to program NVDLA registers, branches for polling loops),
// but the full RV32IM set is implemented so arbitrary generated or
// hand-written bare-metal programs run.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace nvsoc::rv {

enum class Opcode : std::uint8_t {
  kInvalid = 0,
  // RV32I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // Zicsr (used for mcycle/minstret self-measurement)
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // Machine-mode
  kMret, kWfi,
  // RV32M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
};

/// Decoded instruction: opcode plus extracted fields. Immediates are already
/// sign-extended where the format requires it.
struct Decoded {
  Opcode op = Opcode::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
  std::uint16_t csr = 0;
  std::uint32_t raw = 0;

  bool valid() const { return op != Opcode::kInvalid; }
};

/// Decode a raw 32-bit instruction word.
Decoded decode(std::uint32_t raw);

/// Mnemonic for the disassembler.
std::string_view mnemonic(Opcode op);

/// True for instructions that write memory / may branch.
bool is_store(Opcode op);
bool is_branch(Opcode op);

/// Bit r set when the instruction reads register r as a source (x0 never
/// set). Drives the load-use interlock on both the per-step path and the
/// pre-decoded dispatch path, so the two can't disagree.
std::uint32_t source_reg_mask(const Decoded& d);

/// ABI register names x0..x31 <-> zero, ra, sp, ...
std::string_view abi_name(unsigned reg);
std::optional<unsigned> parse_register(std::string_view token);

/// CSR numbers the core implements.
namespace csr {
inline constexpr std::uint16_t kMstatus = 0x300;
inline constexpr std::uint16_t kMie = 0x304;
inline constexpr std::uint16_t kMtvec = 0x305;
inline constexpr std::uint16_t kMepc = 0x341;
inline constexpr std::uint16_t kMcause = 0x342;
inline constexpr std::uint16_t kMip = 0x344;
inline constexpr std::uint16_t kCycle = 0xC00;
inline constexpr std::uint16_t kCycleH = 0xC80;
inline constexpr std::uint16_t kInstret = 0xC02;
inline constexpr std::uint16_t kInstretH = 0xC82;
inline constexpr std::uint16_t kMcycle = 0xB00;
inline constexpr std::uint16_t kMinstret = 0xB02;
}  // namespace csr

}  // namespace nvsoc::rv
