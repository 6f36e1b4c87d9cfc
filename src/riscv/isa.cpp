#include "riscv/isa.hpp"

#include <array>
#include <string>

#include "common/bitutil.hpp"

namespace nvsoc::rv {

namespace {

Decoded decode_fields(std::uint32_t raw) {
  Decoded d;
  d.raw = raw;
  d.rd = static_cast<std::uint8_t>(bits(raw, 7, 5));
  d.rs1 = static_cast<std::uint8_t>(bits(raw, 15, 5));
  d.rs2 = static_cast<std::uint8_t>(bits(raw, 20, 5));
  return d;
}

std::int32_t imm_i(std::uint32_t raw) { return sign_extend(bits(raw, 20, 12), 12); }
std::int32_t imm_s(std::uint32_t raw) {
  return sign_extend((bits(raw, 25, 7) << 5) | bits(raw, 7, 5), 12);
}
std::int32_t imm_b(std::uint32_t raw) {
  const std::uint32_t v = (bit(raw, 31) << 12) | (bit(raw, 7) << 11) |
                          (bits(raw, 25, 6) << 5) | (bits(raw, 8, 4) << 1);
  return sign_extend(v, 13);
}
std::int32_t imm_u(std::uint32_t raw) {
  return static_cast<std::int32_t>(raw & 0xFFFFF000u);
}
std::int32_t imm_j(std::uint32_t raw) {
  const std::uint32_t v = (bit(raw, 31) << 20) | (bits(raw, 12, 8) << 12) |
                          (bit(raw, 20) << 11) | (bits(raw, 21, 10) << 1);
  return sign_extend(v, 21);
}

}  // namespace

Decoded decode(std::uint32_t raw) {
  Decoded d = decode_fields(raw);
  const std::uint32_t opcode = bits(raw, 0, 7);
  const std::uint32_t funct3 = bits(raw, 12, 3);
  const std::uint32_t funct7 = bits(raw, 25, 7);

  switch (opcode) {
    case 0x37: d.op = Opcode::kLui; d.imm = imm_u(raw); return d;
    case 0x17: d.op = Opcode::kAuipc; d.imm = imm_u(raw); return d;
    case 0x6F: d.op = Opcode::kJal; d.imm = imm_j(raw); return d;
    case 0x67:
      if (funct3 == 0) { d.op = Opcode::kJalr; d.imm = imm_i(raw); }
      return d;
    case 0x63:
      d.imm = imm_b(raw);
      switch (funct3) {
        case 0: d.op = Opcode::kBeq; break;
        case 1: d.op = Opcode::kBne; break;
        case 4: d.op = Opcode::kBlt; break;
        case 5: d.op = Opcode::kBge; break;
        case 6: d.op = Opcode::kBltu; break;
        case 7: d.op = Opcode::kBgeu; break;
        default: d.op = Opcode::kInvalid; break;
      }
      return d;
    case 0x03:
      d.imm = imm_i(raw);
      switch (funct3) {
        case 0: d.op = Opcode::kLb; break;
        case 1: d.op = Opcode::kLh; break;
        case 2: d.op = Opcode::kLw; break;
        case 4: d.op = Opcode::kLbu; break;
        case 5: d.op = Opcode::kLhu; break;
        default: d.op = Opcode::kInvalid; break;
      }
      return d;
    case 0x23:
      d.imm = imm_s(raw);
      switch (funct3) {
        case 0: d.op = Opcode::kSb; break;
        case 1: d.op = Opcode::kSh; break;
        case 2: d.op = Opcode::kSw; break;
        default: d.op = Opcode::kInvalid; break;
      }
      return d;
    case 0x13:
      d.imm = imm_i(raw);
      switch (funct3) {
        case 0: d.op = Opcode::kAddi; break;
        case 2: d.op = Opcode::kSlti; break;
        case 3: d.op = Opcode::kSltiu; break;
        case 4: d.op = Opcode::kXori; break;
        case 6: d.op = Opcode::kOri; break;
        case 7: d.op = Opcode::kAndi; break;
        case 1:
          if (funct7 == 0x00) { d.op = Opcode::kSlli; d.imm = static_cast<std::int32_t>(d.rs2); }
          else d.op = Opcode::kInvalid;
          break;
        case 5:
          if (funct7 == 0x00) { d.op = Opcode::kSrli; d.imm = static_cast<std::int32_t>(d.rs2); }
          else if (funct7 == 0x20) { d.op = Opcode::kSrai; d.imm = static_cast<std::int32_t>(d.rs2); }
          else d.op = Opcode::kInvalid;
          break;
        default: d.op = Opcode::kInvalid; break;
      }
      return d;
    case 0x33:
      if (funct7 == 0x01) {  // RV32M
        switch (funct3) {
          case 0: d.op = Opcode::kMul; break;
          case 1: d.op = Opcode::kMulh; break;
          case 2: d.op = Opcode::kMulhsu; break;
          case 3: d.op = Opcode::kMulhu; break;
          case 4: d.op = Opcode::kDiv; break;
          case 5: d.op = Opcode::kDivu; break;
          case 6: d.op = Opcode::kRem; break;
          case 7: d.op = Opcode::kRemu; break;
        }
        return d;
      }
      switch (funct3) {
        case 0:
          d.op = (funct7 == 0x20) ? Opcode::kSub
               : (funct7 == 0x00) ? Opcode::kAdd : Opcode::kInvalid;
          break;
        case 1: d.op = (funct7 == 0x00) ? Opcode::kSll : Opcode::kInvalid; break;
        case 2: d.op = (funct7 == 0x00) ? Opcode::kSlt : Opcode::kInvalid; break;
        case 3: d.op = (funct7 == 0x00) ? Opcode::kSltu : Opcode::kInvalid; break;
        case 4: d.op = (funct7 == 0x00) ? Opcode::kXor : Opcode::kInvalid; break;
        case 5:
          d.op = (funct7 == 0x20) ? Opcode::kSra
               : (funct7 == 0x00) ? Opcode::kSrl : Opcode::kInvalid;
          break;
        case 6: d.op = (funct7 == 0x00) ? Opcode::kOr : Opcode::kInvalid; break;
        case 7: d.op = (funct7 == 0x00) ? Opcode::kAnd : Opcode::kInvalid; break;
      }
      return d;
    case 0x0F: d.op = Opcode::kFence; return d;
    case 0x73: {
      d.csr = static_cast<std::uint16_t>(bits(raw, 20, 12));
      switch (funct3) {
        case 0:
          if (raw == 0x00000073u) d.op = Opcode::kEcall;
          else if (raw == 0x00100073u) d.op = Opcode::kEbreak;
          else if (raw == 0x30200073u) d.op = Opcode::kMret;
          else if (raw == 0x10500073u) d.op = Opcode::kWfi;
          return d;
        case 1: d.op = Opcode::kCsrrw; return d;
        case 2: d.op = Opcode::kCsrrs; return d;
        case 3: d.op = Opcode::kCsrrc; return d;
        case 5: d.op = Opcode::kCsrrwi; d.imm = d.rs1; return d;
        case 6: d.op = Opcode::kCsrrsi; d.imm = d.rs1; return d;
        case 7: d.op = Opcode::kCsrrci; d.imm = d.rs1; return d;
        default: return d;
      }
    }
    default:
      return d;
  }
}

std::string_view mnemonic(Opcode op) {
  switch (op) {
    case Opcode::kInvalid: return "<invalid>";
    case Opcode::kLui: return "lui";
    case Opcode::kAuipc: return "auipc";
    case Opcode::kJal: return "jal";
    case Opcode::kJalr: return "jalr";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kBltu: return "bltu";
    case Opcode::kBgeu: return "bgeu";
    case Opcode::kLb: return "lb";
    case Opcode::kLh: return "lh";
    case Opcode::kLw: return "lw";
    case Opcode::kLbu: return "lbu";
    case Opcode::kLhu: return "lhu";
    case Opcode::kSb: return "sb";
    case Opcode::kSh: return "sh";
    case Opcode::kSw: return "sw";
    case Opcode::kAddi: return "addi";
    case Opcode::kSlti: return "slti";
    case Opcode::kSltiu: return "sltiu";
    case Opcode::kXori: return "xori";
    case Opcode::kOri: return "ori";
    case Opcode::kAndi: return "andi";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kSll: return "sll";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kXor: return "xor";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kOr: return "or";
    case Opcode::kAnd: return "and";
    case Opcode::kFence: return "fence";
    case Opcode::kEcall: return "ecall";
    case Opcode::kEbreak: return "ebreak";
    case Opcode::kCsrrw: return "csrrw";
    case Opcode::kCsrrs: return "csrrs";
    case Opcode::kCsrrc: return "csrrc";
    case Opcode::kCsrrwi: return "csrrwi";
    case Opcode::kCsrrsi: return "csrrsi";
    case Opcode::kCsrrci: return "csrrci";
    case Opcode::kMret: return "mret";
    case Opcode::kWfi: return "wfi";
    case Opcode::kMul: return "mul";
    case Opcode::kMulh: return "mulh";
    case Opcode::kMulhsu: return "mulhsu";
    case Opcode::kMulhu: return "mulhu";
    case Opcode::kDiv: return "div";
    case Opcode::kDivu: return "divu";
    case Opcode::kRem: return "rem";
    case Opcode::kRemu: return "remu";
  }
  return "<invalid>";
}

bool is_store(Opcode op) {
  return op == Opcode::kSb || op == Opcode::kSh || op == Opcode::kSw;
}

bool is_branch(Opcode op) {
  switch (op) {
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}

std::uint32_t source_reg_mask(const Decoded& d) {
  switch (d.op) {
    case Opcode::kLui:
    case Opcode::kAuipc:
    case Opcode::kJal:
    case Opcode::kEcall:
    case Opcode::kEbreak:
    case Opcode::kFence:
    case Opcode::kWfi:
    case Opcode::kMret:
    case Opcode::kCsrrwi:
    case Opcode::kCsrrsi:
    case Opcode::kCsrrci:
      return 0;
    default:
      break;
  }
  std::uint32_t mask = 0;
  if (d.rs1 != 0) mask |= 1u << d.rs1;
  // rs2 is only a real source for R-type, branches and stores.
  const bool uses_rs2 = is_store(d.op) || is_branch(d.op) ||
                        (d.op >= Opcode::kAdd && d.op <= Opcode::kAnd) ||
                        (d.op >= Opcode::kMul && d.op <= Opcode::kRemu);
  if (uses_rs2 && d.rs2 != 0) mask |= 1u << d.rs2;
  return mask;
}

namespace {
constexpr std::array<std::string_view, 32> kAbiNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0",   "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6",   "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
}

std::string_view abi_name(unsigned reg) {
  return reg < 32 ? kAbiNames[reg] : "<bad>";
}

std::optional<unsigned> parse_register(std::string_view token) {
  if (token.empty()) return std::nullopt;
  if ((token[0] == 'x' || token[0] == 'X') && token.size() >= 2) {
    unsigned value = 0;
    for (std::size_t i = 1; i < token.size(); ++i) {
      if (token[i] < '0' || token[i] > '9') return std::nullopt;
      value = value * 10 + static_cast<unsigned>(token[i] - '0');
    }
    if (value < 32) return value;
    return std::nullopt;
  }
  for (unsigned i = 0; i < 32; ++i) {
    if (token == kAbiNames[i]) return i;
  }
  if (token == "fp") return 8;  // frame-pointer alias for s0
  return std::nullopt;
}

}  // namespace nvsoc::rv
