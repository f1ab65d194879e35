/**
 * @file
 * The value semantics of RRISC, written once: what an ALU operation
 * computes and when a branch is taken. The reference executor
 * (Cpu::step), the superblock handlers (Cpu::execBlock) and rrlint's
 * constant folder (RrmAnalysis) all call these; operand access,
 * relocation, traps, timing and retirement stay with each caller.
 * Both functions are constexpr, so a call with a literal opcode (each
 * superblock handler) folds to the one operation it names.
 */

#ifndef RR_ISA_SEMANTICS_HH
#define RR_ISA_SEMANTICS_HH

#include <cstdint>

#include "base/bitops.hh"
#include "isa/opcodes.hh"

namespace rr::isa {

/**
 * Result of the register-register ops (ADD .. SLTU), the immediate ops
 * (ADDI .. SRAI), LUI and FF1 on rs1 = @p a and @p b. An immediate op
 * passes `static_cast<uint32_t>(imm)` as @p b (SLTI compares signed,
 * like SLT). Shifts use the low five bits of @p b. LUI ignores @p a
 * and returns `b << 12`; FF1 ignores @p b and returns the index of the
 * lowest set bit of @p a, or 0xffffffff when @p a is zero.
 *
 * @return 0 for any other opcode.
 */
constexpr uint32_t
alu(Opcode op, uint32_t a, uint32_t b)
{
    const auto sa = static_cast<int32_t>(a);
    const auto sb = static_cast<int32_t>(b);
    const uint32_t shamt = b & 31;
    switch (op) {
      case Opcode::ADD:
      case Opcode::ADDI:
        return a + b;
      case Opcode::SUB:
        return a - b;
      case Opcode::AND:
      case Opcode::ANDI:
        return a & b;
      case Opcode::OR:
      case Opcode::ORI:
        return a | b;
      case Opcode::XOR:
      case Opcode::XORI:
        return a ^ b;
      case Opcode::SLL:
      case Opcode::SLLI:
        return a << shamt;
      case Opcode::SRL:
      case Opcode::SRLI:
        return a >> shamt;
      case Opcode::SRA:
      case Opcode::SRAI:
        return static_cast<uint32_t>(sa >> shamt);
      case Opcode::SLT:
      case Opcode::SLTI:
        return sa < sb ? 1 : 0;
      case Opcode::SLTU:
        return a < b ? 1 : 0;
      case Opcode::LUI:
        return b << 12;
      case Opcode::FF1:
        return static_cast<uint32_t>(findFirstSet(a));
      default:
        return 0;
    }
}

/**
 * Whether the conditional branch @p op (BEQ, BNE, BLT, BGE) is taken
 * with rs1 = @p a and rs2 = @p b. BLT and BGE compare signed.
 *
 * @return false for any other opcode.
 */
constexpr bool
branchTaken(Opcode op, uint32_t a, uint32_t b)
{
    const auto sa = static_cast<int32_t>(a);
    const auto sb = static_cast<int32_t>(b);
    switch (op) {
      case Opcode::BEQ:
        return a == b;
      case Opcode::BNE:
        return a != b;
      case Opcode::BLT:
        return sa < sb;
      case Opcode::BGE:
        return sa >= sb;
      default:
        return false;
    }
}

} // namespace rr::isa

#endif // RR_ISA_SEMANTICS_HH
