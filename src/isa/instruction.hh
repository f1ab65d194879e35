/**
 * @file
 * Decoded instruction representation and the raw 32-bit word layout.
 *
 * Encoding layout (fixed-field, Section 2.1 of the paper):
 *
 *   [31:24] opcode
 *   [23:18] operand slot A (rd, or rs1 for B-format)
 *   [17:12] operand slot B (rs1, or rs2 for B-format)
 *   [11:6]  operand slot C (rs2)
 *   [11:0]  imm12 (I/B/Imm/Rs1Imm formats)
 *   [17:0]  imm18 (J/UI formats)
 *
 * Register operand fields are 6 bits wide, so a single context may
 * address at most 2^6 = 64 context-relative registers; the machine
 * configuration may restrict this further (operand width w, paper
 * Section 2.1).
 */

#ifndef RR_ISA_INSTRUCTION_HH
#define RR_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcodes.hh"

namespace rr::isa {

/** Width in bits of a register operand field in the encoding. */
constexpr unsigned operandFieldBits = 6;

/** Maximum context-relative register number (exclusive). */
constexpr unsigned maxOperandRegs = 1u << operandFieldBits;

/** A decoded RRISC instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    uint8_t rd = 0;   ///< destination register (context-relative)
    uint8_t rs1 = 0;  ///< first source register (context-relative)
    uint8_t rs2 = 0;  ///< second source register (context-relative)
    int32_t imm = 0;  ///< sign- or zero-extended immediate

    /** @return the encoding format of this instruction's opcode. */
    Format format() const { return formatOf(op); }

    bool operator==(const Instruction &other) const = default;
};

/**
 * Encode @p inst into a 32-bit word.
 * Panics if an operand or immediate does not fit its field.
 */
uint32_t encode(const Instruction &inst);

/**
 * Decode the 32-bit word @p word.
 * @param word the instruction word
 * @param out  receives the decoded instruction
 * @return false when the opcode field is invalid
 */
bool decode(uint32_t word, Instruction &out);

/** One register operand of an instruction. */
struct RegisterOperand
{
    const char *slot = ""; ///< "rd", "rs1" or "rs2"
    unsigned reg = 0;      ///< context-relative register number
    bool isWrite = false;  ///< the instruction writes (vs reads) it
};

/** The register operands of one instruction, in rd, rs1, rs2 order. */
struct RegisterOperands
{
    RegisterOperand slots[3];
    unsigned count = 0;

    const RegisterOperand *begin() const { return slots; }
    const RegisterOperand *end() const { return slots + count; }
};

/**
 * Which register slots @p inst reads and writes, derived from its
 * format: the one statement of operand direction that the static
 * analyses (liveness, call-graph summaries, rrlint's operand checks)
 * share. B-format has no rd (its slot A is rs1), and ST's rd is the
 * stored value, so it is a read (as in Cpu::execute).
 */
inline RegisterOperands
registerOperands(const Instruction &inst)
{
    RegisterOperands out;
    const FormatInfo info = formatInfo(inst.format());
    if (info.hasRd)
        out.slots[out.count++] = {"rd", inst.rd, inst.op != Opcode::ST};
    if (info.hasRs1)
        out.slots[out.count++] = {"rs1", inst.rs1, false};
    if (info.hasRs2)
        out.slots[out.count++] = {"rs2", inst.rs2, false};
    return out;
}

/** Render @p inst as assembly text. */
std::string disassemble(const Instruction &inst);

/** Decode and render @p word; "<invalid>" for bad opcodes. */
std::string disassemble(uint32_t word);

// Convenience constructors used by tests and the runtime's embedded
// code generators.

/** Make an R3-format instruction (rd, rs1, rs2). */
Instruction makeR3(Opcode op, unsigned rd, unsigned rs1, unsigned rs2);

/** Make an I-format instruction (rd, rs1, imm). */
Instruction makeI(Opcode op, unsigned rd, unsigned rs1, int32_t imm);

/** Make a B-format instruction (rs1, rs2, imm). */
Instruction makeB(Opcode op, unsigned rs1, unsigned rs2, int32_t imm);

/** Make a J- or UI-format instruction (rd, imm). */
Instruction makeJ(Opcode op, unsigned rd, int32_t imm);

} // namespace rr::isa

#endif // RR_ISA_INSTRUCTION_HH
