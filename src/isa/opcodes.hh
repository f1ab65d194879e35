/**
 * @file
 * Opcode and instruction-format definitions for RRISC, the small RISC
 * instruction set used by the cycle-level machine.
 *
 * RRISC is the minimal architecture the paper assumes: a fixed-field
 * RISC encoding (Section 2.1) with up to 64 addressable context-
 * relative registers per operand field, plus the paper's special
 * instructions:
 *
 *  - LDRRM  rs1        set the register relocation mask (Section 2.1)
 *  - RDRRM  rd         read the current mask (for runtime bookkeeping)
 *  - LDRRMX rs1, idx   load RRM bank entry idx (Section 5.3 extension)
 *  - MFPSW / MTPSW     move the processor status word (Figure 3)
 *  - FF1    rd, rs1    find-first-one (MC88000-style, Section 2.3)
 *  - FAULT  imm        raise a long-latency fault of class imm
 */

#ifndef RR_ISA_OPCODES_HH
#define RR_ISA_OPCODES_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace rr::isa {

/**
 * Instruction formats. The encoding uses three fixed 6-bit operand
 * slots (A at [23:18], B at [17:12], C at [11:6]) so that the decode
 * stage can relocate register operands at fixed field positions, as
 * required by the paper's fixed-field decoding assumption.
 */
enum class Format : uint8_t
{
    None,    ///< no operands (NOP, HALT)
    R3,      ///< rd, rs1, rs2
    R2,      ///< rd, rs1
    R1D,     ///< rd only
    R1S,     ///< rs1 only
    I,       ///< rd, rs1, imm12 (signed)
    B,       ///< rs1, rs2, imm12 (signed, PC-relative words)
    J,       ///< rd, imm18 (signed, PC-relative words)
    UI,      ///< rd, imm18 (upper immediate)
    Imm,     ///< imm12 only
    Rs1Imm,  ///< rs1, imm12
};

/** RRISC opcodes. Values are the 8-bit primary opcode field. */
enum class Opcode : uint8_t
{
    NOP = 0,
    HALT,

    // ALU register-register.
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,

    // ALU register-immediate.
    ADDI, ANDI, ORI, XORI, SLTI, SLLI, SRLI, SRAI,

    // Upper immediate: rd = imm18 << 12.
    LUI,

    // Memory (word-addressed): LD rd, imm(rs1); ST rd, imm(rs1).
    LD, ST,

    // Branches: compare rs1, rs2; PC-relative word offset.
    BEQ, BNE, BLT, BGE,

    // Jumps.
    JAL,   ///< rd <- PC+1; PC += imm18
    JALR,  ///< rd <- PC+1; PC = rs1 + imm12
    JMP,   ///< PC = rs1

    // Register relocation.
    LDRRM,   ///< RRM <- low bits of rs1 (after delay slots)
    RDRRM,   ///< rd <- RRM
    LDRRMX,  ///< RRM bank[imm12] <- low bits of rs1 (extension)

    // Processor status word.
    MFPSW,  ///< rd <- PSW
    MTPSW,  ///< PSW <- rs1

    // Bit manipulation.
    FF1,  ///< rd <- index of least-significant set bit of rs1, or -1

    // Long-latency fault of class imm12 (cache miss, sync, ...).
    FAULT,

    NumOpcodes
};

/** Number of defined opcodes. */
constexpr unsigned numOpcodes =
    static_cast<unsigned>(Opcode::NumOpcodes);

/** @return the encoding format of @p op. */
Format formatOf(Opcode op);

/** @return the lower-case mnemonic of @p op. */
const char *mnemonicOf(Opcode op);

/**
 * Look up an opcode by lower-case mnemonic.
 * @return true and sets @p out when found.
 */
bool opcodeFromMnemonic(std::string_view mnemonic, Opcode &out);

/** Operand-slot usage for a format (for relocation and disassembly). */
struct FormatInfo
{
    bool hasRd;       ///< slot A is a destination register
    bool hasRs1;      ///< a source register is present (slot A or B)
    bool hasRs2;      ///< a second source register is present
    bool hasImm;      ///< an immediate is present
    unsigned immBits; ///< immediate width (12 or 18), 0 when none
    bool immSigned;   ///< immediate is sign-extended
};

/** @return slot usage for @p fmt. */
FormatInfo formatInfo(Format fmt);

/**
 * @return true when @p imm fits the immediate field @p info describes
 * (only 0 fits a format without one).
 */
bool immFits(const FormatInfo &info, int64_t imm);

} // namespace rr::isa

#endif // RR_ISA_OPCODES_HH
