#include "isa/instruction.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace rr::isa {

namespace {

constexpr unsigned opcodeShift = 24;
constexpr unsigned slotAShift = 18;
constexpr unsigned slotBShift = 12;
constexpr unsigned slotCShift = 6;
constexpr uint32_t slotMask = 0x3f;
constexpr uint32_t imm12Mask = 0xfff;
constexpr uint32_t imm18Mask = 0x3ffff;

int32_t
signExtend(uint32_t value, unsigned bits)
{
    const uint32_t sign = 1u << (bits - 1);
    return static_cast<int32_t>((value ^ sign) - sign);
}

void
checkReg(unsigned r, const char *what)
{
    rr_assert(r < maxOperandRegs, what, " register ", r,
              " exceeds operand field (max ", maxOperandRegs - 1, ")");
}

void
checkImm(int32_t imm, const FormatInfo &info)
{
    rr_assert(immFits(info, imm), "immediate ", imm, " out of ",
              info.immSigned ? "signed " : "unsigned ", info.immBits,
              "-bit range");
}

} // namespace

uint32_t
encode(const Instruction &inst)
{
    const Format fmt = inst.format();
    const FormatInfo info = formatInfo(fmt);
    uint32_t word = static_cast<uint32_t>(inst.op) << opcodeShift;

    switch (fmt) {
      case Format::None:
        break;
      case Format::R3:
        checkReg(inst.rd, "rd");
        checkReg(inst.rs1, "rs1");
        checkReg(inst.rs2, "rs2");
        word |= (inst.rd & slotMask) << slotAShift;
        word |= (inst.rs1 & slotMask) << slotBShift;
        word |= (inst.rs2 & slotMask) << slotCShift;
        break;
      case Format::R2:
        checkReg(inst.rd, "rd");
        checkReg(inst.rs1, "rs1");
        word |= (inst.rd & slotMask) << slotAShift;
        word |= (inst.rs1 & slotMask) << slotBShift;
        break;
      case Format::R1D:
        checkReg(inst.rd, "rd");
        word |= (inst.rd & slotMask) << slotAShift;
        break;
      case Format::R1S:
        checkReg(inst.rs1, "rs1");
        word |= (inst.rs1 & slotMask) << slotBShift;
        break;
      case Format::I:
        checkReg(inst.rd, "rd");
        checkReg(inst.rs1, "rs1");
        checkImm(inst.imm, info);
        word |= (inst.rd & slotMask) << slotAShift;
        word |= (inst.rs1 & slotMask) << slotBShift;
        word |= static_cast<uint32_t>(inst.imm) & imm12Mask;
        break;
      case Format::B:
        checkReg(inst.rs1, "rs1");
        checkReg(inst.rs2, "rs2");
        checkImm(inst.imm, info);
        word |= (inst.rs1 & slotMask) << slotAShift;
        word |= (inst.rs2 & slotMask) << slotBShift;
        word |= static_cast<uint32_t>(inst.imm) & imm12Mask;
        break;
      case Format::J:
      case Format::UI:
        checkReg(inst.rd, "rd");
        checkImm(inst.imm, info);
        word |= (inst.rd & slotMask) << slotAShift;
        word |= static_cast<uint32_t>(inst.imm) & imm18Mask;
        break;
      case Format::Imm:
        checkImm(inst.imm, info);
        word |= static_cast<uint32_t>(inst.imm) & imm12Mask;
        break;
      case Format::Rs1Imm:
        checkReg(inst.rs1, "rs1");
        checkImm(inst.imm, info);
        word |= (inst.rs1 & slotMask) << slotBShift;
        word |= static_cast<uint32_t>(inst.imm) & imm12Mask;
        break;
    }
    return word;
}

bool
decode(uint32_t word, Instruction &out)
{
    const uint32_t opfield = word >> opcodeShift;
    if (opfield >= numOpcodes)
        return false;

    out = Instruction{};
    out.op = static_cast<Opcode>(opfield);

    const Format fmt = formatOf(out.op);
    const FormatInfo info = formatInfo(fmt);
    const auto slotA = static_cast<uint8_t>((word >> slotAShift) &
                                            slotMask);
    const auto slotB = static_cast<uint8_t>((word >> slotBShift) &
                                            slotMask);
    const auto slotC = static_cast<uint8_t>((word >> slotCShift) &
                                            slotMask);

    switch (fmt) {
      case Format::None:
        break;
      case Format::R3:
        out.rd = slotA;
        out.rs1 = slotB;
        out.rs2 = slotC;
        break;
      case Format::R2:
        out.rd = slotA;
        out.rs1 = slotB;
        break;
      case Format::R1D:
        out.rd = slotA;
        break;
      case Format::R1S:
        out.rs1 = slotB;
        break;
      case Format::I:
        out.rd = slotA;
        out.rs1 = slotB;
        break;
      case Format::B:
        out.rs1 = slotA;
        out.rs2 = slotB;
        break;
      case Format::J:
      case Format::UI:
        out.rd = slotA;
        break;
      case Format::Imm:
        break;
      case Format::Rs1Imm:
        out.rs1 = slotB;
        break;
    }

    if (info.hasImm) {
        const uint32_t raw = info.immBits == 18 ? (word & imm18Mask)
                                                : (word & imm12Mask);
        out.imm = info.immSigned ? signExtend(raw, info.immBits)
                                 : static_cast<int32_t>(raw);
    }
    return true;
}

Instruction
makeR3(Opcode op, unsigned rd, unsigned rs1, unsigned rs2)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<uint8_t>(rd);
    inst.rs1 = static_cast<uint8_t>(rs1);
    inst.rs2 = static_cast<uint8_t>(rs2);
    return inst;
}

Instruction
makeI(Opcode op, unsigned rd, unsigned rs1, int32_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<uint8_t>(rd);
    inst.rs1 = static_cast<uint8_t>(rs1);
    inst.imm = imm;
    return inst;
}

Instruction
makeB(Opcode op, unsigned rs1, unsigned rs2, int32_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rs1 = static_cast<uint8_t>(rs1);
    inst.rs2 = static_cast<uint8_t>(rs2);
    inst.imm = imm;
    return inst;
}

Instruction
makeJ(Opcode op, unsigned rd, int32_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<uint8_t>(rd);
    inst.imm = imm;
    return inst;
}

} // namespace rr::isa
