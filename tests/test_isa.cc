/**
 * @file
 * ISA tests: encode/decode round trips across every opcode and
 * format (parameterized), immediate range checking, and the
 * disassembler.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "isa/instruction.hh"

namespace rr::isa {
namespace {

TEST(Isa, MnemonicLookupRoundTrip)
{
    for (unsigned i = 0; i < numOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        Opcode back;
        ASSERT_TRUE(opcodeFromMnemonic(mnemonicOf(op), back))
            << mnemonicOf(op);
        EXPECT_EQ(back, op);
    }
}

TEST(Isa, UnknownMnemonicRejected)
{
    Opcode op;
    EXPECT_FALSE(opcodeFromMnemonic("bogus", op));
    EXPECT_FALSE(opcodeFromMnemonic("", op));
}

TEST(Isa, InvalidOpcodeFieldRejected)
{
    Instruction inst;
    EXPECT_FALSE(decode(0xff000000u, inst));
}

/**
 * Property: for every opcode, generating random operands legal for
 * its format, encode -> decode is the identity.
 */
class RoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RoundTrip, EncodeDecodeIdentity)
{
    const auto op = static_cast<Opcode>(GetParam());
    const Format fmt = formatOf(op);
    const FormatInfo info = formatInfo(fmt);
    Rng rng(GetParam() * 977 + 1);

    for (int trial = 0; trial < 200; ++trial) {
        Instruction inst;
        inst.op = op;
        if (info.hasRd || fmt == Format::R1D || fmt == Format::R2 ||
            fmt == Format::R3 || fmt == Format::I || fmt == Format::J ||
            fmt == Format::UI) {
            inst.rd = static_cast<uint8_t>(rng.nextRange(0, 63));
        }
        if (fmt == Format::R3 || fmt == Format::R2 ||
            fmt == Format::R1S || fmt == Format::I || fmt == Format::B ||
            fmt == Format::Rs1Imm) {
            inst.rs1 = static_cast<uint8_t>(rng.nextRange(0, 63));
        }
        if (fmt == Format::R3 || fmt == Format::B)
            inst.rs2 = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasImm) {
            if (info.immSigned) {
                const int32_t lo = -(1 << (info.immBits - 1));
                const int32_t hi = (1 << (info.immBits - 1)) - 1;
                inst.imm = static_cast<int32_t>(rng.nextRange(
                               0, static_cast<uint64_t>(hi - lo))) +
                           lo;
            } else {
                inst.imm = static_cast<int32_t>(
                    rng.nextRange(0, (1u << info.immBits) - 1));
            }
        }

        // Fields not used by the format must be zero for identity.
        const uint32_t word = encode(inst);
        Instruction back;
        ASSERT_TRUE(decode(word, back));
        EXPECT_EQ(back, inst)
            << "op=" << mnemonicOf(op) << " word=" << std::hex << word;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, RoundTrip,
    ::testing::Range(0u, numOpcodes),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(mnemonicOf(static_cast<Opcode>(info.param)));
    });

TEST(Isa, SignedImmediateSignExtension)
{
    const Instruction inst = makeI(Opcode::ADDI, 1, 2, -1);
    Instruction back;
    ASSERT_TRUE(decode(encode(inst), back));
    EXPECT_EQ(back.imm, -1);

    const Instruction min_imm = makeI(Opcode::ADDI, 1, 2, -2048);
    ASSERT_TRUE(decode(encode(min_imm), back));
    EXPECT_EQ(back.imm, -2048);
}

TEST(Isa, Jump18BitImmediate)
{
    const Instruction inst = makeJ(Opcode::JAL, 3, -100000);
    Instruction back;
    ASSERT_TRUE(decode(encode(inst), back));
    EXPECT_EQ(back.imm, -100000);
}

TEST(Isa, RegisterOperandsFollowTheFormat)
{
    auto slots = [](const Instruction &inst) {
        std::string out;
        for (const RegisterOperand &op : registerOperands(inst)) {
            out += std::string(out.empty() ? "" : " ") + op.slot +
                   (op.isWrite ? "=r" : ":r") + std::to_string(op.reg);
        }
        return out;
    };
    EXPECT_EQ(slots(makeR3(Opcode::ADD, 1, 2, 3)), "rd=r1 rs1:r2 rs2:r3");
    EXPECT_EQ(slots(makeI(Opcode::LD, 5, 6, 8)), "rd=r5 rs1:r6");
    // ST's rd is the stored value: read, not written.
    EXPECT_EQ(slots(makeI(Opcode::ST, 5, 6, 8)), "rd:r5 rs1:r6");
    // B-format has no rd: slot A is rs1.
    EXPECT_EQ(slots(makeB(Opcode::BEQ, 9, 1, 0)), "rs1:r9 rs2:r1");
    EXPECT_EQ(slots(makeJ(Opcode::JAL, 7, 4)), "rd=r7");
    EXPECT_EQ(slots(Instruction{Opcode::HALT}), "");

    // Every opcode: one operand per slot its format declares.
    for (unsigned i = 0; i < numOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        const FormatInfo info = formatInfo(formatOf(op));
        EXPECT_EQ(registerOperands(Instruction{op}).count,
                  unsigned{info.hasRd} + info.hasRs1 + info.hasRs2)
            << mnemonicOf(op);
    }
}

TEST(IsaDeath, ImmediateOverflowPanics)
{
    EXPECT_DEATH(encode(makeI(Opcode::ADDI, 1, 2, 5000)), "immediate");
    EXPECT_DEATH(encode(makeI(Opcode::ADDI, 1, 2, -5000)), "immediate");
}

TEST(IsaDeath, RegisterOverflowPanics)
{
    EXPECT_DEATH(encode(makeR3(Opcode::ADD, 64, 0, 0)), "register");
}

TEST(Isa, DisassembleFormats)
{
    EXPECT_EQ(disassemble(makeR3(Opcode::ADD, 1, 2, 3)),
              "add r1, r2, r3");
    EXPECT_EQ(disassemble(makeI(Opcode::ADDI, 1, 2, -4)),
              "addi r1, r2, -4");
    EXPECT_EQ(disassemble(makeI(Opcode::LD, 5, 6, 8)), "ld r5, 8(r6)");
    EXPECT_EQ(disassemble(makeI(Opcode::ST, 5, 6, -2)),
              "st r5, -2(r6)");
    EXPECT_EQ(disassemble(makeB(Opcode::BNE, 1, 2, -3)),
              "bne r1, r2, -3");
    EXPECT_EQ(disassemble(makeJ(Opcode::JAL, 0, 12)), "jal r0, 12");
    Instruction ldrrm;
    ldrrm.op = Opcode::LDRRM;
    ldrrm.rs1 = 2;
    EXPECT_EQ(disassemble(ldrrm), "ldrrm r2");
    Instruction halt;
    halt.op = Opcode::HALT;
    EXPECT_EQ(disassemble(halt), "halt");
    EXPECT_EQ(disassemble(0xff000000u), "<invalid>");
}

} // namespace
} // namespace rr::isa
