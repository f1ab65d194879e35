/**
 * @file
 * Assembler tests: labels, directives, pseudo-instructions, PC-
 * relative branch resolution, memory operands, comments, error
 * diagnostics, and a robustness fuzz: arbitrary garbage input must
 * produce diagnostics, never crashes or bogus images.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "base/rng.hh"
#include "isa/instruction.hh"
#include "machine/cpu.hh"

namespace rr::assembler {
namespace {

using isa::Instruction;
using isa::Opcode;

Instruction
decodeWord(const Program &prog, size_t index)
{
    Instruction inst;
    EXPECT_TRUE(isa::decode(prog.words.at(index), inst));
    return inst;
}

TEST(Assembler, BasicInstructions)
{
    const Program prog = assemble("add r1, r2, r3\n"
                                  "addi r4, r5, -7\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 3u);
    EXPECT_EQ(decodeWord(prog, 0), isa::makeR3(Opcode::ADD, 1, 2, 3));
    EXPECT_EQ(decodeWord(prog, 1), isa::makeI(Opcode::ADDI, 4, 5, -7));
    EXPECT_EQ(decodeWord(prog, 2).op, Opcode::HALT);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble("; leading comment\n"
                                  "\n"
                                  "nop // trailing\n"
                                  "nop # hash comment\n"
                                  "   \t \n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.words.size(), 2u);
}

TEST(Assembler, LabelsAndBranches)
{
    const Program prog = assemble("start:\n"
                                  "  nop\n"
                                  "loop: addi r1, r1, -1\n"
                                  "  bne r1, r2, loop\n"
                                  "  b start\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("start"), 0u);
    EXPECT_EQ(prog.addressOf("loop"), 1u);
    // bne at word 2, target word 1 -> offset -1.
    EXPECT_EQ(decodeWord(prog, 2), isa::makeB(Opcode::BNE, 1, 2, -1));
    // b at word 3 -> beq r0, r0 with offset -3.
    EXPECT_EQ(decodeWord(prog, 3), isa::makeB(Opcode::BEQ, 0, 0, -3));
}

TEST(Assembler, ForwardReferences)
{
    const Program prog = assemble("  jal r0, target\n"
                                  "  nop\n"
                                  "target: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeJ(Opcode::JAL, 0, 2));
}

TEST(Assembler, MemoryOperands)
{
    const Program prog = assemble("ld r1, 4(r2)\n"
                                  "st r3, (r4)\n"
                                  "ld r5, -1(r6)\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::LD, 1, 2, 4));
    EXPECT_EQ(decodeWord(prog, 1), isa::makeI(Opcode::ST, 3, 4, 0));
    EXPECT_EQ(decodeWord(prog, 2), isa::makeI(Opcode::LD, 5, 6, -1));
}

TEST(Assembler, MovPseudo)
{
    const Program prog = assemble("mov r1, r2\n"
                                  "mov r3, psw\n"
                                  "mov psw, r4\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::ADDI, 1, 2, 0));
    Instruction mfpsw = decodeWord(prog, 1);
    EXPECT_EQ(mfpsw.op, Opcode::MFPSW);
    EXPECT_EQ(mfpsw.rd, 3);
    Instruction mtpsw = decodeWord(prog, 2);
    EXPECT_EQ(mtpsw.op, Opcode::MTPSW);
    EXPECT_EQ(mtpsw.rs1, 4);
}

TEST(Assembler, LiExpandsToLuiOri)
{
    const Program prog = assemble("li r1, 0x12345\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 2u);
    const Instruction lui = decodeWord(prog, 0);
    const Instruction ori = decodeWord(prog, 1);
    EXPECT_EQ(lui.op, Opcode::LUI);
    EXPECT_EQ(ori.op, Opcode::ORI);
    const uint32_t value = (static_cast<uint32_t>(lui.imm) << 12) |
                           static_cast<uint32_t>(ori.imm);
    EXPECT_EQ(value, 0x12345u);

    // Bit 11 set: ORI's signed immediate cannot hold the low part, so
    // the expansion becomes lui (hi + 1) + addi (lo - 4096). Still two
    // words; the machine must end up with the literal value.
    for (const uint32_t v : {0x800u, 0x1fffu, 0x12345u, 0x3ffff7ffu}) {
        const Program li = assemble("li r1, " + std::to_string(v) +
                                    "\nhalt\n");
        ASSERT_TRUE(li.ok()) << v;
        ASSERT_EQ(li.words.size(), 3u) << v;
        machine::Cpu cpu{machine::CpuConfig{}};
        cpu.mem().loadImage(li.base, li.words);
        cpu.run(10);
        ASSERT_TRUE(cpu.halted()) << v;
        EXPECT_EQ(cpu.readContextReg(1), v) << v;
    }
}

TEST(Assembler, LaResolvesLabelAddress)
{
    const Program prog = assemble("  la r1, data\n"
                                  "  halt\n"
                                  "data: .word 99\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("data"), 3u);
    const Instruction lui = decodeWord(prog, 0);
    const Instruction ori = decodeWord(prog, 1);
    const uint32_t value = (static_cast<uint32_t>(lui.imm) << 12) |
                           static_cast<uint32_t>(ori.imm);
    EXPECT_EQ(value, 3u);
    EXPECT_EQ(prog.words[3], 99u);
}

TEST(Assembler, EquConstants)
{
    const Program prog = assemble(".equ LIMIT, 42\n"
                                  "addi r1, r2, LIMIT\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::ADDI, 1, 2, 42));
}

TEST(Assembler, OrgPadsImage)
{
    const Program prog = assemble("nop\n"
                                  ".org 4\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.words.size(), 5u);
    EXPECT_EQ(decodeWord(prog, 4).op, Opcode::HALT);
}

TEST(Assembler, LeadingOrgSetsBase)
{
    const Program prog = assemble(".org 100\n"
                                  "start: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.base, 100u);
    EXPECT_EQ(prog.addressOf("start"), 100u);
    EXPECT_EQ(prog.words.size(), 1u);
}

TEST(Assembler, AlignPads)
{
    const Program prog = assemble("nop\n"
                                  ".align 4\n"
                                  "aligned: halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.addressOf("aligned"), 4u);
}

TEST(Assembler, HexAndNegativeLiterals)
{
    const Program prog = assemble("addi r1, r2, 0x7f\n"
                                  "addi r3, r4, -0x10\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0).imm, 0x7f);
    EXPECT_EQ(decodeWord(prog, 1).imm, -16);
}

TEST(Assembler, JalrTwoOperandForm)
{
    const Program prog = assemble("jalr r1, r2\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(decodeWord(prog, 0), isa::makeI(Opcode::JALR, 1, 2, 0));
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    const Program prog = assemble("frobnicate r1\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("unknown"),
              std::string::npos);
    EXPECT_EQ(prog.errors[0].line, 1);
}

TEST(AssemblerErrors, UndefinedLabel)
{
    const Program prog = assemble("b nowhere\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("nowhere"),
              std::string::npos);
}

TEST(AssemblerErrors, ImmediateOutOfRange)
{
    // Each immediate or offset that misses its field is a line error,
    // never an encoder abort.
    const char *const bad[] = {
        "addi r1, r0, 5000\n",       // signed 12-bit
        "addi r1, r0, -2049\n",
        "addi r1, r0, 0x100000001\n", // would truncate to 1
        "ld r1, 4096(r2)\n",
        "slti r1, r2, 2048\n",
        "lui r1, 0x40000\n",         // unsigned 18-bit
        "lui r1, -1\n",
        "fault 4096\n",              // unsigned 12-bit
        "ldrrmx r1, -1\n",
        "beq r1, r2, 2048\n",        // signed 12-bit offset
        "jal r1, -131073\n",         // signed 18-bit offset
        "b far\n.org 3000\nfar: halt\n",
        "li r1, 0x3ffff800\n",       // needs LUI immediate 2^18
        "la r1, 0x40000000\n",
    };
    for (const char *source : bad) {
        const Program prog = assemble(source);
        ASSERT_FALSE(prog.ok()) << source;
        EXPECT_EQ(prog.errors[0].line, 1) << source;
        EXPECT_NE(prog.errors[0].message.find("range"),
                  std::string::npos)
            << source << prog.errors[0].message;
    }
    // The field edges themselves assemble.
    EXPECT_TRUE(assemble("addi r1, r0, 2047\naddi r1, r0, -2048\n"
                         "lui r1, 0x3ffff\nfault 4095\n"
                         "jal r1, 131071\n")
                    .ok());
}

TEST(AssemblerErrors, DuplicateLabel)
{
    const Program prog = assemble("x: nop\nx: nop\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("duplicate"),
              std::string::npos);
    EXPECT_EQ(prog.errors[0].line, 2);
}

TEST(AssemblerErrors, BadRegister)
{
    const Program prog = assemble("add r1, r64, r2\n");
    ASSERT_FALSE(prog.ok());
}

TEST(AssemblerErrors, WrongOperandCount)
{
    const Program prog = assemble("add r1, r2\n");
    ASSERT_FALSE(prog.ok());
    EXPECT_NE(prog.errors[0].message.find("expects"),
              std::string::npos);
}

TEST(AssemblerErrors, BackwardOrgRejected)
{
    const Program prog = assemble("nop\nnop\n.org 1\nnop\n");
    ASSERT_FALSE(prog.ok());
}

TEST(Assembler, LineMappingTracksSource)
{
    const Program prog = assemble("nop\n"
                                  "nop\n"
                                  "halt\n");
    ASSERT_TRUE(prog.ok());
    EXPECT_EQ(prog.lines[0], 1);
    EXPECT_EQ(prog.lines[1], 2);
    EXPECT_EQ(prog.lines[2], 3);
}

TEST(Assembler, ThreadDirectiveRecordsEntryPoints)
{
    const Program prog = assemble(".thread worker\n"
                                  ".thread other, 0x20\n"
                                  "entry:\n"
                                  "    halt\n"
                                  "worker:\n"
                                  "    halt\n"
                                  "other:\n"
                                  "    halt\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.threads.size(), 2u);
    EXPECT_EQ(prog.threads[0].address, prog.addressOf("worker"));
    EXPECT_FALSE(prog.threads[0].hasRrm);
    EXPECT_EQ(prog.threads[1].address, prog.addressOf("other"));
    EXPECT_TRUE(prog.threads[1].hasRrm);
    EXPECT_EQ(prog.threads[1].rrm, 0x20u);
    // Directives emit no words.
    EXPECT_EQ(prog.words.size(), 3u);
}

TEST(Assembler, LockdefDirectiveRecordsLockProcedures)
{
    const Program prog = assemble(".lockdef m, take, drop\n"
                                  "take:\n"
                                  "    jmp r8\n"
                                  "drop:\n"
                                  "    jmp r8\n");
    ASSERT_TRUE(prog.ok());
    ASSERT_EQ(prog.lockdefs.size(), 1u);
    EXPECT_EQ(prog.lockdefs[0].name, "m");
    EXPECT_EQ(prog.lockdefs[0].acquire, prog.addressOf("take"));
    EXPECT_EQ(prog.lockdefs[0].release, prog.addressOf("drop"));
}

TEST(Assembler, AddressTakenTracksLabelMaterialisations)
{
    // Labels materialised via la/li or .word are potential JALR
    // targets; plain numbers and .equ constants are not.
    const Program prog = assemble("    .equ K, 0x40\n"
                                  "entry:\n"
                                  "    la r4, helper\n"
                                  "    li r5, K\n"
                                  "    li r6, 7\n"
                                  "    halt\n"
                                  "helper:\n"
                                  "    jmp r8\n"
                                  "    .word tail\n"
                                  "tail:\n"
                                  "    halt\n");
    ASSERT_TRUE(prog.ok());
    const std::vector<uint32_t> expect = {prog.addressOf("helper"),
                                          prog.addressOf("tail")};
    EXPECT_EQ(prog.addressTaken, expect);
}

TEST(AssemblerErrors, MalformedConcurrencyDirectives)
{
    EXPECT_FALSE(assemble(".thread\nhalt\n").ok());
    EXPECT_FALSE(assemble(".thread nowhere\nhalt\n").ok());
    EXPECT_FALSE(assemble(".lockdef m, onlyone\nhalt\n").ok());
    EXPECT_FALSE(
        assemble(".lockdef m, a, nowhere\na:\n jmp r8\n").ok());
}


/**
 * Property: disassembly is valid assembler input, and re-assembling
 * it reproduces the original word — for every opcode with random
 * legal operands.
 */
class DisasmRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DisasmRoundTrip, TextSurvivesReassembly)
{
    const auto op = static_cast<isa::Opcode>(GetParam());
    const isa::Format fmt = isa::formatOf(op);
    const isa::FormatInfo info = isa::formatInfo(fmt);
    rr::Rng rng(GetParam() * 131 + 5);

    for (int trial = 0; trial < 50; ++trial) {
        isa::Instruction inst;
        inst.op = op;
        if (info.hasRd)
            inst.rd = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasRs1)
            inst.rs1 = static_cast<uint8_t>(rng.nextRange(0, 63));
        if (info.hasRs2)
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

        const uint32_t word = isa::encode(inst);
        const std::string text = isa::disassemble(inst);
        const Program prog = assemble(text + "\n");
        ASSERT_TRUE(prog.ok()) << text;
        ASSERT_EQ(prog.words.size(), 1u) << text;
        EXPECT_EQ(prog.words[0], word) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, DisasmRoundTrip,
    ::testing::Range(0u, isa::numOpcodes),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return std::string(
            isa::mnemonicOf(static_cast<isa::Opcode>(info.param)));
    });

// Robustness fuzz: random printable garbage through the assembler.
TEST(AssemblerFuzz, GarbageNeverCrashes)
{
    Rng rng(2026);
    const char charset[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 ,():.#;-rx\n\t";
    for (int trial = 0; trial < 500; ++trial) {
        std::string source;
        const size_t len = 1 + rng.nextRange(0, 200);
        for (size_t i = 0; i < len; ++i) {
            source.push_back(
                charset[rng.nextRange(0, sizeof(charset) - 2)]);
        }
        const assembler::Program prog = assembler::assemble(source);
        // Either it assembled (tiny chance) or produced diagnostics;
        // both must leave a consistent Program.
        if (!prog.ok()) {
            EXPECT_FALSE(prog.errors.empty());
        }
        EXPECT_EQ(prog.words.size(), prog.lines.size());
    }
}

// Mutation fuzz: start from valid code, flip characters.
TEST(AssemblerFuzz, MutatedValidProgramsNeverCrash)
{
    const std::string valid = "start: addi r1, r2, 10\n"
                              "  ld r3, 4(r1)\n"
                              "  bne r1, r3, start\n"
                              "  jal r0, start\n"
                              "  halt\n";
    Rng rng(77);
    for (int trial = 0; trial < 500; ++trial) {
        std::string source = valid;
        const int mutations = 1 + static_cast<int>(rng.nextRange(0, 4));
        for (int m = 0; m < mutations; ++m) {
            const size_t pos = rng.nextRange(0, source.size() - 1);
            source[pos] =
                static_cast<char>(32 + rng.nextRange(0, 94));
        }
        const assembler::Program prog = assembler::assemble(source);
        EXPECT_EQ(prog.words.size(), prog.lines.size());
    }
}

} // namespace
} // namespace rr::assembler
