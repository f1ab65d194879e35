/**
 * @file
 * Assembler tests: labels, directives, pseudo-instructions, PC-
 * relative branch resolution, memory operands, comments, error
 * diagnostics, and a robustness fuzz: arbitrary garbage input must
 * produce diagnostics, never crashes or bogus images. The golden test
 * at the end pins every Program field, byte for byte, over the whole
 * assembly corpus the repository feeds the assembler.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "base/rng.hh"
#include "isa/instruction.hh"
#include "kernel/machine_mt_kernel.hh"
#include "machine/cpu.hh"
#include "runtime/asm_routines.hh"
#include "runtime/sync_runtime.hh"

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

// A literal past the int64 range is not a literal: each use is a line
// error, never an overflowed value.
TEST(Assembler, OverlongLiteralIsALineError)
{
    const std::pair<const char *, const char *> cases[] = {
        {"addi r1, r0, 99999999999999999999\n",
         "line 1: cannot resolve '99999999999999999999'"},
        {".org 0x10000000000000000\n",
         "line 1: .org expects a nonnegative literal"},
        {".equ BIG, -99999999999999999999\n",
         "line 1: .equ value must be a literal"},
    };
    for (const auto &[source, message] : cases) {
        const Program prog = assemble(source);
        ASSERT_EQ(prog.errors.size(), 1u) << source;
        EXPECT_EQ(prog.errors[0].str(), message);
    }
}

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


// ---- golden Program digests ------------------------------------------
//
// One digest of every Program field per input, compared against
// tests/golden/assembler_programs.txt: every .s file under examples/
// and tests/asm, the generated runtime sources the kernels assemble,
// malformed inputs for each diagnostic class, and a seeded corpus of
// random token soup that exercises the lexer's whitespace, comment,
// case and separator handling. An assembler change must leave every
// line of the file unchanged. A change that means to move a Program
// rewrites the file from the failure output's actual "name digest"
// lines, and says which inputs moved and why.

/** FNV-1a 64 over a canonical rendering of a Program. */
class ProgramDigest
{
  public:
    void
    u64(uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(value >> (8 * i)));
    }

    void
    text(const std::string &s)
    {
        u64(s.size());
        for (const char c : s)
            byte(static_cast<uint8_t>(c));
    }

    void
    program(const Program &prog)
    {
        u64(prog.base);
        u64(prog.words.size());
        for (const uint32_t w : prog.words)
            u64(w);
        u64(prog.lines.size());
        for (const int l : prog.lines)
            u64(static_cast<uint64_t>(static_cast<int64_t>(l)));
        u64(prog.symbols.size());
        for (const auto &[name, addr] : prog.symbols) {
            text(name);
            u64(addr);
        }
        u64(prog.lockdefs.size());
        for (const LockDef &d : prog.lockdefs) {
            text(d.name);
            u64(d.acquire);
            u64(d.release);
            u64(static_cast<uint64_t>(static_cast<int64_t>(d.line)));
        }
        u64(prog.threads.size());
        for (const ThreadDecl &t : prog.threads) {
            u64(t.address);
            u64(t.hasRrm ? 1 : 0);
            u64(t.rrm);
            u64(static_cast<uint64_t>(static_cast<int64_t>(t.line)));
        }
        u64(prog.addressTaken.size());
        for (const uint32_t a : prog.addressTaken)
            u64(a);
        u64(prog.errors.size());
        for (const Diagnostic &e : prog.errors) {
            u64(static_cast<uint64_t>(static_cast<int64_t>(e.line)));
            text(e.message);
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    void
    byte(uint8_t b)
    {
        hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }

    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Every .s file under @p dir, sorted, keyed by its repo path. */
std::vector<std::pair<std::string, std::string>>
sourceFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &it :
         fs::recursive_directory_iterator(fs::path(RR_SOURCE_DIR) / dir)) {
        if (it.path().extension() != ".s")
            continue;
        std::ifstream in(it.path());
        std::ostringstream text;
        text << in.rdbuf();
        out.emplace_back(
            fs::relative(it.path(), RR_SOURCE_DIR).generic_string(),
            text.str());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Seeded random sources (splitmix64, so the corpus never depends on
 * library RNG changes). Half are token soup, which mostly stops in
 * pass 1; half are statement-shaped lines with real heads, random
 * operands and random spacing, comments and labels, which reach the
 * pass-2 operand parsers.
 */
std::vector<std::string>
randomSources(unsigned count)
{
    static const char *const kHeads[] = {
        "add", "ADDI", "sub", "and", "or", "xor", "sll", "srl", "sra",
        "slt", "sltu", "andi", "ori", "xori", "slti", "slli", "srli",
        "srai", "ld", "st", "beq", "Bne", "blt", "bge", "jal", "jalr",
        "jmp", "lui", "ldrrm", "rdrrm", "ldrrmx", "mfpsw", "mtpsw",
        "ff1", "fault", "halt", "nop", "mov", "li", "LA", "b", ".org",
        ".word", ".align", ".equ", ".thread", ".lockdef", "frob"};
    static const char *const kOperands[] = {
        "r0", "r1", "R7", "r31", "r63", "r64", "r", "rx", "r1x", "psw",
        "PSW", "0", "1", "-1", "+3", "4095", "2047", "-2048", "2048",
        "0x10", "0X7ff", "0xfffff", "0x", "-", "99999999999", "entry",
        "loop", "_x", ".L1", "K", "4(r2)", "(r3)", "-1(r1)", "8[r1]",
        "x(r1)", "K(r2)", ")r1(", "0xFF", "r007", "PsW", "4/2",
        "\xc3\xa9", ""};
    static const char *const kSoup[] = {
        "add", "ld", "r0", "r1", "psw", "0x10", "-5", "entry", "(",
        ")", ":", ",", " ", "\t", ";c", "#c", "//c", "\r", "\v", "\f",
        "/", "x/y", "\xc3\xa9", "x:", ".org", ".equ"};
    static const char *const kSpace[] = {"", " ", "  ", "\t", " \t"};
    static const char *const kLabels[] = {"entry:", "loop:", "_x:", ".L1:",
                                          "K:", "a.b:", "L2:", "1x:"};
    static const char *const kComments[] = {"", "", ";c", "#c", "//c",
                                            "; a, b: c", "\r", "/x"};
    uint64_t state = 0x5eed;
    auto next = [&state](uint64_t bound) {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) % bound;
    };
    auto pick = [&next](const auto &table) {
        return table[next(sizeof(table) / sizeof(table[0]))];
    };
    std::vector<std::string> out;
    for (unsigned i = 0; i < count; ++i) {
        std::string source;
        const bool soup = i % 2 == 0;
        const uint64_t lines = next(12);
        for (uint64_t l = 0; l < lines; ++l) {
            if (soup) {
                for (uint64_t t = next(8); t > 0; --t)
                    source += pick(kSoup);
            } else {
                source += pick(kSpace);
                if (next(4) == 0)
                    source += std::string(pick(kLabels)) + pick(kSpace);
                if (next(8) != 0) {
                    source += std::string(pick(kHeads)) + " " +
                              pick(kSpace);
                    for (uint64_t o = next(5); o > 0; --o) {
                        source += pick(kOperands);
                        if (o > 1)
                            source += std::string(pick(kSpace)) + "," +
                                      pick(kSpace);
                    }
                }
                source += std::string(pick(kSpace)) + pick(kComments);
            }
            source += next(8) == 0 ? "\r\n" : "\n";
        }
        if (next(3) == 0)
            source += "halt"; // no trailing newline
        out.push_back(std::move(source));
    }
    return out;
}

/** name -> source for every input the golden file pins. */
std::vector<std::pair<std::string, std::string>>
goldenInputs()
{
    std::vector<std::pair<std::string, std::string>> in;
    for (const char *dir : {"examples", "tests/asm"})
        for (auto &file : sourceFiles(dir))
            in.push_back(std::move(file));

    for (const runtime::SyncScenario scenario :
         {runtime::SyncScenario::UncontendedLock,
          runtime::SyncScenario::LockConvoy,
          runtime::SyncScenario::ProducerConsumer,
          runtime::SyncScenario::BarrierSkew}) {
        runtime::SyncProgramParams params;
        params.scenario = scenario;
        in.emplace_back(std::string("sync/") +
                            runtime::syncScenarioName(scenario),
                        runtime::syncScenarioSource(params));
    }
    in.emplace_back("runtime/round_robin_demo",
                    runtime::roundRobinDemoSource());
    in.emplace_back("runtime/appendix_a_allocator",
                    runtime::appendixAAllocatorSource());
    in.emplace_back("runtime/save_restore_30",
                    runtime::saveRestoreSource(30));
    in.emplace_back("runtime/two_phase_scheduler",
                    runtime::twoPhaseSchedulerSource(50, 3));
    in.emplace_back("runtime/rotation_scheduler",
                    runtime::rotationSchedulerSource(50));
    in.emplace_back("kernel/machine_mt", kernel::machineMtKernelSource());

    const std::pair<const char *, const char *> malformed[] = {
        {"bad/duplicate_label", "a: nop\na: halt\n"},
        {"bad/register", "add r1, r99, r2\naddi rx, r1, 2\nmov r1, psx\n"},
        {"bad/unresolved_symbol",
         "beq r0, r0, nowhere\nla r1, missing\n.word gone\n"},
        {"bad/immediate_range",
         "addi r1, r0, 5000\nlui r1, 999999999\nli r1, 0x40000000\n"
         "fault -1\nentry: b 99999\n"},
        {"bad/unknown_mnemonic", "frob r1, r2\n.bogus 3\n"},
        {"bad/operand_count",
         "add r1, r2\nhalt r1\nld r1\nst r1, 4[r2]\nmov psw, psw\n"
         "jal r1\nb\nli r1\n.word 1, 2\n"},
        {"bad/directives",
         ".org 16\n.org 8\n.equ X\n.equ Y, nope\n.align 0\n"
         ".thread\n.thread nowhere\n.lockdef a, b\n"
         ".lockdef m, nowhere, x\n"},
        {"edge/layout",
         "  .org 0x10 ; base\nA: B: add r1, r2, r3 # two labels\n"
         "\t.align 4\n.equ K, -3\nC:\n  addi r1, r1, K // equ\n"
         ".word C\n.thread A, 0x20\n.thread C\n.lockdef m, A, C\n"
         "la r5, A\nli r6, 0x800\nld r2, (r3)\nst r2, -1(r3)\n"
         "jalr r1, r2\nmov r1, PSW\nmov psw, r1\nADD R1, R2, R3\r\n"
         "b A\nbeq r0, r0, 2\njal r0, 0\nhalt"},
        {"edge/empty", ""},
        {"edge/blank_lines", "\n\n \t\r\n;only a comment\n"},
    };
    for (const auto &[name, source] : malformed)
        in.emplace_back(name, source);

    const std::vector<std::string> random = randomSources(600);
    for (size_t i = 0; i < random.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "random/%03zu", i);
        in.emplace_back(name, random[i]);
    }
    return in;
}

TEST(AssemblerGolden, ProgramDigestsMatchGolden)
{
    std::ifstream file(std::string(RR_SOURCE_DIR) +
                       "/tests/golden/assembler_programs.txt");
    ASSERT_TRUE(file.good()) << "missing golden file";
    std::vector<std::pair<std::string, std::string>> golden;
    std::string name, digest;
    while (file >> name >> digest)
        golden.emplace_back(name, digest);

    const auto inputs = goldenInputs();
    EXPECT_EQ(inputs.size(), golden.size())
        << "the golden file and the input list disagree";
    for (size_t i = 0; i < inputs.size(); ++i) {
        ProgramDigest d;
        d.program(assemble(inputs[i].second));
        const std::string want =
            i < golden.size() ? golden[i].first + " " + golden[i].second
                              : "(none)";
        EXPECT_EQ(inputs[i].first + " " + d.hex(), want);
    }
}

} // namespace
} // namespace rr::assembler
