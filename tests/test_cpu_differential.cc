/**
 * @file
 * Differential test of the CPU's ALU against an independent oracle:
 * random operands through every arithmetic/logic opcode, LUI and FF1,
 * checked against a second, straight-line implementation of the
 * semantics on both executors (the reference step() and superblocks),
 * and against rrlint's constant folder.
 *
 * The oracle deliberately does not use isa/semantics.hh: it is the
 * check on that header, not another caller of it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/static/cfg.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "base/rng.hh"
#include "machine/cpu.hh"

namespace rr::machine {
namespace {

/** Independent re-statement of the RRISC ALU semantics. */
uint32_t
oracle(isa::Opcode op, uint32_t a, uint32_t b, int32_t imm)
{
    using isa::Opcode;
    const auto sa = static_cast<int32_t>(a);
    const auto ib = static_cast<uint32_t>(imm);
    switch (op) {
      case Opcode::ADD:
        return a + b;
      case Opcode::SUB:
        return a - b;
      case Opcode::AND:
        return a & b;
      case Opcode::OR:
        return a | b;
      case Opcode::XOR:
        return a ^ b;
      case Opcode::SLL:
        return a << (b & 31);
      case Opcode::SRL:
        return a >> (b & 31);
      case Opcode::SRA:
        return static_cast<uint32_t>(sa >> (b & 31));
      case Opcode::SLT:
        return sa < static_cast<int32_t>(b) ? 1 : 0;
      case Opcode::SLTU:
        return a < b ? 1 : 0;
      case Opcode::ADDI:
        return a + ib;
      case Opcode::ANDI:
        return a & ib;
      case Opcode::ORI:
        return a | ib;
      case Opcode::XORI:
        return a ^ ib;
      case Opcode::SLTI:
        return sa < imm ? 1 : 0;
      case Opcode::SLLI:
        return a << (ib & 31);
      case Opcode::SRLI:
        return a >> (ib & 31);
      case Opcode::SRAI:
        return static_cast<uint32_t>(sa >> (ib & 31));
      case Opcode::LUI:
        return ib << 12;
      case Opcode::FF1:
        for (uint32_t bit = 0; bit < 32; ++bit) {
            if ((a >> bit) & 1)
                return bit;
        }
        return 0xffffffffu;
      default:
        return 0;
    }
}

/** A quarter of the operands are tiny (FF1 sees 0), the rest wide. */
uint32_t
operand(Rng &rng)
{
    return static_cast<uint32_t>(rng.nextRange(0, 3) == 0
                                     ? rng.nextRange(0, 3)
                                     : rng.next());
}

/**
 * Run @p code, then HALT, with r1 = @p a and r2 = @p b on the
 * reference step() (@p predecode false) or on superblocks (true).
 * @return r3.
 */
uint32_t
runCode(bool predecode, const std::vector<isa::Instruction> &code,
        uint32_t a, uint32_t b)
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 5;
    config.memWords = 64;
    config.predecode = predecode;
    Cpu cpu(config);
    EXPECT_EQ(cpu.predecodeActive(), predecode);
    cpu.regs().write(1, a);
    cpu.regs().write(2, b);
    uint32_t pc = 0;
    for (const isa::Instruction &inst : code)
        cpu.mem().write(pc++, isa::encode(inst));
    isa::Instruction halt;
    halt.op = isa::Opcode::HALT;
    cpu.mem().write(pc, isa::encode(halt));
    cpu.run(code.size() + 1);
    EXPECT_EQ(cpu.trap(), TrapKind::None);
    EXPECT_TRUE(cpu.halted());
    return cpu.regs().read(3);
}

TEST(CpuDifferential, RegisterRegisterOpsMatchOracle)
{
    // FF1 (format R2) reads only rs1; its encoding drops rs2.
    const isa::Opcode ops[] = {
        isa::Opcode::ADD, isa::Opcode::SUB, isa::Opcode::AND,
        isa::Opcode::OR,  isa::Opcode::XOR, isa::Opcode::SLL,
        isa::Opcode::SRL, isa::Opcode::SRA, isa::Opcode::SLT,
        isa::Opcode::SLTU, isa::Opcode::FF1};
    for (const bool predecode : {false, true}) {
        SCOPED_TRACE(predecode ? "superblocks" : "reference step()");
        Rng rng(606);
        for (int trial = 0; trial < 2000; ++trial) {
            const isa::Opcode op = ops[rng.nextRange(0, 10)];
            const uint32_t a = operand(rng);
            const uint32_t b = operand(rng);
            EXPECT_EQ(runCode(predecode, {isa::makeR3(op, 3, 1, 2)}, a, b),
                      oracle(op, a, b, 0))
                << isa::mnemonicOf(op) << " a=" << a << " b=" << b;
        }
    }
}

TEST(CpuDifferential, ImmediateOpsMatchOracle)
{
    const isa::Opcode ops[] = {
        isa::Opcode::ADDI, isa::Opcode::ANDI, isa::Opcode::ORI,
        isa::Opcode::XORI, isa::Opcode::SLTI, isa::Opcode::SLLI,
        isa::Opcode::SRLI, isa::Opcode::SRAI, isa::Opcode::LUI};
    for (const bool predecode : {false, true}) {
        SCOPED_TRACE(predecode ? "superblocks" : "reference step()");
        Rng rng(707);
        for (int trial = 0; trial < 2000; ++trial) {
            const isa::Opcode op = ops[rng.nextRange(0, 8)];
            const auto a = static_cast<uint32_t>(rng.next());
            // LUI takes an unsigned 18-bit immediate, the rest a
            // signed 12-bit one.
            const int32_t imm =
                op == isa::Opcode::LUI
                    ? static_cast<int32_t>(rng.nextRange(0, 0x3ffff))
                    : static_cast<int32_t>(rng.nextRange(0, 4095)) -
                          2048;
            const isa::Instruction inst =
                op == isa::Opcode::LUI ? isa::makeJ(op, 3, imm)
                                       : isa::makeI(op, 3, 1, imm);
            EXPECT_EQ(runCode(predecode, {inst}, a, 0),
                      oracle(op, a, 0, imm))
                << isa::mnemonicOf(op) << " a=" << a << " imm=" << imm;
        }
    }
}

TEST(CpuDifferential, BranchDecisionsMatchOracle)
{
    const isa::Opcode ops[] = {isa::Opcode::BEQ, isa::Opcode::BNE,
                               isa::Opcode::BLT, isa::Opcode::BGE};
    for (const bool predecode : {false, true}) {
        SCOPED_TRACE(predecode ? "superblocks" : "reference step()");
        Rng rng(808);
        for (int trial = 0; trial < 1000; ++trial) {
            const isa::Opcode op = ops[rng.nextRange(0, 3)];
            // Mix wide-random and near-equal operands.
            const uint32_t a = operand(rng);
            const uint32_t b = operand(rng);

            bool expect_taken = false;
            switch (op) {
              case isa::Opcode::BEQ:
                expect_taken = a == b;
                break;
              case isa::Opcode::BNE:
                expect_taken = a != b;
                break;
              case isa::Opcode::BLT:
                expect_taken = static_cast<int32_t>(a) <
                               static_cast<int32_t>(b);
                break;
              default:
                expect_taken = static_cast<int32_t>(a) >=
                               static_cast<int32_t>(b);
                break;
            }

            // Branch over one instruction: r3 = 1 only when NOT
            // taken.
            EXPECT_EQ(runCode(predecode,
                              {isa::makeB(op, 1, 2, 2),
                               isa::makeI(isa::Opcode::ADDI, 3, 4, 1)},
                              a, b),
                      expect_taken ? 0u : 1u)
                << isa::mnemonicOf(op) << " a=" << a << " b=" << b;
        }
    }
}

/**
 * Assembly that leaves @p value in register @p reg using only
 * lui/ori/slli, in 10/11/11-bit chunks (ORI's immediate is signed
 * 12-bit).
 */
std::string
materialise(unsigned reg, uint32_t value)
{
    std::ostringstream os;
    const auto ori = [&](uint32_t chunk) {
        os << "ori r" << reg << ", r" << reg << ", " << chunk << "\n";
    };
    const auto slli = [&] {
        os << "slli r" << reg << ", r" << reg << ", 11\n";
    };
    os << "lui r" << reg << ", 0\n";
    ori(value >> 22);
    slli();
    ori((value >> 11) & 0x7ff);
    slli();
    ori(value & 0x7ff);
    return os.str();
}

TEST(CpuDifferential, RrlintFolderMatchesOracle)
{
    // rrlint folds constants through every ALU op; an `ld` through the
    // result exposes the folded value as its abstract address.
    const isa::Opcode ops[] = {
        isa::Opcode::ADD,  isa::Opcode::SUB,  isa::Opcode::AND,
        isa::Opcode::OR,   isa::Opcode::XOR,  isa::Opcode::SLL,
        isa::Opcode::SRL,  isa::Opcode::SRA,  isa::Opcode::SLT,
        isa::Opcode::SLTU, isa::Opcode::ADDI, isa::Opcode::ANDI,
        isa::Opcode::ORI,  isa::Opcode::XORI, isa::Opcode::SLTI,
        isa::Opcode::SLLI, isa::Opcode::SRLI, isa::Opcode::SRAI,
        isa::Opcode::LUI,  isa::Opcode::FF1};
    Rng rng(909);
    for (int trial = 0; trial < 600; ++trial) {
        const isa::Opcode op = ops[rng.nextRange(0, 19)];
        const uint32_t a = operand(rng);
        const uint32_t b = operand(rng);
        const std::string mn = isa::mnemonicOf(op);
        int32_t imm = 0;
        std::string inst;
        switch (isa::formatOf(op)) {
          case isa::Format::R3:
            inst = mn + " r3, r1, r2";
            break;
          case isa::Format::R2:
            inst = mn + " r3, r1";
            break;
          case isa::Format::UI:
            imm = static_cast<int32_t>(rng.nextRange(0, 0x3ffff));
            inst = mn + " r3, " + std::to_string(imm);
            break;
          default:
            imm = static_cast<int32_t>(rng.nextRange(0, 4095)) - 2048;
            inst = mn + " r3, r1, " + std::to_string(imm);
            break;
        }
        const assembler::Program prog =
            assembler::assemble(materialise(1, a) + materialise(2, b) +
                                inst + "\nld r4, 0(r3)\nhalt\n");
        ASSERT_TRUE(prog.ok()) << inst;
        const lint::Cfg cfg(prog);
        const lint::RrmAnalysis rrm(cfg);
        const auto ld_addr =
            static_cast<uint32_t>(prog.base + prog.words.size() - 2);
        EXPECT_EQ(rrm.memAddrBefore(ld_addr),
                  lint::AbsVal::constant(oracle(op, a, b, imm)))
            << inst << " a=" << a << " b=" << b;
    }
}

} // namespace
} // namespace rr::machine
