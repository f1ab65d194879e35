/**
 * @file
 * Tests for the Section 5 extensions: multiple active RRMs
 * (inter-context operations and register-window emulation), the
 * software-only compile-time relocation model, and the adaptive
 * residency controller for cache interference.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "ext/adaptive.hh"
#include "ext/multi_rrm.hh"
#include "ext/software_only.hh"
#include "machine/cpu.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"

namespace rr::ext {
namespace {

using machine::Cpu;
using machine::CpuConfig;

CpuConfig
dualBankConfig()
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 6; // top bit selects the bank
    config.geometry.banks = 2;
    config.memWords = 4096;
    return config;
}

TEST(MultiRrm, DualContextOperandEncoding)
{
    EXPECT_EQ(dualContextOperand(0, 5, 6), 5u);
    EXPECT_EQ(dualContextOperand(1, 5, 6), 32u + 5u);
    EXPECT_EQ(dualContextOperand(1, 0, 5), 16u);
}

TEST(MultiRrmDeath, BadOperandPanics)
{
    EXPECT_DEATH(dualContextOperand(2, 0, 6), "bank");
    EXPECT_DEATH(dualContextOperand(0, 32, 6), "exceeds");
}

// Section 5.3's motivating example: ADD C0.R3, C0.R4, C1.R6 — an
// inter-context add executed as one instruction.
TEST(MultiRrm, InterContextAdd)
{
    Cpu cpu(dualBankConfig());
    cpu.setRrmImmediate(0, 0);  // context 0 at base 0
    cpu.setRrmImmediate(64, 1); // context 1 at base 64
    cpu.regs().write(4, 10);      // C0.R4
    cpu.regs().write(64 + 6, 32); // C1.R6

    // add C0.r3, C0.r4, C1.r6 encoded through bank-select operands.
    const auto inst = isa::makeR3(isa::Opcode::ADD,
                                  dualContextOperand(0, 3, 6),
                                  dualContextOperand(0, 4, 6),
                                  dualContextOperand(1, 6, 6));
    cpu.mem().write(0, isa::encode(inst));
    cpu.mem().write(1, isa::encode(isa::Instruction{
                            isa::Opcode::HALT, 0, 0, 0, 0}));
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(3), 42u); // C0.R3 = 10 + 32
}

TEST(MultiRrm, LdrrmxLoadsSecondBank)
{
    Cpu cpu(dualBankConfig());
    cpu.regs().write(1, 96);
    const auto prog = assembler::assemble("ldrrmx r1, 1\nhalt\n");
    ASSERT_TRUE(prog.ok());
    cpu.mem().loadImage(0, prog.words);
    cpu.run(10);
    EXPECT_EQ(cpu.relocation().mask(1), 96u);
    EXPECT_EQ(cpu.relocation().mask(0), 0u);
}

TEST(RegisterWindows, LayoutAndSelection)
{
    Cpu cpu(dualBankConfig());
    RegisterWindowEmulator windows(cpu, 32, 8);
    EXPECT_EQ(windows.numWindows(), 4u);
    EXPECT_EQ(windows.windowBase(0), 0u);
    EXPECT_EQ(windows.windowBase(3), 96u);
    EXPECT_EQ(windows.currentWindow(), 0u);
    // Bank 0 -> window 0, bank 1 -> window 1.
    EXPECT_EQ(cpu.relocation().mask(0), 0u);
    EXPECT_EQ(cpu.relocation().mask(1), 32u);
}

// A procedure call passes arguments through bank 1 (the callee's
// in-registers), then pushes; the callee sees them in its own window
// through bank 0.
TEST(RegisterWindows, CallPassesOutgoingArguments)
{
    Cpu cpu(dualBankConfig());
    RegisterWindowEmulator windows(cpu, 32, 8);

    // Caller (window 0) writes outgoing arg to callee's r0 via bank 1.
    const unsigned out_operand = dualContextOperand(1, 0, 6);
    const auto store = isa::makeI(isa::Opcode::ADDI, out_operand, 0,
                                  77); // callee.r0 = r0 + 77
    cpu.mem().write(0, isa::encode(store));
    cpu.mem().write(1, isa::encode(isa::Instruction{
                            isa::Opcode::HALT, 0, 0, 0, 0}));
    cpu.run(10);

    windows.push(); // enter callee: window 1 becomes current
    EXPECT_EQ(windows.currentWindow(), 1u);
    // Callee reads the argument as its own r0 (bank 0).
    EXPECT_EQ(cpu.readContextReg(0), 77u);

    windows.pop();
    EXPECT_EQ(windows.currentWindow(), 0u);
}

TEST(RegisterWindowsDeath, OverflowUnderflowPanic)
{
    Cpu cpu(dualBankConfig());
    RegisterWindowEmulator windows(cpu, 64, 16);
    EXPECT_EQ(windows.numWindows(), 2u);
    windows.push();
    EXPECT_DEATH(windows.push(), "overflow");
    windows.pop();
    EXPECT_DEATH(windows.pop(), "underflow");
}

TEST(SoftwareOnly, PolicyBindsThreadsToSlots)
{
    SoftwareOnlyPolicy policy(64, {16, 16, 32});
    const auto a = policy.allocate(10);
    const auto b = policy.allocate(30);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->size, 16u);
    EXPECT_EQ(b->size, 32u);
    // 30 registers only fit the 32-slot; it is taken.
    EXPECT_FALSE(policy.allocate(20).has_value());
    const auto c = policy.allocate(16);
    ASSERT_TRUE(c);
    policy.release(*b);
    EXPECT_TRUE(policy.allocate(20).has_value());
}

TEST(SoftwareOnlyDeath, ForeignContextPanics)
{
    SoftwareOnlyPolicy policy(64, {32, 32});
    runtime::Context bogus;
    bogus.rrm = 5;
    bogus.size = 32;
    EXPECT_DEATH(policy.release(bogus), "slot");
}

TEST(SoftwareOnly, CodeExpansionShortensRuns)
{
    EXPECT_DOUBLE_EQ(codeExpansionRunLength(100.0, 1, 0.05), 100.0);
    EXPECT_NEAR(codeExpansionRunLength(100.0, 2, 0.05), 95.0, 1e-9);
    EXPECT_NEAR(codeExpansionRunLength(100.0, 4, 0.05), 90.25, 1e-9);
}

TEST(SoftwareOnly, MoreVersionsTolerateMoreLatency)
{
    // Long latency: 2 resident contexts beat 1 despite expansion.
    const SoftwareOnlyResult k1 = simulateSoftwareOnly(
        64, 1, 64.0, 800, 24, 20000, 10);
    const SoftwareOnlyResult k2 = simulateSoftwareOnly(
        64, 2, 64.0, 800, 24, 20000, 10);
    EXPECT_GT(k2.stats.efficiencyCentral,
              k1.stats.efficiencyCentral);
    EXPECT_LT(k2.effectiveRunLength, k1.effectiveRunLength);
}

TEST(Adaptive, InterferenceModel)
{
    EXPECT_DOUBLE_EQ(interferenceRunLength(100.0, 0.0, 8), 100.0);
    EXPECT_DOUBLE_EQ(interferenceRunLength(100.0, 0.25, 1), 100.0);
    EXPECT_DOUBLE_EQ(interferenceRunLength(100.0, 0.25, 5), 50.0);
}

TEST(Adaptive, ResidencyCapIsRespected)
{
    mt::MtConfig config = mt::SimulationSpec()
                              .cacheFaults(32.0, 400)
                              .threads(24)
                              .residencyCap(2)
                              .build();
    const mt::MtStats stats = mt::simulate(std::move(config));
    EXPECT_LE(stats.maxResidentContexts, 2u);
}

TEST(Adaptive, SearchFindsInteriorOptimumUnderInterference)
{
    // Latency short enough that the processor can saturate: past the
    // saturation point, additional contexts only add interference.
    mt::MtConfig base = mt::SimulationSpec()
                            .cacheFaults(64.0, 100)
                            .numRegs(256)
                            .build();
    base.workload = mt::homogeneousWorkload(32, 20000, 8);
    // Strong interference: each extra context costs 60% of R.
    const AdaptiveResult result =
        adaptiveSearch(base, 64.0, 100, 0.6, 12);
    ASSERT_EQ(result.samples.size(), 12u);
    EXPECT_GE(result.best.efficiency, result.uncapped.efficiency);
    // With such heavy interference the optimum is a small cap, not
    // the register-file capacity (32 size-8 contexts).
    EXPECT_LT(result.best.cap, 9u);
    EXPECT_GT(result.best.cap, 1u);
}

TEST(Adaptive, NoInterferenceFavoursMoreContexts)
{
    mt::MtConfig base = mt::SimulationSpec()
                            .cacheFaults(64.0, 400)
                            .numRegs(256)
                            .build();
    base.workload = mt::homogeneousWorkload(32, 20000, 8);
    const AdaptiveResult result =
        adaptiveSearch(base, 64.0, 400, 0.0, 8);
    // alpha = 0: efficiency is monotone in the cap.
    for (size_t i = 1; i < result.samples.size(); ++i) {
        EXPECT_GE(result.samples[i].efficiency + 0.01,
                  result.samples[i - 1].efficiency);
    }
    EXPECT_EQ(result.best.cap, 8u);
}

} // namespace
} // namespace rr::ext
