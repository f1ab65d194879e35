/**
 * @file
 * Tests for the optional pipeline timing model: taken-branch
 * bubbles, load-use stalls, LDRRM decode stalls, and the headline
 * check — with classic 5-stage penalties, the Figure 3 context
 * switch costs ~11 cycles, matching the APRIL measurement the paper
 * cites against its 4-6 cycle ideal.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "kernel/memory_system.hh"
#include "machine/cpu.hh"

namespace rr::machine {
namespace {

CpuConfig
timedConfig()
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 6;
    config.memWords = 1u << 14;
    config.timing = PipelineTimingConfig::classicFiveStage();
    return config;
}

void
load(Cpu &cpu, const std::string &source)
{
    const auto prog = assembler::assemble(source);
    ASSERT_TRUE(prog.ok());
    cpu.mem().loadImage(prog.base, prog.words);
    cpu.setPc(prog.base);
}

TEST(PipelineTiming, DisabledByDefault)
{
    CpuConfig config = timedConfig();
    config.timing = PipelineTimingConfig{};
    EXPECT_FALSE(config.timing.enabled());
    Cpu cpu(config);
    load(cpu, "ld r1, 100(r2)\n"
              "add r3, r1, r1\n" // load-use, but timing off
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.cycles(), 3u);
    EXPECT_EQ(cpu.timingStats().total(), 0u);
}

TEST(PipelineTiming, LoadUseStall)
{
    Cpu cpu(timedConfig());
    load(cpu, "ld r1, 100(r2)\n"
              "add r3, r1, r1\n" // depends on the load: +1
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 1u);
    EXPECT_EQ(cpu.cycles(), 4u);
}

TEST(PipelineTiming, IndependentInstructionAfterLoadNoStall)
{
    Cpu cpu(timedConfig());
    load(cpu, "ld r1, 100(r2)\n"
              "add r3, r4, r5\n" // independent
              "add r6, r1, r1\n" // one cycle later: forwarded
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 0u);
    EXPECT_EQ(cpu.cycles(), 4u);
}

TEST(PipelineTiming, TakenBranchPenalty)
{
    Cpu cpu(timedConfig());
    load(cpu, "beq r1, r2, target\n" // taken (both zero): +2
              "nop\n"
              "target: halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().branchStalls, 2u);
    EXPECT_EQ(cpu.cycles(), 2u + 2u); // beq + halt + 2 bubbles
}

TEST(PipelineTiming, NotTakenBranchIsFree)
{
    Cpu cpu(timedConfig());
    cpu.regs().write(1, 1);
    load(cpu, "beq r1, r2, 2\n" // not taken (1 != 0)
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().branchStalls, 0u);
}

TEST(PipelineTiming, JumpsAndFaultRedirectsPay)
{
    Cpu cpu(timedConfig());
    cpu.setFaultHook([](Cpu &c, uint32_t) { c.setPc(4); });
    load(cpu, "jal r1, 2\n" // +2
              "nop\n"
              "fault 0\n" // redirected by the hook: +2
              "nop\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().branchStalls, 4u);
}

TEST(PipelineTiming, LdrrmPenaltyConfigurable)
{
    CpuConfig config = timedConfig();
    config.timing.ldrrmPenalty = 3; // no-delay-slot architecture
    Cpu cpu(config);
    cpu.regs().write(2, 0);
    load(cpu, "ldrrm r2\nnop\nhalt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.timingStats().ldrrmStalls, 3u);
}

// The paper cites APRIL's 11-cycle context switch; our Figure 3 path
// (jal + ldrrm + 2 movs + jmp) with classic 5-stage penalties pays
// the two redirects (jal, jmp) plus the loop's own taken branch:
// switch cost rises from ~5 ideal to ~11 cycles.
TEST(PipelineTiming, Figure3SwitchCostsElevenCyclesOnRealPipeline)
{
    const kernel::SwitchCost cost = kernel::figure3SwitchCost(
        PipelineTimingConfig::classicFiveStage(), 6000);
    ASSERT_GE(cost.bodyVisits, 100u);

    // Per visit: sub + add + bne(taken, +2) + jal(+2) + yield(4) +
    // jmp(+2) = 8 ideal + 6 bubbles = 14; minus the 3 loop-body
    // instructions leaves ~11 cycles of switch machinery.
    EXPECT_GE(cost.cycles, 9.0);
    EXPECT_LE(cost.cycles, 12.0);
}

} // namespace
} // namespace rr::machine
