/**
 * @file
 * CPU tests: instruction semantics, LDRRM delay-slot behaviour
 * (Section 2.1), relocated operand access, traps, fault hooks, and
 * tracing.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "machine/cpu.hh"

namespace rr::machine {
namespace {

CpuConfig
smallConfig()
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 5;
    config.ldrrmDelaySlots = 1;
    config.memWords = 4096;
    return config;
}

/** Assemble and load @p source; panics on assembly errors. */
void
load(Cpu &cpu, const std::string &source)
{
    const assembler::Program prog = assembler::assemble(source);
    for (const auto &error : prog.errors)
        ADD_FAILURE() << error.str();
    ASSERT_TRUE(prog.ok());
    cpu.mem().loadImage(prog.base, prog.words);
    cpu.setPc(prog.base);
}

TEST(Cpu, AluBasics)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 7);
    cpu.regs().write(2, 5);
    load(cpu, "add r3, r1, r2\n"
              "sub r4, r1, r2\n"
              "and r5, r1, r2\n"
              "or  r6, r1, r2\n"
              "xor r7, r1, r2\n"
              "slt r8, r2, r1\n"
              "halt\n");
    cpu.run(100);
    EXPECT_EQ(cpu.regs().read(3), 12u);
    EXPECT_EQ(cpu.regs().read(4), 2u);
    EXPECT_EQ(cpu.regs().read(5), 5u);
    EXPECT_EQ(cpu.regs().read(6), 7u);
    EXPECT_EQ(cpu.regs().read(7), 2u);
    EXPECT_EQ(cpu.regs().read(8), 1u);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.trap(), TrapKind::None);
}

TEST(Cpu, ShiftsAndImmediates)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 0xf0);
    load(cpu, "slli r2, r1, 4\n"
              "srli r3, r1, 4\n"
              "addi r4, r1, -1\n"
              "srai r5, r4, 2\n"
              "halt\n");
    cpu.run(100);
    EXPECT_EQ(cpu.regs().read(2), 0xf00u);
    EXPECT_EQ(cpu.regs().read(3), 0xfu);
    EXPECT_EQ(cpu.regs().read(4), 0xefu);
    EXPECT_EQ(cpu.regs().read(5), 0xefu >> 2);
}

TEST(Cpu, SraSignExtends)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 0x80000000u);
    load(cpu, "srai r2, r1, 4\nhalt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(2), 0xf8000000u);
}

TEST(Cpu, LoadStore)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 100);
    cpu.regs().write(2, 0xdead);
    load(cpu, "st r2, 4(r1)\n"
              "ld r3, 4(r1)\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.mem().read(104), 0xdeadu);
    EXPECT_EQ(cpu.regs().read(3), 0xdeadu);
}

TEST(Cpu, BranchesAndLoop)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 5);  // counter
    cpu.regs().write(2, 1);  // one
    cpu.regs().write(3, 0);  // zero / sum
    load(cpu, "loop: add r3, r3, r1\n"
              "  sub r1, r1, r2\n"
              "  bne r1, r4, loop\n"
              "  halt\n");
    cpu.run(100);
    EXPECT_EQ(cpu.regs().read(3), 5u + 4 + 3 + 2 + 1);
}

TEST(Cpu, JalLinksNextPc)
{
    Cpu cpu(smallConfig());
    load(cpu, "  jal r1, target\n"
              "  halt\n"
              "target: halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(1), 1u); // link = pc + 1
    EXPECT_EQ(cpu.pc(), 3u);           // halted at word 2, pc advanced
}

TEST(Cpu, JalrAndJmp)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(2, 3);
    load(cpu, "  jalr r1, r2\n" // jump to word 3
              "  halt\n"
              "  halt\n"
              "  jmp r1\n" // back to word 1
              "  halt\n");
    cpu.run(10);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.pc(), 2u); // halted at word 1, pc advanced to 2
    EXPECT_EQ(cpu.regs().read(1), 1u);
}

// Section 2.1: "there may be one or more delay slots following a
// LDRRM instruction" — the instruction in the delay slot must still
// relocate through the old mask.
TEST(Cpu, LdrrmDelaySlotUsesOldMask)
{
    Cpu cpu(smallConfig());
    // Context A at base 32, context B at base 64.
    cpu.setRrmImmediate(32);
    cpu.regs().write(32 | 2, 64); // A.r2 = mask of B
    cpu.regs().write(32 | 3, 111); // A.r3
    cpu.regs().write(64 | 3, 222); // B.r3
    load(cpu, "ldrrm r2\n"
              "addi r4, r3, 0\n" // delay slot: reads A.r3
              "addi r5, r3, 0\n" // after: reads B.r3
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(32 | 4), 111u); // written under A
    EXPECT_EQ(cpu.regs().read(64 | 5), 222u); // written under B
    EXPECT_EQ(cpu.rrm(), 64u);
}

TEST(Cpu, LdrrmZeroDelaySlots)
{
    CpuConfig config = smallConfig();
    config.ldrrmDelaySlots = 0;
    Cpu cpu(config);
    cpu.setRrmImmediate(0);
    cpu.regs().write(2, 64);       // r2 = new mask
    cpu.regs().write(64 | 3, 9);   // B.r3
    load(cpu, "ldrrm r2\n"
              "addi r4, r3, 0\n" // immediately under new mask
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(64 | 4), 9u);
}

TEST(Cpu, RdrrmReadsActiveMask)
{
    Cpu cpu(smallConfig());
    cpu.setRrmImmediate(40);
    load(cpu, "rdrrm r1\nhalt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(40 | 1), 40u);
}

TEST(Cpu, PswMoves)
{
    Cpu cpu(smallConfig());
    cpu.setPsw(0x5a);
    load(cpu, "mfpsw r1\n"
              "addi r2, r1, 1\n"
              "mtpsw r2\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.psw(), 0x5bu);
}

TEST(Cpu, Ff1Instruction)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 0x10);
    cpu.regs().write(2, 0);
    load(cpu, "ff1 r3, r1\n"
              "ff1 r4, r2\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(3), 4u);
    EXPECT_EQ(cpu.regs().read(4), 0xffffffffu); // -1: no bit set
}

TEST(Cpu, FaultHookInvoked)
{
    Cpu cpu(smallConfig());
    uint32_t seen_class = 0;
    unsigned calls = 0;
    cpu.setFaultHook([&](Cpu &, uint32_t fault_class) {
        seen_class = fault_class;
        ++calls;
    });
    load(cpu, "fault 3\n"
              "fault 7\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(seen_class, 7u);
    EXPECT_EQ(cpu.faultCount(), 2u);
    EXPECT_EQ(cpu.lastFaultClass(), 7u);
}

TEST(Cpu, FaultHookMayRedirectPc)
{
    Cpu cpu(smallConfig());
    cpu.setFaultHook([](Cpu &c, uint32_t) { c.setPc(4); });
    load(cpu, "fault 0\n"
              "halt\n" // skipped
              "halt\n"
              "halt\n"
              "addi r1, r2, 42\n"
              "halt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.regs().read(1), 42u);
}

TEST(Cpu, OperandWidthTrap)
{
    CpuConfig config = smallConfig();
    config.geometry.operandWidth = 4; // only r0..r15 addressable
    Cpu cpu(config);
    load(cpu, "addi r1, r16, 0\nhalt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.trap(), TrapKind::OperandTooWide);
    EXPECT_EQ(cpu.instructionsRetired(), 0u);
}

TEST(Cpu, MemoryTrap)
{
    Cpu cpu(smallConfig());
    cpu.regs().write(1, 100000); // beyond 4096-word memory
    load(cpu, "ld r2, 0(r1)\nhalt\n");
    cpu.run(10);
    EXPECT_EQ(cpu.trap(), TrapKind::MemOutOfRange);
}

TEST(Cpu, InvalidOpcodeTrap)
{
    Cpu cpu(smallConfig());
    cpu.mem().write(0, 0xff000000u);
    cpu.run(10);
    EXPECT_EQ(cpu.trap(), TrapKind::InvalidOpcode);
}

TEST(Cpu, MuxModeContextBoundsTrap)
{
    CpuConfig config = smallConfig();
    config.geometry.mode = RelocationMode::Mux;
    Cpu cpu(config);
    cpu.relocation().setContextSize(8);
    cpu.setRrmImmediate(40);
    load(cpu, "addi r1, r9, 0\nhalt\n"); // r9 outside size-8 context
    cpu.run(10);
    EXPECT_EQ(cpu.trap(), TrapKind::ContextBounds);
}

TEST(Cpu, ResumeAfterTrap)
{
    Cpu cpu(smallConfig());
    cpu.mem().write(0, 0xff000000u);
    cpu.run(10);
    EXPECT_EQ(cpu.trap(), TrapKind::InvalidOpcode);
    cpu.resume();
    cpu.setPc(1);
    cpu.mem().write(1, isa::encode(isa::makeI(isa::Opcode::ADDI, 1,
                                              2, 5)));
    EXPECT_TRUE(cpu.step());
    EXPECT_EQ(cpu.trap(), TrapKind::None);
}

TEST(Cpu, CyclesCountInstructions)
{
    Cpu cpu(smallConfig());
    load(cpu, "nop\nnop\nnop\nhalt\n");
    cpu.run(100);
    EXPECT_EQ(cpu.cycles(), 4u);
    EXPECT_EQ(cpu.instructionsRetired(), 4u);
    cpu.stall(10);
    EXPECT_EQ(cpu.cycles(), 14u);
    EXPECT_EQ(cpu.instructionsRetired(), 4u);
}

TEST(Cpu, TraceHookSeesInstructions)
{
    Cpu cpu(smallConfig());
    std::vector<std::string> trace;
    cpu.setTraceHook([&](const TraceEntry &entry) {
        trace.push_back(isa::disassemble(entry.inst));
    });
    load(cpu, "addi r1, r2, 3\nhalt\n");
    cpu.run(10);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0], "addi r1, r2, 3");
    EXPECT_EQ(trace[1], "halt");
}

TEST(Cpu, ContextRegAccessors)
{
    Cpu cpu(smallConfig());
    cpu.setRrmImmediate(64);
    cpu.writeContextReg(3, 77);
    EXPECT_EQ(cpu.regs().read(64 | 3), 77u);
    EXPECT_EQ(cpu.readContextReg(3), 77u);
}

TEST(Cpu, TrapNames)
{
    EXPECT_STREQ(trapName(TrapKind::None), "none");
    EXPECT_STREQ(trapName(TrapKind::InvalidOpcode), "invalid-opcode");
    EXPECT_STREQ(trapName(TrapKind::ContextBounds),
                 "context-bounds-violation");
}

CpuConfig
loadUseOnlyConfig()
{
    CpuConfig config = smallConfig();
    config.timing.loadUsePenalty = 1;
    return config;
}

// Regression for the operand-read recorder: ST and branches read two
// registers and the load-use hazard can sit on the *second* read.
// The recorder used to be sized (and silently guarded) for four
// reads; it now holds exactly the audited maximum of two and must not
// lose either.
TEST(Cpu, LoadUseHazardOnStoreSecondRead)
{
    Cpu cpu(loadUseOnlyConfig());
    load(cpu, "li  r5, 100\n"
              "ld  r2, 0(r5)\n"
              "st  r2, 1(r5)\n" // reads r5 then r2: hazard on r2
              "halt\n");
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.instructionsRetired(), 5u); // li expands to two
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 1u);
    EXPECT_EQ(cpu.cycles(), 6u);
}

TEST(Cpu, LoadUseHazardOnBranchSecondRead)
{
    Cpu cpu(loadUseOnlyConfig());
    load(cpu, "li  r5, 100\n"
              "ld  r2, 0(r5)\n"
              "bne r5, r2, skip\n" // reads r5 then r2
              "skip: halt\n");
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 1u);
    EXPECT_EQ(cpu.cycles(), 6u);
}

// Regression for the hazard tracker's destination capture: the
// physical destination must be recorded when the write happens, under
// the mask that was active then. A load in an LDRRM delay slot writes
// its result into the *old* context; the consumer after the switch
// reads the same architectural name in the *new* context — a
// different physical register, so no stall. Recomputing the
// destination from the architectural name after the switch used to
// charge a spurious stall here.
TEST(Cpu, NoLoadUseStallAcrossContextSwitch)
{
    Cpu cpu(loadUseOnlyConfig());
    load(cpu, "li    r9, 0x20\n"
              "li    r5, 100\n"
              "ldrrm r9\n"
              "ld    r2, 0(r5)\n" // delay slot: old context (mask 0)
              "addi  r3, r2, 1\n" // new context: different physical
              "halt\n");
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.instructionsRetired(), 8u);
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 0u);
    EXPECT_EQ(cpu.cycles(), 8u);
    // The addi read physical 0x22 (untouched, zero), not the loaded
    // value; its result lands in the new window.
    EXPECT_EQ(cpu.regs().read(0x20 | 3), 1u);
}

// Control for the test above: identical shape without the context
// switch does stall — pinning both cycle counts keeps the differential
// honest.
TEST(Cpu, LoadUseStallWithoutContextSwitch)
{
    Cpu cpu(loadUseOnlyConfig());
    load(cpu, "li    r9, 0x20\n"
              "li    r5, 100\n"
              "nop\n"
              "ld    r2, 0(r5)\n"
              "addi  r3, r2, 1\n"
              "halt\n");
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.instructionsRetired(), 8u);
    EXPECT_EQ(cpu.timingStats().loadUseStalls, 1u);
    EXPECT_EQ(cpu.cycles(), 9u);
}

} // namespace
} // namespace rr::machine
