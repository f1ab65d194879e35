/**
 * @file
 * Integration tests that execute the paper's runtime routines as real
 * RRISC code on the cycle-level machine:
 *
 *  - the Figure 3 fast context switch, including measuring its cost
 *    against the paper's "approximately 4 to 6 RISC cycles";
 *  - the Appendix A allocation/deallocation routines, measured
 *    against Figure 4's 25 / 15 / 5 cycle assumptions, and checked
 *    for behavioural equivalence with the C++ ContextAllocator;
 *  - the Section 2.5 multi-entry-point save/restore code (1 cycle
 *    per register).
 */

#include <gtest/gtest.h>

#include <vector>

#include "assembler/assembler.hh"
#include "kernel/memory_system.hh"
#include "machine/cpu.hh"
#include "runtime/asm_routines.hh"
#include "runtime/context_allocator.hh"

namespace rr::runtime {
namespace {

using assembler::Program;
using machine::Cpu;
using machine::CpuConfig;

CpuConfig
machineConfig()
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 6;
    config.ldrrmDelaySlots = 1;
    config.memWords = 1u << 14;
    return config;
}

Program
assembleOrDie(const std::string &source)
{
    Program prog = assembler::assemble(source);
    for (const auto &error : prog.errors)
        ADD_FAILURE() << error.str();
    EXPECT_TRUE(prog.ok());
    return prog;
}

// ---- Figure 3 context switch ---------------------------------------

class Figure3Switch : public ::testing::Test
{
  protected:
    static constexpr uint64_t counterAddr = 0x2000;

    /**
     * Start @p num_threads round-robin demo threads of @p iterations
     * passes each, with @p live on the live-thread counter.
     */
    void
    start(unsigned num_threads, uint32_t iterations, uint32_t live)
    {
        threadBody_ =
            kernel::startRoundRobinDemo(
                memory_, num_threads, counterAddr, live,
                [iterations](unsigned) { return iterations; })
                .addressOf("thread_body");
    }

    /** Run up to @p steps instructions, observing each with @p on_step. */
    template <typename OnStep>
    kernel::KernelRun
    run(uint64_t steps, OnStep on_step)
    {
        kernel::KernelRun result;
        memory_.run(steps, result, [](uint32_t) {}, on_step);
        return result;
    }

    kernel::MemorySystem memory_{{128, 6}, counterAddr, nullptr};
    uint32_t threadBody_ = 0;
};

TEST_F(Figure3Switch, RoundRobinDemoRunsToCompletion)
{
    constexpr unsigned num_threads = 3;
    start(num_threads, 5, num_threads);

    const kernel::KernelRun result =
        run(100000, [](const machine::TraceEntry &) {});
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.stop.trap, machine::TrapKind::None);
    EXPECT_EQ(memory_.cpu().mem().read(counterAddr), 0u);

    // Each thread decremented r4 from 5 to 0, accumulating
    // 4+3+2+1+0 = 10 into r5.
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        EXPECT_EQ(memory_.peek(tid, 4), 0u);
        EXPECT_EQ(memory_.peek(tid, 5), 10u);
    }
}

// The paper: a transfer of control to the next runnable context takes
// approximately 4 to 6 cycles. Our path is jal + ldrrm + mov + mov +
// jmp = 5 cycles of switch machinery per yield.
TEST_F(Figure3Switch, SwitchCostWithinPaperRange)
{
    // Two threads whose r4 wraps to a huge count: each loop pass is
    // sub + add + (jal + yield) + bne — three body instructions plus
    // the full switch path.
    const kernel::SwitchCost cost =
        kernel::figure3SwitchCost(machine::PipelineTimingConfig{}, 4000);
    ASSERT_GE(cost.bodyVisits, 100u);
    // 3 of the cycles per visit are loop body; the rest is the
    // Figure 3 transfer of control. The paper claims 4 to 6 cycles.
    EXPECT_GE(cost.cycles, 4.0);
    EXPECT_LE(cost.cycles, 6.0);
}

TEST_F(Figure3Switch, PswIsSavedAndRestoredAcrossSwitch)
{
    start(2, 3, 2);
    // Give each context a distinctive PSW image in r1.
    memory_.poke(0, 1, 0xaa);
    memory_.poke(1, 1, 0xbb);

    // After the first switch (a -> b), the PSW must hold b's image.
    uint32_t psw_after_first_switch = 0;
    bool seen = false;
    const kernel::KernelRun result =
        run(100000, [&](const machine::TraceEntry &entry) {
            if (!seen && entry.pc == threadBody_ &&
                entry.rrm == memory_.context(1)) {
                psw_after_first_switch = memory_.cpu().psw();
                seen = true;
            }
        });
    ASSERT_TRUE(seen);
    EXPECT_EQ(psw_after_first_switch, 0xbbu);
    ASSERT_TRUE(result.halted);
}

// ---- Appendix A allocator -------------------------------------------

class AppendixAAllocator : public ::testing::Test
{
  protected:
    static constexpr uint64_t allocMapAddr = 0x1000;
    static constexpr uint64_t threadAddr = 0x1010;

    void
    SetUp() override
    {
        cpu_ = std::make_unique<Cpu>(machineConfig());
        const std::string source = "entry16:  jal r15, ctx_alloc16\n"
                                   "          halt\n"
                                   "entry64:  jal r15, ctx_alloc64\n"
                                   "          halt\n"
                                   "entryff1: jal r15, ctx_alloc16_ff1\n"
                                   "          halt\n"
                                   "entrydel: jal r15, ctx_dealloc\n"
                                   "          halt\n" +
                                   appendixAAllocatorSource();
        const Program prog = assembleOrDie(source);
        cpu_->mem().loadImage(prog.base, prog.words);
        prog_ = prog;

        // Calling convention constants (Appendix A registers).
        cpu_->regs().write(6, 0);
        cpu_->regs().write(8, 0x11111111u);
        cpu_->regs().write(9, 0x0000ffffu);
        cpu_->regs().write(13, 0x0000000fu);
        cpu_->regs().write(10, allocMapAddr);
        cpu_->regs().write(11, threadAddr);

        cpu_->mem().write(allocMapAddr, 0xffffffffu); // all free
    }

    /** Run one routine; @return cycles including call and return. */
    uint64_t
    call(const std::string &entry)
    {
        cpu_->resume();
        cpu_->setPc(prog_.addressOf(entry));
        const uint64_t before = cpu_->cycles();
        cpu_->run(1000);
        EXPECT_TRUE(cpu_->halted());
        EXPECT_EQ(cpu_->trap(), machine::TrapKind::None);
        // Exclude the final halt instruction.
        return cpu_->cycles() - before - 1;
    }

    uint32_t result() const { return cpu_->regs().read(12); }
    uint32_t allocMap() const { return cpu_->mem().read(allocMapAddr); }
    uint32_t threadRrm() const { return cpu_->mem().read(threadAddr); }
    uint32_t threadMask() const
    {
        return cpu_->mem().read(threadAddr + 1);
    }

    std::unique_ptr<Cpu> cpu_;
    Program prog_;
};

TEST_F(AppendixAAllocator, Alloc16SucceedsOnEmptyMap)
{
    const uint64_t cycles = call("entry16");
    EXPECT_EQ(result(), 1u);
    EXPECT_EQ(threadRrm(), 0u);
    EXPECT_EQ(threadMask(), 0x0000000fu);
    EXPECT_EQ(allocMap(), 0xfffffff0u);
    // Figure 4: successful allocation ~ 25 cycles.
    EXPECT_GE(cycles, 18u);
    EXPECT_LE(cycles, 30u);
}

TEST_F(AppendixAAllocator, Alloc16BinarySearchFindsHighBlock)
{
    // Only chunks 28..31 free: a size-16 context at registers
    // 112..127 (rrm = 112).
    cpu_->mem().write(allocMapAddr, 0xf0000000u);
    const uint64_t cycles = call("entry16");
    EXPECT_EQ(result(), 1u);
    EXPECT_EQ(threadRrm(), 112u);
    EXPECT_EQ(threadMask(), 0xf0000000u);
    EXPECT_EQ(allocMap(), 0u);
    EXPECT_LE(cycles, 30u);
}

TEST_F(AppendixAAllocator, Alloc16FailsWhenFragmented)
{
    // Every other chunk free: no aligned run of 4 chunks anywhere.
    cpu_->mem().write(allocMapAddr, 0x55555555u);
    const uint64_t cycles = call("entry16");
    EXPECT_EQ(result(), 0u);
    EXPECT_EQ(allocMap(), 0x55555555u); // untouched
    // Figure 4: failed allocation ~ 15 cycles (ours is leaner).
    EXPECT_GE(cycles, 5u);
    EXPECT_LE(cycles, 16u);
}

TEST_F(AppendixAAllocator, Alloc64LowHalf)
{
    const uint64_t cycles = call("entry64");
    EXPECT_EQ(result(), 1u);
    EXPECT_EQ(threadRrm(), 0u);
    EXPECT_EQ(threadMask(), 0x0000ffffu);
    EXPECT_EQ(allocMap(), 0xffff0000u);
    EXPECT_LE(cycles, 16u);
}

TEST_F(AppendixAAllocator, Alloc64HighHalf)
{
    cpu_->mem().write(allocMapAddr, 0xffff0000u);
    const uint64_t cycles = call("entry64");
    EXPECT_EQ(result(), 1u);
    EXPECT_EQ(threadRrm(), 64u); // 16 chunks << 2
    EXPECT_EQ(threadMask(), 0xffff0000u);
    EXPECT_EQ(allocMap(), 0u);
    EXPECT_LE(cycles, 20u);
}

TEST_F(AppendixAAllocator, Alloc64Fails)
{
    cpu_->mem().write(allocMapAddr, 0x0000fff0u);
    const uint64_t cycles = call("entry64");
    EXPECT_EQ(result(), 0u);
    EXPECT_LE(cycles, 16u);
}

TEST_F(AppendixAAllocator, Ff1VariantFasterThanBinarySearch)
{
    const uint64_t ff1_cycles = call("entryff1");
    EXPECT_EQ(result(), 1u);
    EXPECT_EQ(threadRrm(), 0u);
    cpu_->mem().write(allocMapAddr, 0xffffffffu);
    const uint64_t bin_cycles = call("entry16");
    EXPECT_EQ(result(), 1u);
    // Footnote 2: FF1 cuts allocation to ~15 cycles.
    EXPECT_LT(ff1_cycles, bin_cycles);
    EXPECT_GE(ff1_cycles, 12u);
    EXPECT_LE(ff1_cycles, 20u);
}

TEST_F(AppendixAAllocator, DeallocCostMatchesPaper)
{
    call("entry16");
    ASSERT_EQ(result(), 1u);
    const uint32_t map_after_alloc = allocMap();
    ASSERT_EQ(map_after_alloc, 0xfffffff0u);
    const uint64_t cycles = call("entrydel");
    EXPECT_EQ(allocMap(), 0xffffffffu);
    // Figure 4 / Appendix A: deallocation ~ 5 cycles.
    EXPECT_GE(cycles, 4u);
    EXPECT_LE(cycles, 7u);
}

// Behavioural equivalence: the assembly allocator and the C++
// ContextAllocator choose identical blocks for identical histories.
TEST_F(AppendixAAllocator, MatchesCxxAllocatorSequence)
{
    ContextAllocator cxx(128, 6, 16);
    std::vector<Context> cxx_contexts;
    for (int i = 0; i < 8; ++i) {
        const uint64_t cycles = call("entry16");
        const auto context = cxx.allocate(16);
        ASSERT_TRUE(context.has_value());
        ASSERT_EQ(result(), 1u) << "allocation " << i;
        EXPECT_EQ(threadRrm(), context->rrm) << "allocation " << i;
        cxx_contexts.push_back(*context);
        (void)cycles;
    }
    // Both views agree the file is now full for size-16 contexts.
    EXPECT_EQ(allocMap(), 0u);
    EXPECT_FALSE(cxx.allocate(16).has_value());
    const uint64_t cycles = call("entry16");
    EXPECT_EQ(result(), 0u);
    (void)cycles;
}

// ---- Section 2.5 save/restore ---------------------------------------

TEST(SaveRestore, UnloadStoresExactlyCRegisters)
{
    Cpu cpu(machineConfig());
    const std::string source = "ret: halt\n" + saveRestoreSource(30);
    const Program prog = assembleOrDie(source);
    cpu.mem().loadImage(prog.base, prog.words);

    constexpr uint64_t save_area = 0x3000;
    for (unsigned r = 0; r < 12; ++r)
        cpu.regs().write(r, 1000 + r);
    cpu.regs().write(30, save_area);
    cpu.regs().write(31, prog.addressOf("ret"));

    cpu.setPc(prog.addressOf("unload_8"));
    const uint64_t before = cpu.cycles();
    cpu.run(100);
    ASSERT_TRUE(cpu.halted());
    // Registers r7..r0 stored; r8.. untouched in memory.
    for (unsigned r = 0; r < 8; ++r)
        EXPECT_EQ(cpu.mem().read(save_area + r), 1000 + r);
    EXPECT_EQ(cpu.mem().read(save_area + 8), 0u);
    // Cost: C stores + return jmp + halt = C + 2 (paper: 1 cycle per
    // register).
    EXPECT_EQ(cpu.cycles() - before, 8u + 2u);
}

TEST(SaveRestore, LoadRestoresExactlyCRegisters)
{
    Cpu cpu(machineConfig());
    const std::string source = "ret: halt\n" + saveRestoreSource(30);
    const Program prog = assembleOrDie(source);
    cpu.mem().loadImage(prog.base, prog.words);

    constexpr uint64_t save_area = 0x3000;
    for (unsigned r = 0; r < 10; ++r)
        cpu.mem().write(save_area + r, 2000 + r);
    cpu.regs().write(30, save_area);
    cpu.regs().write(31, prog.addressOf("ret"));

    cpu.setPc(prog.addressOf("load_10"));
    cpu.run(100);
    ASSERT_TRUE(cpu.halted());
    for (unsigned r = 0; r < 10; ++r)
        EXPECT_EQ(cpu.regs().read(r), 2000 + r);
    EXPECT_EQ(cpu.regs().read(10), 0u);
}

TEST(SaveRestore, EveryEntryPointAssembles)
{
    const Program prog =
        assembleOrDie("ret: halt\n" + saveRestoreSource(30));
    for (unsigned k = 1; k <= 30; ++k) {
        EXPECT_NO_FATAL_FAILURE(
            prog.addressOf("unload_" + std::to_string(k)));
        EXPECT_NO_FATAL_FAILURE(
            prog.addressOf("load_" + std::to_string(k)));
    }
}


// The embedded runtime sources must assemble cleanly across their
// whole parameter spaces.
TEST(AsmSources, AllGeneratedSourcesAssemble)
{
    for (const unsigned units : {1u, 50u, 2047u}) {
        EXPECT_TRUE(assembler::assemble(
                        rotationSchedulerSource(units))
                        .ok())
            << "rotation units=" << units;
        for (const unsigned budget : {1u, 3u, 2047u}) {
            EXPECT_TRUE(assembler::assemble(twoPhaseSchedulerSource(
                                                units, budget))
                            .ok())
                << "two-phase units=" << units
                << " budget=" << budget;
        }
    }
    for (const unsigned regs : {1u, 15u, 30u}) {
        EXPECT_TRUE(assembler::assemble("ret: halt\n" +
                                        saveRestoreSource(regs))
                        .ok())
            << "save/restore regs=" << regs;
    }
    EXPECT_TRUE(
        assembler::assemble(roundRobinDemoSource()).ok());
    EXPECT_TRUE(assembler::assemble("yield_host: nop\n" +
                                    figure3YieldSource())
                    .ok());
}

TEST(AsmSourcesDeath, OutOfRangeParametersPanic)
{
    EXPECT_DEATH(rotationSchedulerSource(0), "work units");
    EXPECT_DEATH(rotationSchedulerSource(5000), "work units");
    EXPECT_DEATH(twoPhaseSchedulerSource(50, 0), "poll budget");
    EXPECT_DEATH(saveRestoreSource(31), "1..30");
}

} // namespace
} // namespace rr::runtime
