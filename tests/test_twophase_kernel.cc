/**
 * @file
 * Tests for the all-assembly two-phase slot scheduler: spin-phase
 * behaviour for short faults, swap-outs under long faults, the value
 * of oversubscription, race-free wakeup, and the 8-register
 * boundary-check proof of the whole runtime.
 */

#include <gtest/gtest.h>

#include "analysis/static/lint.hh"
#include "assembler/assembler.hh"
#include "kernel/twophase_kernel.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {
namespace {

TwoPhaseConfig
baseConfig(unsigned threads, unsigned slots, uint64_t latency)
{
    TwoPhaseConfig config;
    config.numThreads = threads;
    config.numSlots = slots;
    config.segmentsPerThread = 8;
    config.workUnits = 50;
    config.latency = makeConstant(latency);
    return config;
}

TEST(TwoPhaseKernel, CompletesAllWorkExactly)
{
    const TwoPhaseResult result =
        runTwoPhaseKernel(baseConfig(12, 4, 400));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.workUnits, 12u * 8u * 50u);
    EXPECT_EQ(result.faults, 12u * 7u); // last segment retires
}

TEST(TwoPhaseKernel, ShortFaultsStayResident)
{
    // Latency shorter than a ring round trip: the first phase (spin)
    // always wins and no thread ever surrenders its slot.
    const TwoPhaseResult result =
        runTwoPhaseKernel(baseConfig(12, 4, 40));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.swapOuts, 0u);
    // Only the initial loads of the queued threads.
    EXPECT_EQ(result.dequeues, 12u - 4u);
    EXPECT_GT(result.efficiency(), 0.8);
}

TEST(TwoPhaseKernel, LongFaultsRotateThroughSlots)
{
    const TwoPhaseResult result =
        runTwoPhaseKernel(baseConfig(12, 4, 4000));
    EXPECT_TRUE(result.halted);
    // Every fault exhausts its poll budget and gives up the slot.
    EXPECT_EQ(result.swapOuts, result.faults);
    // Every swap-out is balanced by a reload, plus the initial loads.
    EXPECT_EQ(result.dequeues, result.swapOuts + (12u - 4u));
}

TEST(TwoPhaseKernel, OversubscriptionHidesLongLatency)
{
    // Same 4 slots; 12 threads vs 4. With only 4 threads the slots
    // can merely spin through the latency; with 12 the scheduler
    // swaps ready threads in — the whole point of the software
    // runtime.
    const TwoPhaseResult four =
        runTwoPhaseKernel(baseConfig(4, 4, 4000));
    const TwoPhaseResult twelve =
        runTwoPhaseKernel(baseConfig(12, 4, 4000));
    ASSERT_TRUE(four.halted);
    ASSERT_TRUE(twelve.halted);
    EXPECT_GT(twelve.efficiency(), 2.0 * four.efficiency());
}

TEST(TwoPhaseKernel, LargerBudgetSpinsLonger)
{
    // With exponential latencies around the swap cost, a larger poll
    // budget means more faults complete in the first phase.
    TwoPhaseConfig eager = baseConfig(12, 4, 0);
    eager.latency = makeExponential(600.0);
    eager.pollBudget = 1;
    TwoPhaseConfig patient = baseConfig(12, 4, 0);
    patient.latency = makeExponential(600.0);
    patient.pollBudget = 8;
    const TwoPhaseResult re = runTwoPhaseKernel(eager);
    const TwoPhaseResult rp = runTwoPhaseKernel(patient);
    ASSERT_TRUE(re.halted);
    ASSERT_TRUE(rp.halted);
    EXPECT_LT(rp.swapOuts, re.swapOuts);
}

TEST(TwoPhaseKernel, StochasticLatencyCompletesAndIsDeterministic)
{
    TwoPhaseConfig a = baseConfig(16, 4, 0);
    a.latency = makeExponential(800.0);
    a.seed = 42;
    TwoPhaseConfig b = a;
    const TwoPhaseResult ra = runTwoPhaseKernel(a);
    const TwoPhaseResult rb = runTwoPhaseKernel(b);
    EXPECT_TRUE(ra.halted);
    EXPECT_EQ(ra.workUnits, 16u * 8u * 50u);
    EXPECT_EQ(ra.totalCycles, rb.totalCycles);
    EXPECT_EQ(ra.swapOuts, rb.swapOuts);
}

TEST(TwoPhaseKernel, SingleSlotSingleThread)
{
    const TwoPhaseResult result =
        runTwoPhaseKernel(baseConfig(1, 1, 300));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.workUnits, 8u * 50u);
    EXPECT_EQ(result.swapOuts, 0u); // queue always empty
}

// The entire runtime — scheduler included — addresses only r0..r7:
// it runs wholly inside 8-register relocated contexts, the paper's
// minimal practical context size rounded to the next power of two.
TEST(TwoPhaseKernel, WholeRuntimeFitsEightRegisterContexts)
{
    const auto prog = assembler::assemble(
        runtime::twoPhaseSchedulerSource(50, 3));
    ASSERT_TRUE(prog.ok());
    // The flat Section 2.4 check: every operand below the size.
    auto flat_check = [&](unsigned context) {
        lint::LintOptions options;
        options.declaredContext = context;
        options.flowSensitive = false;
        return lint::lintProgram(prog, options);
    };
    const lint::LintResult fits = flat_check(8);
    for (const lint::Finding &finding : fits.findings)
        ADD_FAILURE() << finding.str();
    EXPECT_TRUE(fits.findings.empty());
    // And not a 4-register context (r4..r7 are in use).
    EXPECT_FALSE(flat_check(4).clean());
}

} // namespace
} // namespace rr::kernel
