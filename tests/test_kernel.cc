/**
 * @file
 * Tests for the machine-level multithreading kernel — the paper's
 * system executing as real RRISC code — including cross-validation
 * of the event-driven simulator and the analytical model against
 * actual machine execution.
 */

#include <functional>

#include <gtest/gtest.h>

#include "analysis/efficiency_model.hh"
#include "kernel/machine_mt_kernel.hh"
#include "kernel/memory_system.hh"
#include "kernel/rotation_kernel.hh"
#include "kernel/sync_workload.hh"
#include "kernel/twophase_kernel.hh"
#include "multithread/workload.hh"

namespace rr::kernel {
namespace {

KernelConfig
baseConfig(unsigned threads, uint64_t units, uint64_t latency)
{
    KernelConfig config;
    config.numThreads = threads;
    config.segmentUnits = makeConstant(units);
    config.latency = makeConstant(latency);
    config.segmentsPerThread = 24;
    return config;
}

TEST(MachineKernel, RunsToCompletion)
{
    const KernelResult result =
        runMachineKernel(baseConfig(4, 40, 300));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.residentContexts, 4u);
    // 4 threads x 24 segments x 40 units.
    EXPECT_EQ(result.workUnits, 4u * 24u * 40u);
    EXPECT_EQ(result.faults, 4u * 24u);
    EXPECT_GT(result.efficiencyTotal, 0.0);
    EXPECT_LE(result.efficiencyTotal, 1.0);
}

TEST(MachineKernel, SingleThreadMatchesHandCount)
{
    // One thread, one segment of U units, zero effective concurrency.
    KernelConfig config = baseConfig(1, 50, 200);
    config.segmentsPerThread = 4;
    const KernelResult result = runMachineKernel(config);
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.workUnits, 4u * 50u);
    // With latency 200 and nothing else to run, the thread spins
    // through yield-polls for each fault; total cycles must exceed
    // 4 * (2*50 + 200).
    EXPECT_GT(result.totalCycles, 4u * (100u + 200u));
    EXPECT_GT(result.failedPolls, 0u);
}

TEST(MachineKernel, StochasticWorkloadCompletes)
{
    KernelConfig config = baseConfig(6, 0, 0);
    config.segmentUnits = makeGeometric(32.0);
    config.latency = makeExponential(250.0);
    config.segmentsPerThread = 16;
    const KernelResult result = runMachineKernel(config);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.faults, 6u * 16u);
    EXPECT_GT(result.efficiencyCentral, 0.0);
}

TEST(MachineKernel, DeterministicGivenSeed)
{
    KernelConfig a = baseConfig(4, 0, 0);
    a.segmentUnits = makeGeometric(24.0);
    a.latency = makeExponential(300.0);
    a.seed = 9;
    KernelConfig b = a;
    const KernelResult ra = runMachineKernel(a);
    const KernelResult rb = runMachineKernel(b);
    EXPECT_EQ(ra.totalCycles, rb.totalCycles);
    EXPECT_EQ(ra.workUnits, rb.workUnits);
    EXPECT_EQ(ra.failedPolls, rb.failedPolls);
}

// More resident contexts hide more latency — on the machine, with
// real context switches, exactly as in the simulator.
TEST(MachineKernel, MoreContextsRaiseEfficiency)
{
    KernelConfig two = baseConfig(2, 40, 600);
    KernelConfig six = baseConfig(6, 40, 600);
    const KernelResult r2 = runMachineKernel(two);
    const KernelResult r6 = runMachineKernel(six);
    EXPECT_GT(r6.efficiencyCentral, 1.5 * r2.efficiencyCentral);
}

// The residency argument with real code: on a 64-register file,
// 32-register "hardware-style" contexts admit 2 threads while
// relocated 16-register contexts admit 4 — and that doubles
// efficiency in the linear regime.
TEST(MachineKernel, FlexiblePackingBeatsFixedPacking)
{
    KernelConfig fixed = baseConfig(2, 40, 800);
    fixed.geometry.numRegs = 64;
    fixed.forcedContextSize = 32;

    KernelConfig flexible = baseConfig(4, 40, 800);
    flexible.geometry.numRegs = 64;
    flexible.regsUsed = 12; // 16-register contexts

    const KernelResult rfixed = runMachineKernel(fixed);
    const KernelResult rflex = runMachineKernel(flexible);
    ASSERT_TRUE(rfixed.halted);
    ASSERT_TRUE(rflex.halted);
    EXPECT_EQ(rfixed.residentContexts, 2u);
    EXPECT_EQ(rflex.residentContexts, 4u);
    EXPECT_GT(rflex.efficiencyCentral,
              1.7 * rfixed.efficiencyCentral);
}

// Cross-validation: machine execution vs the closed-form model. The
// per-segment overhead on the machine is the fault + jal + yield
// path (6 cycles) plus the resume poll and segment reload (5), so
// S_eff ~ 11 against a run length of 2 * units.
TEST(MachineKernel, MatchesAnalyticalModelInLinearRegime)
{
    const uint64_t units = 50;
    const uint64_t latency = 2000;
    for (const unsigned n : {1u, 2u, 3u}) {
        KernelConfig config = baseConfig(n, units, latency);
        const KernelResult result = runMachineKernel(config);
        const analysis::EfficiencyModel model(2.0 * units, latency,
                                              11.0);
        EXPECT_NEAR(result.efficiencyCentral, model.linear(n),
                    model.linear(n) * 0.10 + 0.01)
            << "n=" << n;
    }
}

TEST(MachineKernel, MatchesAnalyticalModelAtSaturation)
{
    // R = 100, L = 300: N* ~ 3.7; six contexts saturate.
    KernelConfig config = baseConfig(6, 50, 300);
    const KernelResult result = runMachineKernel(config);
    const analysis::EfficiencyModel model(100.0, 300.0, 11.0);
    EXPECT_NEAR(result.efficiencyCentral, model.saturated(), 0.05);
}

// Cross-validation: machine execution vs the event-driven simulator
// on matched parameters (the simulator charges S = 11, load/alloc
// costs zeroed since the kernel never unloads and allocates only at
// startup).
TEST(MachineKernel, MatchesEventSimulator)
{
    const uint64_t units = 40;
    for (const uint64_t latency : {300ull, 900ull}) {
        for (const unsigned n : {2u, 4u}) {
            KernelConfig kconfig = baseConfig(n, units, latency);
            kconfig.segmentsPerThread = 32;
            const KernelResult machine = runMachineKernel(kconfig);

            mt::MtConfig sim;
            sim.workload = mt::homogeneousWorkload(
                n, 2 * units * 32, 12);
            sim.faultModel =
                std::make_shared<mt::DeterministicFaultModel>(
                    2 * units, latency);
            sim.costs = runtime::CostModel::paperFixed(11);
            sim.costs.queueOp = 0;
            sim.costs.blockOverhead = 0;
            sim.numRegs = 128;
            sim.unloadPolicy = mt::UnloadPolicyKind::Never;
            const mt::MtStats stats = mt::simulate(std::move(sim));

            EXPECT_NEAR(machine.efficiencyCentral,
                        stats.efficiencyCentral,
                        stats.efficiencyCentral * 0.10 + 0.01)
                << "n=" << n << " L=" << latency;
        }
    }
}

TEST(MachineKernelDeath, OverfullFileRejected)
{
    KernelConfig config = baseConfig(5, 40, 300);
    config.geometry.numRegs = 64;
    config.forcedContextSize = 32; // only 2 fit
    EXPECT_DEATH(runMachineKernel(config), "does not fit");
}

// The Figure 3 ring: first-fit contexts in creation order, each
// context's NextRRM (r2) naming the next one and the last wrapping to
// the first, and the machine started in thread 0's context at its
// entry.
TEST(MemorySystem, CreateRingWiresNextRrm)
{
    MemorySystem memory({128, 5}, 0x1000, nullptr);
    memory.createRing(3, 8, 0x1000,
                      [](unsigned tid) { return 100 + tid; });
    for (unsigned tid = 0; tid < 3; ++tid) {
        EXPECT_EQ(memory.context(tid), 8 * tid);
        EXPECT_EQ(memory.peek(tid, 0), 100 + tid);
        EXPECT_EQ(memory.peek(tid, 1), 0u);
        EXPECT_EQ(memory.peek(tid, 2), memory.context((tid + 1) % 3));
        EXPECT_EQ(memory.peek(tid, 6), 1u);
        EXPECT_EQ(memory.peek(tid, 7), 0u);
    }
    EXPECT_EQ(memory.cpu().rrm(), memory.context(0));
    EXPECT_EQ(memory.cpu().pc(), 100u);
    EXPECT_EQ(memory.currentThread(), 0u);
}

TEST(MemorySystem, PeekPokeAddressTheThreadsContext)
{
    MemorySystem memory({128, 5}, 0x1000, nullptr);
    memory.createRing(3, 8, 0x1000, [](unsigned) { return 0u; });
    // Not the active context: thread 2's is installed.
    memory.cpu().setRrmImmediate(memory.context(2));
    memory.poke(1, 3, 0xabc);
    EXPECT_EQ(memory.cpu().regs().read(memory.context(1) | 3), 0xabcu);
    EXPECT_EQ(memory.peek(1, 3), 0xabcu);
    EXPECT_EQ(memory.cpu().readContextReg(3), 0u);
}

TEST(MemorySystemDeath, CreateRingWithoutThreadsPanics)
{
    MemorySystem memory({128, 5}, 0x1000, nullptr);
    EXPECT_DEATH(
        memory.createRing(0, 8, 0x1000, [](unsigned) { return 0u; }),
        "no threads");
}

TEST(MemorySystemDeath, CreateRingOverfullFilePanics)
{
    // 128 / 32 = 4 contexts fit; the fifth thread does not.
    MemorySystem memory({128, 5}, 0x1000, nullptr);
    EXPECT_DEATH(
        memory.createRing(5, 32, 0x1000, [](unsigned) { return 0u; }),
        "thread 4 does not fit");
}

TEST(KernelStop, StepCapIsReported)
{
    // Each kernel, run with @p max_steps (0 = its default cap).
    const std::function<KernelRun(uint64_t)> kernels[] = {
        [](uint64_t max_steps) {
            KernelConfig config = baseConfig(4, 40, 300);
            config.maxSteps = max_steps != 0 ? max_steps : config.maxSteps;
            return KernelRun(runMachineKernel(config));
        },
        [](uint64_t max_steps) {
            SyncWorkloadConfig config;
            config.maxSteps = max_steps != 0 ? max_steps : config.maxSteps;
            return KernelRun(runSyncWorkload(config));
        },
        [](uint64_t max_steps) {
            TwoPhaseConfig config;
            config.latency = makeConstant(300);
            config.maxSteps = max_steps != 0 ? max_steps : config.maxSteps;
            return KernelRun(runTwoPhaseKernel(config));
        },
        [](uint64_t max_steps) {
            RotationConfig config;
            config.maxSteps = max_steps != 0 ? max_steps : config.maxSteps;
            return KernelRun(runRotationKernel(config));
        },
    };
    for (const auto &run : kernels) {
        const KernelRun capped = run(25);
        EXPECT_FALSE(capped.halted);
        EXPECT_EQ(capped.stop.reason, StopReason::StepCap);
        EXPECT_EQ(capped.stop.steps, 25u);
        EXPECT_EQ(capped.stop.str(), "hit the step cap after 25 steps");

        const KernelRun full = run(0);
        EXPECT_TRUE(full.halted);
        EXPECT_EQ(full.stop.reason, StopReason::Halted);
        EXPECT_GT(full.stop.steps, 25u);
        EXPECT_EQ(full.usefulCycles, 2 * full.workUnits);
    }
}

} // namespace
} // namespace rr::kernel
