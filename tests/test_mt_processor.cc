/**
 * @file
 * Tests for the multithreaded-node simulator: cycle accounting
 * invariants, saturation/linear-regime behaviour, the two-phase
 * unloading policy, and flexible-vs-fixed comparisons on the paper's
 * workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "multithread/context_policy.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "trace/sink.hh"

namespace rr::mt {
namespace {

/** Figure 5 settings: cache faults, constant latency. */
MtConfig
cacheConfig(ArchKind arch, unsigned num_regs, double mean_run,
            uint64_t latency, uint64_t seed = 1)
{
    return SimulationSpec()
        .cacheFaults(mean_run, latency)
        .arch(arch)
        .numRegs(num_regs)
        .seed(seed)
        .build();
}

/** Figure 6 settings: sync faults, exponential latency. */
MtConfig
syncConfig(ArchKind arch, unsigned num_regs, double mean_run,
           double mean_latency, uint64_t seed = 1)
{
    return SimulationSpec()
        .syncFaults(mean_run, mean_latency)
        .arch(arch)
        .numRegs(num_regs)
        .seed(seed)
        .build();
}

/** Section 3.4 settings: deterministic runs, identical threads. */
MtConfig
detConfig(ArchKind arch, unsigned num_regs, uint64_t run,
          uint64_t latency, unsigned num_threads, unsigned regs_used)
{
    return SimulationSpec()
        .deterministicFaults(run, latency)
        .threads(num_threads)
        .registerDemand(regs_used)
        .arch(arch)
        .numRegs(num_regs)
        .build();
}

TEST(MtProcessor, CompletesAllThreads)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 16;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.threadsFinished, 16u);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GT(stats.usefulCycles, 0u);
}

// A thread that needs more registers than any fixed context holds can
// never be loaded. The run must end in a typed error that a caller can
// catch (rrserve answers 500 and keeps serving), not exit the process.
TEST(MtProcessor, DeadlockThrowsSimulationError)
{
    MtConfig config;
    config.workload.numThreads = 2;
    config.workload.workDist = makeConstant(100);
    config.workload.regsDist = makeConstant(40);
    config.faultModel =
        std::make_shared<DeterministicFaultModel>(10, 50);
    config.arch = ArchKind::FixedHw;
    config.numRegs = 128;
    config.fixedContextRegs = 32;
    MtProcessor processor(config);
    try {
        processor.run();
        FAIL() << "a run that can never load a thread finished";
    } catch (const SimulationError &error) {
        EXPECT_NE(std::string(error.what()).find("deadlock"),
                  std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what()).find("2 unfinished"),
                  std::string::npos)
            << error.what();
    }
}

TEST(MtProcessor, CycleAccountingPartitionsTotal)
{
    for (const ArchKind arch :
         {ArchKind::Flexible, ArchKind::FixedHw, ArchKind::AddReloc}) {
        MtConfig config = cacheConfig(arch, 128, 16.0, 200);
        config.workload.numThreads = 24;
        const MtStats stats = simulate(std::move(config));
        EXPECT_EQ(stats.accountedCycles(), stats.totalCycles)
            << "arch = " << archName(arch);
    }
}

TEST(MtProcessor, UsefulCyclesEqualTotalWork)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 8;
    config.workload.workDist = makeConstant(5000);
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.usefulCycles, 8u * 5000u);
}

TEST(MtProcessor, EfficiencyWithinUnitInterval)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 128, 32.0, 500.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_GT(stats.efficiencyCentral, 0.0);
    EXPECT_LE(stats.efficiencyCentral, 1.0);
    EXPECT_GT(stats.efficiencyTotal, 0.0);
    EXPECT_LE(stats.efficiencyTotal, 1.0);
}

// With deterministic R and L and a saturating number of contexts,
// efficiency approaches R / (R + S) (Section 3.4).
TEST(MtProcessor, SaturatedEfficiencyMatchesClosedForm)
{
    // R = 100, S = 6, L = 50: a single extra context suffices;
    // 8 contexts of 8 registers fit easily in 128 registers.
    MtConfig config = detConfig(ArchKind::Flexible, 128,
                                          100, 50, 8, 8);
    const MtStats stats = simulate(std::move(config));
    const double expected = 100.0 / (100.0 + 6.0);
    EXPECT_NEAR(stats.efficiencyCentral, expected, 0.02);
}

// One thread alone: efficiency ~ R / (R + S + L) in the linear
// regime with N = 1.
TEST(MtProcessor, SingleThreadLinearRegime)
{
    MtConfig config = detConfig(ArchKind::Flexible, 128,
                                          100, 400, 1, 8);
    const MtStats stats = simulate(std::move(config));
    const double expected = 100.0 / (100.0 + 6.0 + 400.0);
    EXPECT_NEAR(stats.efficiencyCentral, expected, 0.02);
}

TEST(MtProcessor, FlexibleBeatsFixedOnSmallContexts)
{
    // Homogeneous C = 8 on F = 64: flexible fits 8 contexts, fixed
    // only 2. Short run lengths + long latency => linear regime,
    // where residency wins (Section 3.4 discussion).
    MtConfig flexible = cacheConfig(ArchKind::Flexible, 64, 16.0, 400);
    flexible.workload = homogeneousWorkload(48, 20000, 8);
    MtConfig fixed = cacheConfig(ArchKind::FixedHw, 64, 16.0, 400);
    fixed.workload = homogeneousWorkload(48, 20000, 8);

    const MtStats fs = simulate(std::move(flexible));
    const MtStats xs = simulate(std::move(fixed));
    EXPECT_GT(fs.efficiencyCentral, 1.5 * xs.efficiencyCentral);
}

TEST(MtProcessor, ResidencyTracksRegisterFileCapacity)
{
    MtConfig config = cacheConfig(ArchKind::FixedHw, 128, 32.0, 400);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    // F = 128 / 32 regs per fixed context -> at most 4 resident.
    EXPECT_LE(stats.maxResidentContexts, 4u);
    EXPECT_GT(stats.avgResidentContexts, 0.0);
    EXPECT_LE(stats.avgResidentContexts, 4.0);
}

TEST(MtProcessor, TwoPhaseUnloadsUnderLongLatency)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 64, 32.0, 2000.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_GT(stats.unloads, 0u);
    // Every unloaded thread must be reloaded before finishing.
    EXPECT_GE(stats.loads, stats.unloads);
}

TEST(MtProcessor, NeverPolicyNeverUnloads)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 64, 8.0, 2000);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.unloads, 0u);
}

TEST(MtProcessor, DeterministicGivenSeed)
{
    MtConfig a = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    MtConfig b = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_EQ(sa.totalCycles, sb.totalCycles);
    EXPECT_EQ(sa.faults, sb.faults);
    EXPECT_DOUBLE_EQ(sa.efficiencyCentral, sb.efficiencyCentral);
}

TEST(MtProcessor, SeedChangesStochasticOutcome)
{
    MtConfig a = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 7);
    MtConfig b = syncConfig(ArchKind::Flexible, 128, 32.0, 300.0, 8);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_NE(sa.totalCycles, sb.totalCycles);
}

TEST(MtProcessor, FixedArchHasZeroAllocCycles)
{
    MtConfig config = syncConfig(ArchKind::FixedHw, 128, 32.0, 500.0);
    config.workload.numThreads = 32;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.allocCycles, 0u);
    EXPECT_GT(stats.loads, 0u);
}

TEST(MtProcessor, LongerLatencyLowersEfficiency)
{
    MtConfig lo = cacheConfig(ArchKind::Flexible, 128, 32.0, 50);
    MtConfig hi = cacheConfig(ArchKind::Flexible, 128, 32.0, 1600);
    const MtStats slo = simulate(std::move(lo));
    const MtStats shi = simulate(std::move(hi));
    EXPECT_GT(slo.efficiencyCentral, shi.efficiencyCentral);
}

TEST(MtProcessor, LongerRunLengthRaisesEfficiency)
{
    MtConfig lo = cacheConfig(ArchKind::Flexible, 128, 8.0, 400);
    MtConfig hi = cacheConfig(ArchKind::Flexible, 128, 128.0, 400);
    const MtStats slo = simulate(std::move(lo));
    const MtStats shi = simulate(std::move(hi));
    EXPECT_GT(shi.efficiencyCentral, slo.efficiencyCentral);
}


// Section 2.2: "separate linked lists of register relocation masks
// could be maintained to implement different thread classes or
// priorities." High-priority threads monopolize the processor
// whenever they are runnable, so they finish far earlier.
TEST(MtProcessor, PriorityClassesFinishInOrder)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 200);
    config.priorityLevels = 2;
    // 16 threads of 8 registers fill the 128-register file exactly:
    // everyone is resident, so dispatch order is purely the priority
    // rings (queue refill order plays no role).
    config.workload = homogeneousWorkload(16, 8000, 8);
    config.workload.priorityDist = makeUniformInt(0, 1);
    MtProcessor processor(std::move(config));
    processor.run();

    RunningStats high, low;
    for (const Thread &t : processor.threads()) {
        (t.priority == 0 ? high : low)
            .add(static_cast<double>(t.finishTime));
    }
    ASSERT_GT(high.count(), 0u);
    ASSERT_GT(low.count(), 0u);
    EXPECT_LT(high.max(), low.mean());
}

TEST(MtProcessor, SinglePriorityLevelUnchangedByDistribution)
{
    // With one level, priorities clamp to 0 and results match the
    // default configuration exactly.
    MtConfig a = cacheConfig(ArchKind::Flexible, 128, 32.0, 200, 3);
    a.workload.numThreads = 12;
    MtConfig b = cacheConfig(ArchKind::Flexible, 128, 32.0, 200, 3);
    b.workload.numThreads = 12;
    b.workload.priorityDist = makeUniformInt(0, 5);
    const MtStats sa = simulate(std::move(a));
    const MtStats sb = simulate(std::move(b));
    EXPECT_EQ(sa.totalCycles, sb.totalCycles);
}

TEST(MtProcessor, FinishTimesRecorded)
{
    MtConfig config = cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
    config.workload.numThreads = 6;
    MtProcessor processor(std::move(config));
    const MtStats stats = processor.run();
    for (const Thread &t : processor.threads()) {
        EXPECT_GT(t.finishTime, 0u);
        EXPECT_LE(t.finishTime, stats.totalCycles);
    }
}

// The completion heap must stay bounded by the thread count: at most
// one live event per thread, and every superseded event is either
// pruned at the top or compacted away. On the paper's workloads no
// event is ever stranded (pushes and pops pair exactly), so the heap
// never needs a compaction pass at all — which is itself worth
// pinning, because a compaction on these workloads would mean the
// epoch bookkeeping disagrees with the scheduler.
TEST(MtProcessor, CompletionHeapBoundedByThreadCount)
{
    for (const unsigned threads : {8u, 64u}) {
        MtConfig config =
            cacheConfig(ArchKind::Flexible, 128, 32.0, 100);
        config.workload.numThreads = threads;
        MtProcessor processor(std::move(config));
        processor.run();
        EXPECT_LE(processor.completionCore().maxSize(), threads);
        EXPECT_EQ(processor.completionCore().compactions(), 0u);
        EXPECT_TRUE(processor.completionCore().empty());
    }
}

TEST(MtProcessor, CompletionHeapBoundedUnderSyncFaults)
{
    MtConfig config = syncConfig(ArchKind::Flexible, 128, 32.0, 500.0);
    config.workload.numThreads = 48;
    MtProcessor processor(std::move(config));
    processor.run();
    EXPECT_LE(processor.completionCore().maxSize(), 48u);
    EXPECT_EQ(processor.completionCore().compactions(), 0u);
    EXPECT_TRUE(processor.completionCore().empty());
}

// ---------------------------------------------------------------------
// Two-phase and refill bookkeeping

/** The two-phase waiting budget, as MtProcessor computes it. */
uint64_t
budgetOf(const MtProcessor &processor, const Thread &t)
{
    const runtime::CostModel &c = processor.config().costs;
    return c.unloadCost(t.regsUsed) + c.dealloc + 2 * c.queueOp +
           c.allocSucceed + c.loadCost(t.regsUsed);
}

// The victim of a two-phase eviction is the blocked resident context
// with the least waiting budget left, and ties go to the lowest tid,
// whatever order the contexts blocked in. Identical deterministic
// threads block in lockstep, so many evictions are ties.
TEST(MtProcessor, TwoPhaseEvictionTiesGoToLowestTid)
{
    MtConfig config = SimulationSpec()
                          .deterministicFaults(50, 5000)
                          .threads(12)
                          .registerDemand(16)
                          .workPerThread(2000)
                          .numRegs(64)
                          .twoPhaseUnload()
                          .build();
    MtProcessor processor(std::move(config));
    processor.begin();

    unsigned evictions = 0, ties = 0;
    while (!processor.done()) {
        // Pre-step candidates: an eviction happens only when nothing
        // became runnable, so idleOrEvict sees exactly this set.
        std::vector<std::pair<uint64_t, unsigned>> candidates;
        std::vector<uint64_t> unloaded;
        for (const Thread &t : processor.threads()) {
            unloaded.push_back(t.timesUnloaded);
            if (t.state != ThreadState::BlockedLoaded)
                continue;
            const uint64_t budget = budgetOf(processor, t);
            candidates.push_back(
                {budget > t.spinAccrued ? budget - t.spinAccrued : 0,
                 t.id});
        }
        processor.step();

        for (const Thread &t : processor.threads()) {
            if (t.timesUnloaded == unloaded[t.id])
                continue;
            ++evictions;
            ASSERT_FALSE(candidates.empty());
            const auto best =
                *std::min_element(candidates.begin(), candidates.end());
            EXPECT_EQ(t.id, best.second)
                << "event " << processor.eventIndex();
            if (std::count_if(candidates.begin(), candidates.end(),
                              [&](const auto &c) {
                                  return c.first == best.first;
                              }) > 1)
                ++ties;
        }
    }
    EXPECT_GT(evictions, 10u);
    EXPECT_GT(ties, 5u);
}

// A refill that finds the register file full leaves everything as
// it was: no allocation attempt, no charge, no event, and the queued
// threads stay queued. Two fixed hardware slots and 24 threads keep
// the queue long for the whole run.
TEST(MtProcessor, RefillWithFullFileChargesNothing)
{
    trace::VectorSink sink;
    MtConfig config = SimulationSpec()
                          .syncFaults(32, 2000)
                          .arch(ArchKind::FixedHw)
                          .threads(24)
                          .workPerThread(3000)
                          .numRegs(64)
                          .twoPhaseUnload()
                          .traceSink(&sink)
                          .build();
    MtProcessor processor(std::move(config));
    const unsigned slots = 2;

    const auto resident = [&] {
        unsigned n = 0;
        for (const Thread &t : processor.threads())
            n += t.context ? 1 : 0;
        return n;
    };
    const auto count = [&](std::size_t from, trace::EventKind kind) {
        return std::count_if(sink.events().begin() +
                                 static_cast<std::ptrdiff_t>(from),
                             sink.events().end(),
                             [&](const trace::TraceEvent &e) {
                                 return e.kind == kind;
                             });
    };

    // The initial refill fills both slots; the other 22 threads are
    // skipped without a search.
    processor.begin();
    EXPECT_EQ(resident(), slots);
    EXPECT_EQ(count(0, trace::EventKind::Alloc), 2);
    EXPECT_EQ(count(0, trace::EventKind::Load), 2);
    EXPECT_EQ(sink.events().size(), 6u); // alloc, queue, load x 2

    unsigned full_requeues = 0;
    while (!processor.done()) {
        const std::size_t from = sink.events().size();
        const bool full = resident() == slots;
        std::vector<std::optional<runtime::Context>> contexts;
        for (const Thread &t : processor.threads())
            contexts.push_back(t.context);
        processor.step();
        if (!full || count(from, trace::EventKind::Free) != 0)
            continue;

        // Nothing was released, so every refill in this step saw a
        // full file.
        EXPECT_EQ(count(from, trace::EventKind::Alloc), 0);
        EXPECT_EQ(count(from, trace::EventKind::Load), 0);
        for (const Thread &t : processor.threads()) {
            EXPECT_EQ(t.context.has_value(),
                      contexts[t.id].has_value());
            if (t.context) {
                EXPECT_EQ(t.context->rrm, contexts[t.id]->rrm);
            }
        }
        if (count(from, trace::EventKind::Queue) != 0)
            ++full_requeues; // a woken thread re-queued, then refill
    }
    EXPECT_GT(full_requeues, 0u);
    const MtStats stats = processor.finish();
    EXPECT_EQ(stats.allocFailures, 0u);
    EXPECT_EQ(stats.allocSuccesses, stats.loads);
}

// ---------------------------------------------------------------------
// FixedContextPolicy's free-slot counter

unsigned
recountFreeRegs(const FixedContextPolicy &policy, unsigned context_regs)
{
    unsigned free_slots = 0;
    for (unsigned s = 0; s < policy.numSlots(); ++s)
        free_slots += policy.slotIsFree(s) ? 1 : 0;
    return free_slots * context_regs;
}

TEST(FixedContextPolicy, FreeRegsMatchesRecountAfterAnySequence)
{
    constexpr unsigned kRegs = 32;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        FixedContextPolicy policy(256, kRegs);
        ASSERT_EQ(policy.numSlots(), 8u);
        ASSERT_EQ(policy.freeRegs(), 256u);
        std::vector<runtime::Context> held;
        Rng rng(seed);
        for (int step = 0; step < 2000; ++step) {
            const uint64_t op = rng.nextRange(0, 3);
            if (op == 0) {
                // Includes oversized requests, which never allocate.
                const auto ctx = policy.allocate(
                    static_cast<unsigned>(rng.nextRange(1, 40)));
                if (ctx)
                    held.push_back(*ctx);
            } else if (op == 1 && !held.empty()) {
                const std::size_t i = rng.nextRange(0, held.size() - 1);
                policy.release(held[i]);
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
            } else if (op == 2) {
                // Adopt a free slot, as checkpoint restore does.
                const unsigned slot = static_cast<unsigned>(
                    rng.nextRange(0, policy.numSlots() - 1));
                if (policy.slotIsFree(slot)) {
                    runtime::Context ctx;
                    ctx.rrm = slot * kRegs;
                    ctx.size = kRegs;
                    policy.adopt(ctx);
                    held.push_back(ctx);
                }
            }
            ASSERT_EQ(policy.freeRegs(), recountFreeRegs(policy, kRegs))
                << "step " << step;
            ASSERT_EQ(policy.freeRegs(),
                      256u - kRegs * static_cast<unsigned>(held.size()));
        }
    }
}

} // namespace
} // namespace rr::mt
