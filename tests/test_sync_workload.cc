/**
 * @file
 * Tests for the synchronization workloads: real concurrent programs
 * (spinlocks, semaphores, ring buffers, barriers) running on the
 * cycle-level machine, with every wait endogenous.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/static/lint.hh"
#include "assembler/assembler.hh"
#include "kernel/sync_workload.hh"
#include "trace/sink.hh"

namespace rr::kernel {
namespace {

using runtime::SyncScenario;

SyncWorkloadConfig
baseConfig(SyncScenario scenario)
{
    SyncWorkloadConfig config;
    config.scenario = scenario;
    config.numThreads = 4;
    config.rounds = 3;
    config.itemsPerProducer = 4;
    return config;
}

uint64_t
expectedWork(const SyncWorkloadConfig &c)
{
    switch (c.scenario) {
      case SyncScenario::UncontendedLock:
      case SyncScenario::LockConvoy:
        return uint64_t{c.numThreads} * c.rounds *
               (c.csUnits + c.ncUnits);
      case SyncScenario::ProducerConsumer: {
        const unsigned producers =
            c.producers != 0 ? c.producers : c.numThreads / 2;
        const uint64_t items =
            uint64_t{producers} * c.itemsPerProducer;
        return items * c.produceUnits + items * c.consumeUnits;
      }
      case SyncScenario::BarrierSkew: {
        uint64_t per_phase = 0;
        for (unsigned t = 0; t < c.numThreads; ++t)
            per_phase += c.barrierBaseUnits +
                         c.barrierSkewUnits * (t % 4);
        return per_phase * c.rounds;
      }
    }
    return 0;
}

TEST(SyncWorkload, ScenariosHaltAndConserveWork)
{
    for (const auto scenario :
         {SyncScenario::UncontendedLock, SyncScenario::LockConvoy,
          SyncScenario::ProducerConsumer, SyncScenario::BarrierSkew}) {
        const SyncWorkloadConfig config = baseConfig(scenario);
        const SyncWorkloadResult result = runSyncWorkload(config);
        EXPECT_TRUE(result.halted)
            << runtime::syncScenarioName(scenario);
        EXPECT_EQ(result.workUnits, expectedWork(config))
            << runtime::syncScenarioName(scenario);
        EXPECT_EQ(result.usefulCycles, 2 * result.workUnits);
    }
}

TEST(SyncWorkload, PrivateLocksNeverContend)
{
    const SyncWorkloadResult result =
        runSyncWorkload(baseConfig(SyncScenario::UncontendedLock));
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.lockSpins, 0u);
    // Each round takes the thread's own lock once; thread_exit takes
    // the exit latch once per thread.
    EXPECT_EQ(result.lockAcquires, 4u * 3u + 4u);
    EXPECT_EQ(result.faults, 4u * 3u);
}

TEST(SyncWorkload, SharedLockConvoysUnderFaultsInTheCriticalSection)
{
    const SyncWorkloadConfig uncontended =
        baseConfig(SyncScenario::UncontendedLock);
    const SyncWorkloadConfig convoy =
        baseConfig(SyncScenario::LockConvoy);
    const SyncWorkloadResult ru = runSyncWorkload(uncontended);
    const SyncWorkloadResult rc = runSyncWorkload(convoy);
    ASSERT_TRUE(ru.halted);
    ASSERT_TRUE(rc.halted);
    // Identical instruction streams — only the lock address differs —
    // yet the shared lock serializes the critical sections and the
    // holder's FAULT makes everyone else spin.
    EXPECT_GT(rc.lockSpins, 0u);
    EXPECT_GT(rc.totalCycles, ru.totalCycles);
    EXPECT_EQ(rc.workUnits, ru.workUnits);
    EXPECT_EQ(rc.lockAcquires, ru.lockAcquires);
}

TEST(SyncWorkload, ProducerConsumerConservesItems)
{
    SyncWorkloadConfig config =
        baseConfig(SyncScenario::ProducerConsumer);
    const SyncWorkloadResult result = runSyncWorkload(config);
    ASSERT_TRUE(result.halted);
    const uint64_t items = 2u * config.itemsPerProducer;
    EXPECT_EQ(result.itemsProduced, items);
    EXPECT_EQ(result.itemsConsumed, items);
    // Unbalanced sides (producers work 3x per item) starve the
    // consumers into semaphore waits.
    EXPECT_GT(result.semWaits, 0u);
    // Ring mutex once per item on each side, exit latch per thread.
    EXPECT_EQ(result.lockAcquires, 2 * items + config.numThreads);
}

TEST(SyncWorkload, BarrierReleasesOncePerPhase)
{
    SyncWorkloadConfig config = baseConfig(SyncScenario::BarrierSkew);
    const SyncWorkloadResult result = runSyncWorkload(config);
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.barrierReleases, config.rounds);
    // Work skew (10 vs 55 units) forces fast threads to spin.
    EXPECT_GT(result.barrierWaits, 0u);
    EXPECT_EQ(result.faults, 0u);
}

TEST(SyncWorkload, SmallRingThrottlesProducers)
{
    SyncWorkloadConfig wide = baseConfig(SyncScenario::ProducerConsumer);
    wide.ringSize = 8;
    SyncWorkloadConfig tight = wide;
    tight.ringSize = 1;
    const SyncWorkloadResult rw = runSyncWorkload(wide);
    const SyncWorkloadResult rt = runSyncWorkload(tight);
    ASSERT_TRUE(rw.halted);
    ASSERT_TRUE(rt.halted);
    EXPECT_EQ(rw.itemsConsumed, rt.itemsConsumed);
    // One slot forces strict alternation: more blocked semaphore
    // waits, never fewer.
    EXPECT_GE(rt.semWaits, rw.semWaits);
}

void
expectSameResult(const SyncWorkloadResult &a, const SyncWorkloadResult &b,
                 const char *what)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.workUnits, b.workUnits) << what;
    EXPECT_EQ(a.faults, b.faults) << what;
    EXPECT_EQ(a.failedPolls, b.failedPolls) << what;
    EXPECT_EQ(a.lockAcquires, b.lockAcquires) << what;
    EXPECT_EQ(a.lockSpins, b.lockSpins) << what;
    EXPECT_EQ(a.semWaits, b.semWaits) << what;
    EXPECT_EQ(a.barrierWaits, b.barrierWaits) << what;
    EXPECT_EQ(a.barrierReleases, b.barrierReleases) << what;
    EXPECT_EQ(a.itemsProduced, b.itemsProduced) << what;
    EXPECT_EQ(a.itemsConsumed, b.itemsConsumed) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
}

TEST(SyncWorkload, SuperblocksMatchReferenceToTheByte)
{
    // FAULT-heavy spin loops under superblock caching: every
    // scenario must produce identical counters *and* an identical
    // event stream with the decode-per-step reference (predecode
    // off) and the superblock engine.
    for (const auto scenario :
         {SyncScenario::LockConvoy, SyncScenario::ProducerConsumer,
          SyncScenario::BarrierSkew}) {
        std::string traces[2];
        SyncWorkloadResult results[2];
        for (const bool predecode : {false, true}) {
            SyncWorkloadConfig config = baseConfig(scenario);
            config.predecode = predecode;
            std::ostringstream out;
            trace::StreamJsonSink sink(out);
            config.traceSink = &sink;
            results[predecode] = runSyncWorkload(config);
            EXPECT_TRUE(results[predecode].halted);
            traces[predecode] = out.str();
        }
        expectSameResult(results[0], results[1], "superblocks");
        EXPECT_EQ(traces[0], traces[1]);
    }
}

TEST(SyncWorkload, TraceCountsReconcileWithResultCounters)
{
    trace::VectorSink sink;
    SyncWorkloadConfig config = baseConfig(SyncScenario::LockConvoy);
    config.traceSink = &sink;
    const SyncWorkloadResult result = runSyncWorkload(config);
    ASSERT_TRUE(result.halted);

    uint64_t issues = 0, completes = 0, polls = 0;
    for (const auto &event : sink.events()) {
        switch (event.kind) {
          case trace::EventKind::FaultIssue: ++issues; break;
          case trace::EventKind::FaultComplete: ++completes; break;
          case trace::EventKind::SchedulerPoll: ++polls; break;
          default: break;
        }
    }
    EXPECT_EQ(issues, result.faults);
    EXPECT_EQ(completes, result.faults);
    EXPECT_EQ(polls, result.failedPolls);
}

TEST(SyncWorkload, GeneratedProgramsLintCleanUnderStrict)
{
    for (const auto scenario :
         {SyncScenario::UncontendedLock, SyncScenario::LockConvoy,
          SyncScenario::ProducerConsumer, SyncScenario::BarrierSkew}) {
        runtime::SyncProgramParams params;
        params.scenario = scenario;
        const std::string source =
            runtime::syncScenarioSource(params);
        const assembler::Program program =
            assembler::assemble(source);
        ASSERT_TRUE(program.errors.empty())
            << runtime::syncScenarioName(scenario);

        lint::LintOptions options;
        options.interprocedural = true;
        options.lockset = true;
        const lint::LintResult lint =
            lint::lintProgram(program, options);
        EXPECT_EQ(lint.errors, 0u)
            << runtime::syncScenarioName(scenario);
        EXPECT_EQ(lint.warnings, 0u)
            << runtime::syncScenarioName(scenario);
        EXPECT_TRUE(lint.races.empty())
            << runtime::syncScenarioName(scenario);
    }
}

TEST(SyncWorkload, FlexibleContextsDoubleResidencyAtEqualWork)
{
    // The paper's capacity argument on a real workload: a 128-entry
    // file holds eight 16-register contexts or four fixed 32-register
    // contexts. Same total work (16 thread-rounds of the convoy);
    // flexible contexts overlap more lock holders' fault latencies.
    SyncWorkloadConfig flexible = baseConfig(SyncScenario::LockConvoy);
    flexible.numThreads = 8;
    flexible.rounds = 2;
    SyncWorkloadConfig fixed = baseConfig(SyncScenario::LockConvoy);
    fixed.numThreads = 4;
    fixed.rounds = 4;
    fixed.forcedContextSize = 32;

    const SyncWorkloadResult rflex = runSyncWorkload(flexible);
    const SyncWorkloadResult rfix = runSyncWorkload(fixed);
    ASSERT_TRUE(rflex.halted);
    ASSERT_TRUE(rfix.halted);
    EXPECT_EQ(rflex.residentContexts, 8u);
    EXPECT_EQ(rfix.residentContexts, 4u);
    EXPECT_EQ(rflex.workUnits, rfix.workUnits);
}

} // namespace
} // namespace rr::kernel
