/**
 * @file
 * Tests for the Section 3 fault models: distribution shapes, means,
 * fault classes, and the combined model's race semantics.
 */

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "multithread/fault_model.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"

namespace rr::mt {
namespace {

TEST(CacheFaultModel, ConstantLatencyGeometricRuns)
{
    CacheFaultModel model(32.0, 100);
    Rng rng(5);
    RunningStats runs;
    for (int i = 0; i < 100000; ++i) {
        const FaultSample sample = model.next(rng, static_cast<uint64_t>(i));
        EXPECT_EQ(sample.latency, 100u);
        EXPECT_EQ(sample.kind, FaultClass::Cache);
        EXPECT_GE(sample.runLength, 1u);
        runs.add(static_cast<double>(sample.runLength));
    }
    EXPECT_NEAR(runs.mean(), 32.0, 1.0);
    EXPECT_DOUBLE_EQ(model.meanRunLength(), 32.0);
    EXPECT_DOUBLE_EQ(model.meanLatency(), 100.0);
}

TEST(SyncFaultModel, ExponentialLatency)
{
    SyncFaultModel model(128.0, 500.0);
    Rng rng(6);
    RunningStats runs, lats;
    for (int i = 0; i < 100000; ++i) {
        const FaultSample sample = model.next(rng, static_cast<uint64_t>(i));
        EXPECT_EQ(sample.kind, FaultClass::Synchronization);
        runs.add(static_cast<double>(sample.runLength));
        lats.add(static_cast<double>(sample.latency));
    }
    EXPECT_NEAR(runs.mean(), 128.0, 4.0);
    EXPECT_NEAR(lats.mean(), 500.0, 15.0);
    // Exponential: stddev ~ mean.
    EXPECT_NEAR(lats.stddev(), 500.0, 30.0);
}

TEST(CombinedFaultModel, MixesBothClasses)
{
    CombinedFaultModel model(64.0, 100, 64.0, 400.0);
    Rng rng(7);
    uint64_t cache = 0, sync = 0;
    RunningStats runs;
    for (int i = 0; i < 50000; ++i) {
        const FaultSample sample = model.next(rng, static_cast<uint64_t>(i));
        (sample.kind == FaultClass::Cache ? cache : sync) += 1;
        runs.add(static_cast<double>(sample.runLength));
    }
    // Equal rates: roughly half each (cache wins ties).
    EXPECT_GT(cache, 20000u);
    EXPECT_GT(sync, 15000u);
    // Combined rate: faster than either alone.
    EXPECT_LT(runs.mean(), 64.0);
    EXPECT_NEAR(runs.mean(), model.meanRunLength(),
                model.meanRunLength() * 0.05);
}

TEST(CombinedFaultModel, DegenerateRatesFavourFasterProcess)
{
    // Sync faults far rarer than cache faults.
    CombinedFaultModel model(16.0, 50, 100000.0, 1000.0);
    Rng rng(8);
    uint64_t cache = 0, sync = 0;
    for (int i = 0; i < 20000; ++i) {
        (model.next(rng, static_cast<uint64_t>(i)).kind == FaultClass::Cache ? cache : sync) +=
            1;
    }
    EXPECT_GT(cache, 19500u);
    EXPECT_LT(sync, 500u);
}

TEST(DeterministicFaultModel, ExactValues)
{
    DeterministicFaultModel model(100, 300);
    Rng rng(9);
    for (int i = 0; i < 10; ++i) {
        const FaultSample sample = model.next(rng, static_cast<uint64_t>(i));
        EXPECT_EQ(sample.runLength, 100u);
        EXPECT_EQ(sample.latency, 300u);
    }
}

TEST(FaultModels, Describe)
{
    EXPECT_EQ(CacheFaultModel(8, 100).describe(),
              "cache(R=8, L=100)");
    EXPECT_EQ(SyncFaultModel(32, 500).describe(),
              "sync(R=32, L=500)");
    EXPECT_EQ(DeterministicFaultModel(10, 20).describe(),
              "deterministic(R=10, L=20)");
    EXPECT_FALSE(
        CombinedFaultModel(8, 100, 32, 500).describe().empty());
}


TEST(PhasedFaultModel, PhaseScheduleCycles)
{
    PhasedFaultModel model({
        {3, 200.0, 50.0, false, FaultClass::Cache},
        {2, 16.0, 800.0, true, FaultClass::Synchronization},
    });
    // Sequence 0,1,2 -> phase 0; 3,4 -> phase 1; 5 wraps to phase 0.
    EXPECT_DOUBLE_EQ(model.phaseFor(0).meanRun, 200.0);
    EXPECT_DOUBLE_EQ(model.phaseFor(2).meanRun, 200.0);
    EXPECT_DOUBLE_EQ(model.phaseFor(3).meanRun, 16.0);
    EXPECT_DOUBLE_EQ(model.phaseFor(4).meanRun, 16.0);
    EXPECT_DOUBLE_EQ(model.phaseFor(5).meanRun, 200.0);
    EXPECT_DOUBLE_EQ(model.phaseFor(1000).meanRun, 200.0);
}

TEST(PhasedFaultModel, SamplesFollowThePhase)
{
    PhasedFaultModel model({
        {1, 500.0, 10.0, false, FaultClass::Cache},
        {1, 4.0, 900.0, true, FaultClass::Synchronization},
    });
    Rng rng(21);
    RunningStats compute_runs, comm_runs;
    for (int i = 0; i < 20000; ++i) {
        const FaultSample a = model.next(rng, 0);
        EXPECT_EQ(a.kind, FaultClass::Cache);
        EXPECT_EQ(a.latency, 10u);
        compute_runs.add(static_cast<double>(a.runLength));
        const FaultSample b = model.next(rng, 1);
        EXPECT_EQ(b.kind, FaultClass::Synchronization);
        comm_runs.add(static_cast<double>(b.runLength));
    }
    EXPECT_NEAR(compute_runs.mean(), 500.0, 15.0);
    EXPECT_NEAR(comm_runs.mean(), 4.0, 0.2);
}

TEST(PhasedFaultModel, WeightedMeans)
{
    PhasedFaultModel model({
        {3, 100.0, 10.0, false, FaultClass::Cache},
        {1, 20.0, 50.0, true, FaultClass::Synchronization},
    });
    EXPECT_DOUBLE_EQ(model.meanRunLength(), (3 * 100.0 + 20.0) / 4.0);
    EXPECT_DOUBLE_EQ(model.meanLatency(), (3 * 10.0 + 50.0) / 4.0);
    EXPECT_EQ(model.describe(), "phased(2 phases, cycle 4 faults)");
}

TEST(PhasedFaultModel, DrivesSimulatorThroughPhases)
{
    // A compute/communicate cycle: the simulator must complete and
    // account cycles exactly as with stationary models.
    MtConfig config;
    config.workload.numThreads = 12;
    config.workload.workDist = makeConstant(8000);
    config.workload.regsDist = makeUniformInt(6, 24);
    config.faultModel = std::make_shared<PhasedFaultModel>(
        std::vector<PhasedFaultModel::Phase>{
            {4, 128.0, 60.0, false, FaultClass::Cache},
            {4, 16.0, 400.0, true, FaultClass::Synchronization},
        });
    config.costs = runtime::CostModel::paperFlexible(8);
    config.numRegs = 128;
    config.unloadPolicy = UnloadPolicyKind::TwoPhase;
    const MtStats stats = simulate(std::move(config));
    EXPECT_EQ(stats.threadsFinished, 12u);
    EXPECT_EQ(stats.accountedCycles(), stats.totalCycles);
    EXPECT_GT(stats.cacheFaults, 0u);
    EXPECT_GT(stats.syncFaults, 0u);
}

// ---------------------------------------------------------------------
// The single-entry-point draw contract: FaultModel::next(rng, seq)
// is the only way to draw, stateless models must ignore the sequence
// index entirely (same rng stream => same samples regardless of the
// sequence values a caller passes), and every caller that tracks
// sequences correctly gets phase-structured behaviour for free.

bool
sameSample(const FaultSample &a, const FaultSample &b)
{
    return a.runLength == b.runLength && a.latency == b.latency &&
           a.kind == b.kind;
}

TEST(FaultModelContract, StatelessModelsIgnoreSequenceIndex)
{
    const CacheFaultModel cache(32.0, 100);
    const SyncFaultModel sync(64.0, 500.0);
    const CombinedFaultModel combined(64.0, 100, 128.0, 400.0);
    const DeterministicFaultModel det(100, 300);
    const FaultModel *models[] = {&cache, &sync, &combined, &det};

    for (const FaultModel *model : models) {
        Rng a(11), b(11);
        for (uint64_t i = 0; i < 500; ++i) {
            // Wildly different sequence values, identical streams:
            // the draws must match sample for sample.
            const FaultSample x = model->next(a, i);
            const FaultSample y = model->next(b, 1000003 * i + 17);
            EXPECT_TRUE(sameSample(x, y)) << model->describe();
        }
    }
}

TEST(FaultModelContract, PhasedModelDependsOnlyOnSequence)
{
    PhasedFaultModel model({
        {2, 300.0, 10.0, false, FaultClass::Cache},
        {2, 8.0, 700.0, false, FaultClass::Synchronization},
    });
    Rng a(13), b(13);
    for (uint64_t i = 0; i < 200; ++i) {
        EXPECT_TRUE(sameSample(model.next(a, i), model.next(b, i)));
    }
}

/** Run MtProcessor under @p model twice. */
void
expectSimulationDeterministic(std::shared_ptr<const FaultModel> model)
{
    const SimulationSpec spec = SimulationSpec()
                                    .faultModel(std::move(model), 64.0)
                                    .arch(ArchKind::AddReloc)
                                    .numRegs(96)
                                    .registerDemand(8, 16)
                                    .threads(8)
                                    .workPerThread(4000)
                                    .seed(77);
    const MtStats a = spec.run();
    const MtStats b = spec.run();
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.usefulCycles, b.usefulCycles);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.switchCycles, b.switchCycles);
    EXPECT_EQ(a.allocCycles, b.allocCycles);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.cacheFaults, b.cacheFaults);
    EXPECT_EQ(a.syncFaults, b.syncFaults);
    EXPECT_DOUBLE_EQ(a.efficiencyTotal, b.efficiencyTotal);
    EXPECT_DOUBLE_EQ(a.efficiencyCentral, b.efficiencyCentral);
}

TEST(FaultModelContract, SimulationRepeatsExactlyForEveryFamily)
{
    // The jobs-invariance pin: identical configuration => identical
    // statistics, for every fault-model family. This is what makes
    // parallel benchmark sweeps byte-identical to serial ones.
    expectSimulationDeterministic(
        std::make_shared<CacheFaultModel>(32.0, 100));
    expectSimulationDeterministic(
        std::make_shared<SyncFaultModel>(64.0, 300.0));
    expectSimulationDeterministic(
        std::make_shared<CombinedFaultModel>(64.0, 100, 128.0,
                                             400.0));
    expectSimulationDeterministic(
        std::make_shared<DeterministicFaultModel>(50, 200));
    expectSimulationDeterministic(std::make_shared<PhasedFaultModel>(
        std::vector<PhasedFaultModel::Phase>{
            {2, 128.0, 40.0, false, FaultClass::Cache},
            {2, 16.0, 600.0, true, FaultClass::Synchronization},
        }));
}

TEST(FaultModelContract, MtProcessorAdvancesThroughPhases)
{
    // Unit version of the rrfuzz phase oracle: raising only the
    // phase-1 latency must slow the clock without changing the work,
    // which can only happen if the simulator passes a per-thread
    // fault sequence index into the model.
    const auto run = [](uint64_t phase1_latency) {
        return SimulationSpec()
            .faultModel(std::make_shared<PhasedFaultModel>(
                            std::vector<PhasedFaultModel::Phase>{
                                {2, 32.0, 20.0, false,
                                 FaultClass::Cache},
                                {1ull << 60, 32.0,
                                 static_cast<double>(phase1_latency),
                                 false, FaultClass::Cache},
                            }),
                        32.0)
            .arch(ArchKind::AddReloc)
            .registerDemand(12)
            .threads(4)
            .workPerThread(4096)
            .seed(5)
            .run();
    };
    const MtStats fast = run(20);
    const MtStats slow = run(2000);

    EXPECT_EQ(fast.usefulCycles, slow.usefulCycles);
    EXPECT_NE(fast.totalCycles, slow.totalCycles);
}

} // namespace
} // namespace rr::mt
