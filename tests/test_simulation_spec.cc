/**
 * @file
 * Tests for mt::SimulationSpec, the validated builder that is the
 * single entry point to the event-driven simulator: validation error
 * messages, conventional per-family defaults (Figure 5 vs Figure 6
 * settings), override precedence, and exact equivalence between the
 * builder's sugar and direct MtConfig field overrides.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"

namespace rr {
namespace {

using mt::ArchKind;
using mt::SimulationSpec;
using mt::SpecError;

/** Expect build() to throw a SpecError mentioning @p needle. */
void
expectSpecError(SimulationSpec &spec, const std::string &needle)
{
    try {
        spec.build();
        FAIL() << "expected SpecError containing '" << needle << "'";
    } catch (const SpecError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "actual message: " << error.what();
        EXPECT_NE(std::string(error.what()).find("SimulationSpec:"),
                  std::string::npos);
    }
}

TEST(SimulationSpec, RequiresAFaultProcess)
{
    SimulationSpec spec;
    expectSpecError(spec, "no fault process");
}

TEST(SimulationSpec, RejectsSettingTwoFaultProcesses)
{
    SimulationSpec spec;
    spec.cacheFaults(16.0, 100);
    EXPECT_THROW(spec.syncFaults(32.0, 400.0), SpecError);
    try {
        SimulationSpec().syncFaults(32.0, 400.0)
            .combinedFaults(16.0, 100, 32.0, 400.0);
        FAIL();
    } catch (const SpecError &error) {
        EXPECT_NE(std::string(error.what()).find("set twice"),
                  std::string::npos);
    }
}

TEST(SimulationSpec, RejectsNonPositiveRunLengths)
{
    SimulationSpec a;
    EXPECT_THROW(a.cacheFaults(0.0, 100), SpecError);
    SimulationSpec b;
    EXPECT_THROW(b.syncFaults(-1.0, 400.0), SpecError);
    SimulationSpec c;
    EXPECT_THROW(c.deterministicFaults(0, 100), SpecError);
    // Positive but below the geometric distribution's mean of 1.
    SimulationSpec d;
    EXPECT_THROW(d.cacheFaults(0.5, 100), SpecError);
    SimulationSpec e;
    EXPECT_THROW(e.syncFaults(0.5, 400.0), SpecError);
}

TEST(SimulationSpec, RejectsCycleValuesAbove2To32)
{
    const uint64_t over = (uint64_t{1} << 32) + 1;
    SimulationSpec a;
    EXPECT_THROW(a.cacheFaults(16.0, over), SpecError);
    SimulationSpec b;
    EXPECT_THROW(b.syncFaults(1e17, 400.0), SpecError);
    SimulationSpec c;
    EXPECT_THROW(c.syncFaults(16.0, 1e30), SpecError);
    SimulationSpec d;
    EXPECT_THROW(d.deterministicFaults(over, 100), SpecError);
    SimulationSpec e;
    EXPECT_NO_THROW(e.cacheFaults(mt::kMaxCycles, uint64_t{1} << 32));
}

TEST(SimulationSpec, RejectsImpossibleGeometry)
{
    // Demand above the largest expressible context (2^w).
    SimulationSpec wide;
    wide.cacheFaults(16.0, 100).registerDemand(6, 40).operandWidth(5);
    expectSpecError(wide, "largest context");

    // Register file smaller than one rounded-up context.
    SimulationSpec tiny;
    tiny.cacheFaults(16.0, 100).numRegs(16).registerDemand(6, 24);
    expectSpecError(tiny, "cannot hold a context of 32");

    // Fixed contexts that cannot satisfy the demand.
    SimulationSpec fixed;
    fixed.cacheFaults(16.0, 100)
        .arch(ArchKind::FixedHw)
        .fixedContextRegs(16)
        .registerDemand(6, 24);
    expectSpecError(fixed, "fixed hardware contexts hold 16");

    // Inverted demand range.
    SimulationSpec inverted;
    inverted.cacheFaults(16.0, 100).registerDemand(24, 6);
    expectSpecError(inverted, "inverted");

    // Broken stats window.
    SimulationSpec window;
    window.cacheFaults(16.0, 100).statsWindow(0.9, 0.1);
    expectSpecError(window, "stats window");
}

TEST(SimulationSpec, AppliesFigureConventionsPerFaultFamily)
{
    // Cache faults: S = 6, never unload, flexible Figure 4 costs.
    const mt::MtConfig cache = SimulationSpec()
                                   .cacheFaults(32.0, 200)
                                   .build();
    EXPECT_EQ(cache.unloadPolicy, mt::UnloadPolicyKind::Never);
    EXPECT_EQ(cache.costs.contextSwitch, 6u);

    // Sync faults: S = 8, two-phase unloading.
    const mt::MtConfig sync = SimulationSpec()
                                  .syncFaults(32.0, 400.0)
                                  .build();
    EXPECT_EQ(sync.unloadPolicy, mt::UnloadPolicyKind::TwoPhase);
    EXPECT_EQ(sync.costs.contextSwitch, 8u);

    // Explicit overrides beat the conventions.
    const mt::MtConfig overridden = SimulationSpec()
                                        .syncFaults(32.0, 400.0)
                                        .switchCost(3)
                                        .neverUnload()
                                        .build();
    EXPECT_EQ(overridden.unloadPolicy, mt::UnloadPolicyKind::Never);
    EXPECT_EQ(overridden.costs.contextSwitch, 3u);

    // Fixed-context architecture gets the fixed cost model (free
    // allocation, Figure 4's right column).
    const mt::MtConfig fixed = SimulationSpec()
                                   .cacheFaults(32.0, 200)
                                   .arch(ArchKind::FixedHw)
                                   .build();
    EXPECT_EQ(fixed.costs.allocSucceed, 0u);
    EXPECT_EQ(fixed.costs.contextSwitch, 6u);
}

// The builder's workload sugar (threads/workPerThread) is pure
// convenience; overriding the same fields on a built MtConfig must
// drive the simulator to identical results.
TEST(SimulationSpec, WorkloadSugarMatchesDirectOverrides)
{
    for (const ArchKind arch :
         {ArchKind::Flexible, ArchKind::FixedHw}) {
        mt::MtConfig direct = SimulationSpec()
                                  .cacheFaults(16.0, 200)
                                  .arch(arch)
                                  .numRegs(128)
                                  .seed(5)
                                  .build();
        direct.workload.numThreads = 10;
        direct.workload.workDist = makeConstant(3000);

        mt::MtConfig built = SimulationSpec()
                                 .cacheFaults(16.0, 200)
                                 .arch(arch)
                                 .numRegs(128)
                                 .threads(10)
                                 .workPerThread(3000)
                                 .seed(5)
                                 .build();

        const mt::MtStats a = mt::simulate(direct);
        const mt::MtStats b = mt::simulate(built);
        EXPECT_EQ(a.totalCycles, b.totalCycles)
            << mt::archName(arch);
        EXPECT_EQ(a.usefulCycles, b.usefulCycles);
        EXPECT_EQ(a.faults, b.faults);
        EXPECT_DOUBLE_EQ(a.efficiencyCentral, b.efficiencyCentral);
    }

    mt::MtConfig direct6 = SimulationSpec()
                               .syncFaults(32.0, 400.0)
                               .numRegs(64)
                               .seed(2)
                               .build();
    direct6.workload.numThreads = 10;
    direct6.workload.workDist = makeConstant(3000);
    mt::MtConfig built6 = SimulationSpec()
                              .syncFaults(32.0, 400.0)
                              .arch(ArchKind::Flexible)
                              .numRegs(64)
                              .threads(10)
                              .workPerThread(3000)
                              .seed(2)
                              .build();
    const mt::MtStats a6 = mt::simulate(direct6);
    const mt::MtStats b6 = mt::simulate(built6);
    EXPECT_EQ(a6.totalCycles, b6.totalCycles);
    EXPECT_EQ(a6.unloads, b6.unloads);
}

TEST(SimulationSpec, RunIsBuildPlusSimulate)
{
    SimulationSpec spec;
    spec.cacheFaults(16.0, 100)
        .threads(8)
        .workPerThread(2000)
        .seed(11);
    const mt::MtStats direct = spec.run();
    const mt::MtStats indirect = mt::simulate(spec.build());
    EXPECT_EQ(direct.totalCycles, indirect.totalCycles);
    EXPECT_GT(direct.totalCycles, 0u);
}

TEST(SimulationSpec, DeterministicFamilyUsesCacheConventions)
{
    const mt::MtConfig config = SimulationSpec()
                                    .deterministicFaults(64, 200)
                                    .registerDemand(8)
                                    .threads(6)
                                    .build();
    EXPECT_EQ(config.unloadPolicy, mt::UnloadPolicyKind::Never);
    EXPECT_EQ(config.costs.contextSwitch, 6u);
    const mt::MtStats stats = mt::simulate(config);
    EXPECT_GT(stats.faults, 0u);
}

} // namespace
} // namespace rr
