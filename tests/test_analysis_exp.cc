/**
 * @file
 * Tests for the Section 3.4 analytical model and the experiment
 * harness (replication + figure-panel sweeps), including agreement
 * between the closed-form model and the simulator in the
 * deterministic setting.
 */

#include <gtest/gtest.h>

#include "analysis/efficiency_model.hh"
#include "exp/env.hh"
#include "exp/sweep.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"

namespace rr {
namespace {

TEST(EfficiencyModel, ClosedForms)
{
    analysis::EfficiencyModel model(100, 400, 6);
    EXPECT_DOUBLE_EQ(model.saturated(), 100.0 / 106.0);
    EXPECT_DOUBLE_EQ(model.linear(2), 200.0 / 506.0);
    EXPECT_DOUBLE_EQ(model.saturationPoint(), 1.0 + 400.0 / 106.0);
    EXPECT_TRUE(model.inLinearRegime(2));
    EXPECT_FALSE(model.inLinearRegime(6));
}

TEST(EfficiencyModel, EfficiencyIsMinOfRegimes)
{
    analysis::EfficiencyModel model(100, 400, 6);
    // Below saturation: linear.
    EXPECT_DOUBLE_EQ(model.efficiency(2), model.linear(2));
    // Above saturation: capped.
    EXPECT_DOUBLE_EQ(model.efficiency(10), model.saturated());
}

// The paper: "processor efficiency increases linearly in the number
// of resident contexts until saturation". Validate the simulator
// against E_lin for N = 1..4 deterministic contexts.
TEST(EfficiencyModel, SimulatorMatchesLinearRegime)
{
    const analysis::EfficiencyModel model(100, 2000, 6);
    for (unsigned n = 1; n <= 4; ++n) {
        // N threads of 8 registers each on a file with room for all.
        mt::MtConfig config = mt::SimulationSpec()
                                  .deterministicFaults(100, 2000)
                                  .threads(n)
                                  .registerDemand(8)
                                  .build();
        const mt::MtStats stats = mt::simulate(std::move(config));
        EXPECT_NEAR(stats.efficiencyCentral, model.linear(n),
                    model.linear(n) * 0.05 + 0.005)
            << "N=" << n;
    }
}

TEST(EfficiencyModel, SimulatorMatchesSaturation)
{
    // N* = 1 + 200/106 ~ 2.9: six contexts saturate comfortably.
    const analysis::EfficiencyModel model(100, 200, 6);
    mt::MtConfig config = mt::SimulationSpec()
                              .deterministicFaults(100, 200)
                              .threads(6)
                              .registerDemand(8)
                              .build();
    const mt::MtStats stats = mt::simulate(std::move(config));
    EXPECT_NEAR(stats.efficiencyCentral, model.saturated(), 0.02);
}

TEST(EfficiencyModelDeath, InvalidParamsPanic)
{
    EXPECT_DEATH(analysis::EfficiencyModel(0, 1, 1), "run length");
    EXPECT_DEATH(analysis::EfficiencyModel(1, -1, 1), "latency");
}

TEST(Sweep, ReplicateAggregatesSeeds)
{
    const exp::ConfigMaker maker = [](mt::ArchKind arch,
                                      uint64_t seed) {
        mt::MtConfig config = mt::SimulationSpec()
                                  .cacheFaults(32.0, 200)
                                  .arch(arch)
                                  .threads(16)
                                  .seed(seed)
                                  .build();
        return config;
    };
    const exp::Replicated rep =
        exp::replicate(maker, mt::ArchKind::Flexible, 3);
    EXPECT_EQ(rep.seeds, 3u);
    EXPECT_GT(rep.meanEfficiency, 0.0);
    EXPECT_LE(rep.meanEfficiency, 1.0);
    EXPECT_GT(rep.meanResident, 0.0);
    // Stochastic workloads: some seed-to-seed variation, but small.
    EXPECT_LT(rep.stddev, 0.1);
}

TEST(Sweep, PanelCoversGridAndBuildsTable)
{
    const exp::PanelMaker maker = [](mt::ArchKind arch, double r,
                                     double l, uint64_t seed) {
        mt::MtConfig config =
            mt::SimulationSpec()
                .cacheFaults(r, static_cast<uint64_t>(l))
                .arch(arch)
                .threads(12)
                .workPerThread(4000)
                .seed(seed)
                .build();
        return config;
    };
    const exp::FigurePanel panel =
        exp::sweepPanel(128, maker, {16.0, 64.0}, {100.0, 400.0}, 1);
    ASSERT_EQ(panel.points.size(), 4u);
    for (const auto &point : panel.points) {
        EXPECT_GT(point.fixed.meanEfficiency, 0.0);
        EXPECT_GT(point.flexible.meanEfficiency, 0.0);
    }
    const Table table = panel.toTable();
    EXPECT_EQ(table.numRows(), 4u);
    EXPECT_EQ(table.numCols(), 6u);
}

TEST(Env, UnsignedParsingAndDefaults)
{
    ::setenv("RR_TEST_ENV_VALUE", "17", 1);
    EXPECT_EQ(exp::envUnsigned("RR_TEST_ENV_VALUE", 3), 17u);
    ::unsetenv("RR_TEST_ENV_VALUE");
    EXPECT_EQ(exp::envUnsigned("RR_TEST_ENV_VALUE", 3), 3u);
    // An empty value counts as unset, not as garbage.
    ::setenv("RR_TEST_ENV_VALUE", "", 1);
    EXPECT_EQ(exp::envUnsigned("RR_TEST_ENV_VALUE", 3), 3u);
    ::unsetenv("RR_TEST_ENV_VALUE");
}

// A set-but-unparseable value must fail the run, not be silently
// replaced by the default: a typo in RR_BENCH_SEEDS would otherwise
// change every result without a trace. The library throws a typed
// error; rrbench and rrserve turn it into exit 64 (test_cli.cc).
TEST(Env, GarbageValueIsAnEnvError)
{
    ::setenv("RR_TEST_ENV_VALUE", "junk", 1);
    try {
        (void)exp::envUnsigned("RR_TEST_ENV_VALUE", 3);
        ADD_FAILURE() << "garbage value was accepted";
    } catch (const exp::EnvError &error) {
        EXPECT_STREQ(error.what(), "RR_TEST_ENV_VALUE: expected an "
                                   "unsigned integer, got 'junk'");
    }
    ::setenv("RR_TEST_ENV_VALUE", "17x", 1);
    EXPECT_THROW(exp::envUnsigned("RR_TEST_ENV_VALUE", 3),
                 exp::EnvError);
    ::unsetenv("RR_TEST_ENV_VALUE");
}

} // namespace
} // namespace rr
