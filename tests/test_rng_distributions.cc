/**
 * @file
 * Tests for the deterministic RNG and the workload distributions,
 * including statistical checks that sample means match the paper's
 * configured parameters (geometric run lengths, exponential
 * latencies, uniform context sizes).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/distributions.hh"
#include "base/rng.hh"
#include "base/stats.hh"

namespace rr {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t x = rng.nextRange(6, 24);
        EXPECT_GE(x, 6u);
        EXPECT_LE(x, 24u);
        saw_lo |= x == 6;
        saw_hi |= x == 24;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded)
{
    Rng parent(5);
    Rng a = parent.split();
    Rng b = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

/** Sample @p n values and return the mean. */
double
sampleMean(const Distribution &dist, uint64_t seed, int n)
{
    Rng rng(seed);
    RunningStats stats;
    for (int i = 0; i < n; ++i)
        stats.add(static_cast<double>(dist.sample(rng)));
    return stats.mean();
}

TEST(Distributions, ConstantIsConstant)
{
    ConstantDist dist(17);
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(dist.sample(rng), 17u);
    EXPECT_DOUBLE_EQ(dist.mean(), 17.0);
}

// The paper's run lengths: geometric with mean R, minimum 1.
TEST(Distributions, GeometricMeanMatches)
{
    for (const double mean : {8.0, 32.0, 128.0, 512.0}) {
        GeometricDist dist(mean);
        const double got = sampleMean(dist, 11, 200000);
        EXPECT_NEAR(got, mean, mean * 0.03) << "mean=" << mean;
    }
}

TEST(Distributions, GeometricMinimumIsOne)
{
    GeometricDist dist(2.0);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(dist.sample(rng), 1u);
}

// The paper's synchronization waits: exponential with mean L.
TEST(Distributions, ExponentialMeanMatches)
{
    for (const double mean : {64.0, 500.0, 4000.0}) {
        ExponentialDist dist(mean);
        const double got = sampleMean(dist, 13, 200000);
        EXPECT_NEAR(got, mean, mean * 0.03) << "mean=" << mean;
    }
}

// Draws past the uint64_t range saturate instead of wrapping: mean
// 1e300 is all UINT64_MAX, and draws stay nondecreasing in the mean
// through [2^63, 2^64), where llround used to overflow.
TEST(Distributions, ExponentialSaturates)
{
    const ExponentialDist huge(1e300);
    const ExponentialDist big(4e18);
    const ExponentialDist small(1e18);
    Rng huge_rng(5);
    Rng big_rng(5);
    Rng small_rng(5);
    unsigned above_2_63 = 0;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t h = huge.sample(huge_rng);
        const uint64_t b = big.sample(big_rng);
        const uint64_t s = small.sample(small_rng);
        ASSERT_EQ(h, UINT64_MAX);
        ASSERT_LE(s, b);
        above_2_63 += b > (uint64_t{1} << 63) ? 1 : 0;
    }
    EXPECT_GT(above_2_63, 0u);
}

// 1 - 1/mean rounds to 1 from 2^53 on: such means are rejected.
TEST(Distributions, GeometricMeanDomainIsBounded)
{
    EXPECT_DEATH(GeometricDist(1e17), "2\\^53");
    const GeometricDist largest(0x1p53 - 1.0);
    Rng rng(3);
    EXPECT_GT(largest.sample(rng), 1u);
}

// The paper's context sizes: C uniform on [6, 24], mean 15.
TEST(Distributions, UniformIntMeanAndBounds)
{
    UniformIntDist dist(6, 24);
    Rng rng(17);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
        const uint64_t x = dist.sample(rng);
        ASSERT_GE(x, 6u);
        ASSERT_LE(x, 24u);
        stats.add(static_cast<double>(x));
    }
    EXPECT_NEAR(stats.mean(), 15.0, 0.1);
}

TEST(Distributions, GeometricVarianceRoughlyMatches)
{
    // Var of geometric(mean m) is (1-p)/p^2 with p = 1/m.
    const double mean = 32.0;
    GeometricDist dist(mean);
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(static_cast<double>(dist.sample(rng)));
    const double p = 1.0 / mean;
    const double expected_var = (1.0 - p) / (p * p);
    EXPECT_NEAR(stats.variance(), expected_var, expected_var * 0.05);
}

/**
 * The geometric sampler as it was before log(1 - p) was cached in
 * the constructor: every draw evaluated the divisor inline.
 */
uint64_t
inlineGeometricSample(double mean, Rng &rng)
{
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    double u = rng.nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double v = std::ceil(std::log(u) / std::log(1.0 - p));
    if (v < 1.0)
        return 1;
    return static_cast<uint64_t>(v);
}

// Caching the divisor must not move a single sample: every figure's
// bytes depend on these draws.
TEST(Distributions, GeometricCachedLogMatchesInlineFormula)
{
    for (const double mean : {1.0, 1.5, 8.0, 32.0, 128.0, 2048.0, 1e6}) {
        SCOPED_TRACE(mean);
        const GeometricDist dist(mean);
        Rng cached(97), inline_rng(97);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(dist.sample(cached),
                      inlineGeometricSample(mean, inline_rng))
                << "draw " << i;
        // Both streams consumed the same number of draws (mean 1
        // returns early and consumes none).
        EXPECT_EQ(cached.next(), inline_rng.next());
    }
}

TEST(Distributions, GeometricMeanOneConsumesNoDraws)
{
    const GeometricDist dist(1.0);
    Rng rng(5), untouched(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(dist.sample(rng), 1u);
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Distributions, Describe)
{
    EXPECT_EQ(ConstantDist(5).describe(), "constant(5)");
    EXPECT_EQ(GeometricDist(32).describe(), "geometric(mean=32)");
    EXPECT_EQ(ExponentialDist(64).describe(), "exponential(mean=64)");
    EXPECT_EQ(UniformIntDist(6, 24).describe(), "uniform[6, 24]");
}

TEST(Distributions, Factories)
{
    Rng rng(1);
    EXPECT_EQ(makeConstant(3)->sample(rng), 3u);
    EXPECT_GE(makeGeometric(4.0)->sample(rng), 1u);
    EXPECT_GE(makeExponential(4.0)->sample(rng), 1u);
    const uint64_t u = makeUniformInt(2, 9)->sample(rng);
    EXPECT_GE(u, 2u);
    EXPECT_LE(u, 9u);
}

} // namespace
} // namespace rr
