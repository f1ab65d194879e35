/**
 * @file
 * Tests for the statistics accumulators (RunningStats,
 * IntervalRecorder with transient exclusion, Histogram) and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/table.hh"

namespace rr {
namespace {

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(IntervalRecorder, TotalRate)
{
    IntervalRecorder rec;
    rec.record(0, 0);
    rec.record(100, 50);
    EXPECT_DOUBLE_EQ(rec.totalRate(), 0.5);
    EXPECT_EQ(rec.endTime(), 100u);
    EXPECT_EQ(rec.endValue(), 50u);
}

TEST(IntervalRecorder, WindowRateInterpolates)
{
    IntervalRecorder rec;
    rec.record(0, 0);
    rec.record(100, 100); // rate 1.0
    rec.record(200, 100); // rate 0.0
    EXPECT_DOUBLE_EQ(rec.windowRate(0, 100), 1.0);
    EXPECT_DOUBLE_EQ(rec.windowRate(100, 200), 0.0);
    EXPECT_DOUBLE_EQ(rec.windowRate(50, 150), 0.5);
}

// The central window must exclude a slow startup transient: here the
// first and last 25% of the run accrue nothing.
TEST(IntervalRecorder, CentralRateExcludesTransients)
{
    IntervalRecorder rec;
    rec.record(0, 0);
    rec.record(250, 0);    // startup transient: idle
    rec.record(750, 500);  // steady state: rate 1.0
    rec.record(1000, 500); // completion transient: idle
    EXPECT_DOUBLE_EQ(rec.centralRate(0.25, 0.75), 1.0);
    EXPECT_DOUBLE_EQ(rec.totalRate(), 0.5);
}

TEST(IntervalRecorder, RepeatedTimestampsCollapse)
{
    IntervalRecorder rec;
    rec.record(0, 0);
    rec.record(10, 5);
    rec.record(10, 8);
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.endValue(), 8u);
}

TEST(IntervalRecorder, EmptyIsZero)
{
    IntervalRecorder rec;
    EXPECT_DOUBLE_EQ(rec.totalRate(), 0.0);
    EXPECT_DOUBLE_EQ(rec.centralRate(), 0.0);
    EXPECT_DOUBLE_EQ(rec.windowRate(0, 10), 0.0);
}

/**
 * The two-vector IntervalRecorder that chunked storage replaced, kept
 * as the oracle: every query must give the identical double.
 */
struct TwoVectorRecorder
{
    std::vector<uint64_t> times;
    std::vector<uint64_t> values;

    void record(uint64_t time, uint64_t cumulative)
    {
        if (!times.empty() && time == times.back()) {
            values.back() = cumulative;
            return;
        }
        times.push_back(time);
        values.push_back(cumulative);
    }

    double valueAt(double t) const
    {
        if (times.empty())
            return 0.0;
        if (t <= static_cast<double>(times.front()))
            return static_cast<double>(values.front());
        if (t >= static_cast<double>(times.back()))
            return static_cast<double>(values.back());
        const auto it = std::upper_bound(times.begin(), times.end(),
                                         static_cast<uint64_t>(t));
        const size_t hi = static_cast<size_t>(it - times.begin());
        const size_t lo = hi - 1;
        const double t0 = static_cast<double>(times[lo]);
        const double t1 = static_cast<double>(times[hi]);
        const double v0 = static_cast<double>(values[lo]);
        const double v1 = static_cast<double>(values[hi]);
        if (t1 <= t0)
            return v1;
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
    }

    double windowRate(uint64_t t_begin, uint64_t t_end) const
    {
        if (times.empty() || t_end <= t_begin)
            return 0.0;
        const double v0 = valueAt(static_cast<double>(t_begin));
        const double v1 = valueAt(static_cast<double>(t_end));
        return (v1 - v0) / static_cast<double>(t_end - t_begin);
    }

    double totalRate() const
    {
        if (times.empty() || times.back() == 0)
            return 0.0;
        return static_cast<double>(values.back()) /
               static_cast<double>(times.back());
    }

    double centralRate(double lo_frac, double hi_frac) const
    {
        if (times.empty())
            return 0.0;
        const double end = static_cast<double>(times.back());
        const auto t0 = static_cast<uint64_t>(end * lo_frac);
        const auto t1 = static_cast<uint64_t>(end * hi_frac);
        if (t1 <= t0)
            return totalRate();
        return windowRate(t0, t1);
    }
};

/** Every query of @p rec against the oracle, at chunk edges too. */
void
expectMatchesOracle(const IntervalRecorder &rec,
                    const TwoVectorRecorder &oracle)
{
    ASSERT_EQ(rec.size(), oracle.times.size());
    EXPECT_EQ(rec.times(), oracle.times);
    EXPECT_EQ(rec.values(), oracle.values);
    EXPECT_EQ(rec.endTime(), oracle.times.back());
    EXPECT_EQ(rec.endValue(), oracle.values.back());
    EXPECT_EQ(rec.totalRate(), oracle.totalRate());

    // Query times: each point's time and its neighbours for the
    // points on either side of every chunk boundary, plus the ends.
    std::vector<uint64_t> probes = {0, 1, oracle.times.back(),
                                    oracle.times.back() + 5};
    const size_t k = IntervalRecorder::kChunkPoints;
    for (size_t edge = k; edge < oracle.times.size(); edge += k) {
        for (const size_t i : {edge - 2, edge - 1, edge, edge + 1}) {
            if (i >= oracle.times.size())
                continue;
            const uint64_t t = oracle.times[i];
            probes.insert(probes.end(), {t - 1, t, t + 1});
        }
    }
    for (const uint64_t a : probes) {
        for (const uint64_t b : probes) {
            ASSERT_EQ(rec.windowRate(a, b), oracle.windowRate(a, b))
                << "window [" << a << ", " << b << "]";
        }
    }
    for (const auto &[lo, hi] :
         std::vector<std::pair<double, double>>{
             {0.2, 0.8}, {0.0, 1.0}, {0.25, 0.75}, {0.5, 0.5},
             {0.1, 0.3}, {0.6, 0.9}}) {
        EXPECT_EQ(rec.centralRate(lo, hi), oracle.centralRate(lo, hi))
            << "fractions " << lo << ", " << hi;
    }
}

// A series over more than two storage chunks answers every query as
// the two-vector recorder did, and survives a checkpoint round trip.
TEST(IntervalRecorder, ChunkedSeriesMatchesTwoVectorOracle)
{
    const size_t k = IntervalRecorder::kChunkPoints;
    IntervalRecorder rec;
    TwoVectorRecorder oracle;
    Rng rng(42);
    uint64_t time = 0;
    uint64_t value = 0;
    auto both = [&](uint64_t t, uint64_t v) {
        rec.record(t, v);
        oracle.record(t, v);
    };
    both(0, 0);
    while (oracle.times.size() < 2 * k + 700) {
        // Irregular steps, with zero-length ones (repeats collapse)
        // and flat stretches (value unchanged).
        const uint64_t dt = rng.nextRange(0, 3) == 0 ? 0
                                                     : rng.nextRange(1, 40);
        const uint64_t dv = rng.nextRange(0, 2) == 0 ? 0
                                                     : rng.nextRange(0, dt);
        time += dt;
        value += dv;
        both(time, value);
        // Collapse repeated timestamps across each chunk edge: the
        // full chunk's last point absorbs the repeat, and the next
        // distinct time starts the new chunk.
        if (oracle.times.size() % k == 0) {
            both(time, value + 3);
            both(time, value + 7);
            value += 7;
            EXPECT_EQ(rec.size(), oracle.times.size());
        }
    }
    ASSERT_GT(rec.size(), 2 * k);
    expectMatchesOracle(rec, oracle);

    // Checkpoint round trip: restore from times()/values(), then keep
    // recording; both copies stay equal to the oracle.
    IntervalRecorder restored;
    restored.restore(rec.times(), rec.values());
    expectMatchesOracle(restored, oracle);
    for (int i = 0; i < 3; ++i) {
        time += 9;
        value += 4;
        restored.record(time, value);
        restored.record(time, value + 1);
        oracle.record(time, value);
        oracle.record(time, value + 1);
        value += 1;
    }
    expectMatchesOracle(restored, oracle);

    // Restoring a series that fills its last chunk exactly.
    const std::vector<uint64_t> full_t(oracle.times.begin(),
                                       oracle.times.begin() + k);
    const std::vector<uint64_t> full_v(oracle.values.begin(),
                                       oracle.values.begin() + k);
    restored.restore(full_t, full_v);
    TwoVectorRecorder full{full_t, full_v};
    restored.record(full_t.back() + 1, full_v.back());
    full.record(full_t.back() + 1, full_v.back());
    expectMatchesOracle(restored, full);
}

TEST(Histogram, BinsAndOverflow)
{
    Histogram h(10, 4); // bins [0,10) [10,20) [20,30) [30,40)
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(35);
    h.add(40); // overflow
    h.add(400); // overflow
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_FALSE(h.render().empty());
}

TEST(Table, RenderAligned)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(Table, RenderCsv)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(0.5, 3), "0.500");
    EXPECT_EQ(Table::num(uint64_t{42}), "42");
    EXPECT_EQ(Table::num(-3), "-3");
}

} // namespace
} // namespace rr
