/**
 * @file
 * Statistics collection for the simulators.
 *
 * The paper (Section 3.1) "extracted statistics over a substantial
 * fraction of the execution that avoided transient startup and
 * completion effects"; IntervalRecorder supports exactly that: it logs
 * a cumulative time series of (time, useful-cycles) points and can
 * compute efficiency over an arbitrary window of the run as well as
 * over the whole run.
 */

#ifndef RR_BASE_STATS_HH
#define RR_BASE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rr {

/** Running mean / variance / min / max accumulator (Welford). */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    uint64_t count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const;

    /** Unbiased sample variance (0 when count < 2). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation (0 when empty). */
    double min() const;

    /** Largest observation (0 when empty). */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Cumulative (time, value) series used to compute windowed rates.
 * Points must be appended with non-decreasing time and value.
 *
 * The central window's bounds are known only when the run ends, and
 * the interpolated value at each bound depends on the exact pair of
 * points around it, so every point is kept. They are stored as pairs
 * in fixed-size chunks, so growth allocates one chunk at a time and
 * never copies or over-reserves.
 */
class IntervalRecorder
{
  public:
    /** Points per storage chunk (a power of two). */
    static constexpr size_t kChunkPoints = 4096;

    IntervalRecorder() = default;
    // tail_ points into chunks_, so a copy or move would share it.
    IntervalRecorder(const IntervalRecorder &) = delete;
    IntervalRecorder &operator=(const IntervalRecorder &) = delete;

    /** Record that by time @p time, @p cumulative units had accrued. */
    void record(uint64_t time, uint64_t cumulative)
    {
        if (fill_ != 0) {
            Point &last = tail_[fill_ - 1];
            if (time < last.time || cumulative < last.value) [[unlikely]]
                nonMonotonic(time, cumulative);
            // Collapse repeated samples at the same timestamp.
            if (time == last.time) {
                last.value = cumulative;
                return;
            }
        }
        // fill_ is 0 when empty and kChunkPoints when the last chunk
        // is full; both need a fresh chunk.
        if ((fill_ & (kChunkPoints - 1)) == 0) [[unlikely]]
            addChunk();
        tail_[fill_++] = {time, cumulative};
    }

    /** Total recorded span end time (0 when empty). */
    uint64_t endTime() const { return fill_ == 0 ? 0 : back().time; }

    /** Final cumulative value (0 when empty). */
    uint64_t endValue() const { return fill_ == 0 ? 0 : back().value; }

    /**
     * Rate of accrual (value per unit time) over the window
     * [t_begin, t_end], interpolating linearly between recorded
     * points. Returns 0 for an empty or zero-length window.
     */
    double windowRate(uint64_t t_begin, uint64_t t_end) const;

    /**
     * Rate over the central fraction of the run: the window
     * [lo_frac * T, hi_frac * T] where T is the end time. This is the
     * transient-excluding measurement used for all paper experiments.
     */
    double centralRate(double lo_frac = 0.2, double hi_frac = 0.8) const;

    /** Rate over the entire run. */
    double totalRate() const;

    /** Number of recorded points. */
    size_t size() const
    {
        return chunks_.empty()
                   ? 0
                   : (chunks_.size() - 1) * kChunkPoints + fill_;
    }

    /** Recorded times in order, for checkpointing (built per call). */
    std::vector<uint64_t> times() const;

    /** Recorded cumulative values in order, for checkpointing. */
    std::vector<uint64_t> values() const;

    /**
     * Replace the series wholesale (checkpoint restore). The two
     * vectors must be equally long and non-decreasing, exactly as if
     * produced by record() calls.
     */
    void restore(const std::vector<uint64_t> &times,
                 const std::vector<uint64_t> &values);

  private:
    struct Point
    {
        uint64_t time;
        uint64_t value;
    };

    /** Panic naming whichever of time or value went backwards. */
    [[noreturn]] void nonMonotonic(uint64_t time,
                                   uint64_t cumulative) const;

    /** Append an empty chunk and make it the tail. */
    void addChunk();

    const Point &back() const { return tail_[fill_ - 1]; }

    /** The @p i-th point in recording order. */
    const Point &at(size_t i) const
    {
        return chunks_[i / kChunkPoints][i % kChunkPoints];
    }

    /** Interpolated cumulative value at time @p t. */
    double valueAt(double t) const;

    std::vector<std::unique_ptr<Point[]>> chunks_;
    Point *tail_ = nullptr; ///< the last chunk (null when empty)
    size_t fill_ = 0;       ///< points in the last chunk
};

/**
 * Simple histogram over integer samples with fixed-width bins,
 * used to sanity check workload distributions.
 */
class Histogram
{
  public:
    /**
     * @param bin_width  width of each bin (>= 1)
     * @param num_bins   number of bins; samples beyond the last bin
     *                   are accumulated in an overflow bucket
     */
    Histogram(uint64_t bin_width, size_t num_bins);

    /** Add one sample. */
    void add(uint64_t x);

    /** Count in bin @p i. */
    uint64_t binCount(size_t i) const;

    /** Count of samples beyond the last bin. */
    uint64_t overflow() const { return overflow_; }

    /** Total number of samples. */
    uint64_t total() const { return total_; }

    size_t numBins() const { return counts_.size(); }
    uint64_t binWidth() const { return bin_width_; }

    /** Render a small ASCII summary (one line per nonempty bin). */
    std::string render() const;

  private:
    uint64_t bin_width_;
    std::vector<uint64_t> counts_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

} // namespace rr

#endif // RR_BASE_STATS_HH
