#include "base/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace rr {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
RunningStats::variance() const
{
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return min_;
}

double
RunningStats::max() const
{
    return max_;
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
IntervalRecorder::nonMonotonic(uint64_t time, uint64_t cumulative) const
{
    // Called only when time or value went backwards.
    const Point &last = back();
    rr_assert(time >= last.time,
              "non-monotonic time: ", time, " < ", last.time);
    rr_panic("non-monotonic value: ", cumulative, " < ", last.value);
}

void
IntervalRecorder::addChunk()
{
    chunks_.push_back(std::make_unique_for_overwrite<Point[]>(kChunkPoints));
    tail_ = chunks_.back().get();
    fill_ = 0;
}

std::vector<uint64_t>
IntervalRecorder::times() const
{
    std::vector<uint64_t> out(size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = at(i).time;
    return out;
}

std::vector<uint64_t>
IntervalRecorder::values() const
{
    std::vector<uint64_t> out(size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = at(i).value;
    return out;
}

void
IntervalRecorder::restore(const std::vector<uint64_t> &times,
                          const std::vector<uint64_t> &values)
{
    rr_assert(times.size() == values.size(),
              "restore: mismatched series lengths");
    chunks_.clear();
    tail_ = nullptr;
    fill_ = 0;
    for (size_t i = 0; i < times.size(); ++i) {
        if ((fill_ & (kChunkPoints - 1)) == 0)
            addChunk();
        tail_[fill_++] = {times[i], values[i]};
    }
}

double
IntervalRecorder::valueAt(double t) const
{
    const size_t n = size();
    if (n == 0)
        return 0.0;
    if (t <= static_cast<double>(at(0).time))
        return static_cast<double>(at(0).value);
    if (t >= static_cast<double>(back().time))
        return static_cast<double>(back().value);

    // First index with time > t (std::upper_bound over the chunks).
    const auto key = static_cast<uint64_t>(t);
    size_t hi = 0;
    size_t count = n;
    while (count > 0) {
        const size_t half = count / 2;
        if (at(hi + half).time <= key) {
            hi += half + 1;
            count -= half + 1;
        } else {
            count = half;
        }
    }
    const size_t lo = hi - 1;
    const double t0 = static_cast<double>(at(lo).time);
    const double t1 = static_cast<double>(at(hi).time);
    const double v0 = static_cast<double>(at(lo).value);
    const double v1 = static_cast<double>(at(hi).value);
    if (t1 <= t0)
        return v1;
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

double
IntervalRecorder::windowRate(uint64_t t_begin, uint64_t t_end) const
{
    if (fill_ == 0 || t_end <= t_begin)
        return 0.0;
    const double v0 = valueAt(static_cast<double>(t_begin));
    const double v1 = valueAt(static_cast<double>(t_end));
    return (v1 - v0) / static_cast<double>(t_end - t_begin);
}

double
IntervalRecorder::centralRate(double lo_frac, double hi_frac) const
{
    if (fill_ == 0)
        return 0.0;
    const double end = static_cast<double>(endTime());
    const auto t0 = static_cast<uint64_t>(end * lo_frac);
    const auto t1 = static_cast<uint64_t>(end * hi_frac);
    if (t1 <= t0)
        return totalRate();
    return windowRate(t0, t1);
}

double
IntervalRecorder::totalRate() const
{
    if (endTime() == 0)
        return 0.0;
    return static_cast<double>(endValue()) /
           static_cast<double>(endTime());
}

Histogram::Histogram(uint64_t bin_width, size_t num_bins)
    : bin_width_(bin_width), counts_(num_bins, 0)
{
    rr_assert(bin_width >= 1, "bin width must be >= 1");
    rr_assert(num_bins >= 1, "need at least one bin");
}

void
Histogram::add(uint64_t x)
{
    const uint64_t bin = x / bin_width_;
    if (bin < counts_.size())
        ++counts_[bin];
    else
        ++overflow_;
    ++total_;
}

uint64_t
Histogram::binCount(size_t i) const
{
    rr_assert(i < counts_.size(), "bin index out of range");
    return counts_[i];
}

std::string
Histogram::render() const
{
    std::ostringstream os;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        os << "[" << i * bin_width_ << ", " << (i + 1) * bin_width_
           << "): " << counts_[i] << "\n";
    }
    if (overflow_ > 0)
        os << "overflow: " << overflow_ << "\n";
    return os.str();
}

} // namespace rr
