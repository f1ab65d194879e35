/**
 * @file
 * The stochastic distributions used by the paper's workloads
 * (Sections 3.2 and 3.3):
 *
 *  - geometric run lengths with mean R ("fixed probability of a fault
 *    on each execution cycle");
 *  - constant latency (cache faults, "lightly loaded networks");
 *  - exponential latency (synchronization faults, producer-consumer
 *    waiting);
 *  - uniform integer context sizes (C uniformly distributed 6..24);
 *  - degenerate/constant values (homogeneous context experiments).
 */

#ifndef RR_BASE_DISTRIBUTIONS_HH
#define RR_BASE_DISTRIBUTIONS_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "base/rng.hh"

namespace rr {

/**
 * A distribution over nonnegative cycle counts / register counts.
 * Samples are at least 1 for duration-like quantities; the minimum is
 * configured per concrete distribution.
 */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draw one sample using the supplied generator. */
    virtual uint64_t sample(Rng &rng) const = 0;

    /** Exact mean of the distribution (for analytical comparisons). */
    virtual double mean() const = 0;

    /** Human-readable description, e.g. "geometric(mean=32)". */
    virtual std::string describe() const = 0;
};

/** Degenerate distribution: always returns the same value. */
class ConstantDist : public Distribution
{
  public:
    explicit ConstantDist(uint64_t value);

    uint64_t sample(Rng &rng) const override;
    double mean() const override;
    std::string describe() const override;

  private:
    uint64_t value_;
};

/**
 * Geometric distribution on {1, 2, 3, ...} with the given mean: a
 * fault occurs on each cycle with probability 1/mean, so run lengths
 * between faults are geometric (paper, Section 3.2).
 */
class GeometricDist final : public Distribution
{
  public:
    explicit GeometricDist(double mean);

    /**
     * Defined here so that callers holding a GeometricDist by value
     * (the fault models) inline the draw.
     */
    uint64_t sample(Rng &rng) const override
    {
        // Inverse-CDF sampling of a geometric on {1, 2, ...} with
        // success probability p = 1/mean. ceil(ln U / ln (1-p)) for
        // U in (0, 1).
        if (mean_ <= 1.0)
            return 1;
        double u = rng.nextDouble();
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double v = std::ceil(std::log(u) / logOneMinusP_);
        if (v < 1.0)
            return 1;
        return static_cast<uint64_t>(v);
    }
    double mean() const override;
    std::string describe() const override;

  private:
    double mean_;

    /** log(1 - p) for p = 1/mean (the constructor says why not log1p). */
    double logOneMinusP_;
};

/**
 * Exponential distribution with the given mean, rounded to whole
 * cycles with a minimum of 1 (paper, Section 3.3: synchronization wait
 * times are exponentially distributed).
 */
class ExponentialDist final : public Distribution
{
  public:
    explicit ExponentialDist(double mean);

    /** Defined here for the same reason as GeometricDist::sample. */
    uint64_t sample(Rng &rng) const override
    {
        double u = rng.nextDouble();
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double v = -mean_ * std::log(u);
        if (v < 1.0)
            return 1;
        if (v < 0x1p63)
            return static_cast<uint64_t>(std::llround(v));
        // Past llround's range every double is an integer: the cast
        // is exact up to 2^64, and larger draws saturate.
        return v < 0x1p64 ? static_cast<uint64_t>(v) : UINT64_MAX;
    }
    double mean() const override;
    std::string describe() const override;

  private:
    double mean_;
};

/** Uniform integer distribution over the closed range [lo, hi]. */
class UniformIntDist : public Distribution
{
  public:
    UniformIntDist(uint64_t lo, uint64_t hi);

    uint64_t sample(Rng &rng) const override;
    double mean() const override;
    std::string describe() const override;

  private:
    uint64_t lo_;
    uint64_t hi_;
};

/** Convenience factories returning shared ownership handles. */
std::shared_ptr<Distribution> makeConstant(uint64_t value);
std::shared_ptr<Distribution> makeGeometric(double mean);
std::shared_ptr<Distribution> makeExponential(double mean);
std::shared_ptr<Distribution> makeUniformInt(uint64_t lo, uint64_t hi);

} // namespace rr

#endif // RR_BASE_DISTRIBUTIONS_HH
