#include "base/distributions.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace rr {

ConstantDist::ConstantDist(uint64_t value)
    : value_(value)
{
}

uint64_t
ConstantDist::sample(Rng &) const
{
    return value_;
}

double
ConstantDist::mean() const
{
    return static_cast<double>(value_);
}

std::string
ConstantDist::describe() const
{
    std::ostringstream os;
    os << "constant(" << value_ << ")";
    return os.str();
}

// The divisor is std::log(1.0 - 1.0 / mean), not std::log1p(-p):
// log1p is more accurate for large means but rounds differently, so
// it would change samples and every published figure. From 2^53 on,
// 1 - 1/mean rounds to 1 and every draw would be 1, so such means
// are outside the domain. The cast in sample() cannot overflow: a
// draw is at most about 36.7 * 2^53 < 2^59.
GeometricDist::GeometricDist(double mean)
    : mean_(mean), logOneMinusP_(std::log(1.0 - 1.0 / mean))
{
    rr_assert(mean >= 1.0 && mean < 0x1p53,
              "geometric mean must be in [1, 2^53), got ", mean);
}

uint64_t
GeometricDist::sample(Rng &rng) const
{
    // Inverse-CDF sampling of a geometric on {1, 2, ...} with success
    // probability p = 1/mean. ceil(ln U / ln (1-p)) for U in (0, 1).
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

double
GeometricDist::mean() const
{
    return mean_;
}

std::string
GeometricDist::describe() const
{
    std::ostringstream os;
    os << "geometric(mean=" << mean_ << ")";
    return os.str();
}

ExponentialDist::ExponentialDist(double mean)
    : mean_(mean)
{
    rr_assert(mean > 0.0, "exponential mean must be positive, got ", mean);
}

uint64_t
ExponentialDist::sample(Rng &rng) const
{
    double u = rng.nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double v = -mean_ * std::log(u);
    if (v < 1.0)
        return 1;
    if (v < 0x1p63)
        return static_cast<uint64_t>(std::llround(v));
    // Past llround's range every double is an integer: the cast is
    // exact up to 2^64, and larger draws saturate.
    return v < 0x1p64 ? static_cast<uint64_t>(v) : UINT64_MAX;
}

double
ExponentialDist::mean() const
{
    return mean_;
}

std::string
ExponentialDist::describe() const
{
    std::ostringstream os;
    os << "exponential(mean=" << mean_ << ")";
    return os.str();
}

UniformIntDist::UniformIntDist(uint64_t lo, uint64_t hi)
    : lo_(lo), hi_(hi)
{
    rr_assert(lo <= hi, "invalid uniform range [", lo, ", ", hi, "]");
}

uint64_t
UniformIntDist::sample(Rng &rng) const
{
    return rng.nextRange(lo_, hi_);
}

double
UniformIntDist::mean() const
{
    return (static_cast<double>(lo_) + static_cast<double>(hi_)) / 2.0;
}

std::string
UniformIntDist::describe() const
{
    std::ostringstream os;
    os << "uniform[" << lo_ << ", " << hi_ << "]";
    return os.str();
}

std::shared_ptr<Distribution>
makeConstant(uint64_t value)
{
    return std::make_shared<ConstantDist>(value);
}

std::shared_ptr<Distribution>
makeGeometric(double mean)
{
    return std::make_shared<GeometricDist>(mean);
}

std::shared_ptr<Distribution>
makeExponential(double mean)
{
    return std::make_shared<ExponentialDist>(mean);
}

std::shared_ptr<Distribution>
makeUniformInt(uint64_t lo, uint64_t hi)
{
    return std::make_shared<UniformIntDist>(lo, hi);
}

} // namespace rr
