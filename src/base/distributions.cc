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
