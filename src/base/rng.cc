#include "base/rng.hh"

#include "base/logging.hh"

namespace rr {

namespace {

/** splitmix64 step, used for seed expansion. */
uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(uint64_t seed_value)
{
    uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitmix64(sm);
    // A state of all zeros is invalid for xoshiro; splitmix64 cannot
    // produce four zero outputs in a row, but be defensive anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::nextRange(uint64_t lo, uint64_t hi)
{
    rr_assert(lo <= hi, "invalid range [", lo, ", ", hi, "]");
    const uint64_t span = hi - lo;
    if (span == ~uint64_t{0})
        return next();
    return lo + static_cast<uint64_t>(nextDouble() *
                                      static_cast<double>(span + 1));
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

void
Rng::state(uint64_t out[4]) const
{
    for (int i = 0; i < 4; ++i)
        out[i] = s_[i];
}

void
Rng::setState(const uint64_t in[4])
{
    for (int i = 0; i < 4; ++i)
        s_[i] = in[i];
}

} // namespace rr
