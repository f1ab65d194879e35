#include "exp/env.hh"

#include <cstdlib>
#include <limits>

#include "base/parse_num.hh"

namespace rr::exp {

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    uint64_t parsed = 0;
    if (!parseUnsigned(value, parsed,
                       std::numeric_limits<unsigned>::max())) {
        throw EnvError(std::string(name) +
                       ": expected an unsigned integer, got '" + value +
                       "'");
    }
    return static_cast<unsigned>(parsed);
}

unsigned
benchSeeds()
{
    return envUnsigned("RR_BENCH_SEEDS", 3);
}

unsigned
benchThreads()
{
    return envUnsigned("RR_BENCH_THREADS", 64);
}

bool
benchFast()
{
    return envUnsigned("RR_BENCH_FAST", 0) != 0;
}

unsigned
benchJobs()
{
    return envUnsigned("RR_BENCH_JOBS", 1);
}

} // namespace rr::exp
