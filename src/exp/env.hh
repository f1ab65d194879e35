/**
 * @file
 * Environment-variable knobs for the benchmark harness, so a full
 * paper-scale reproduction and a quick smoke run use the same
 * binaries (see docs/BENCH.md for the complete reference):
 *
 *   RR_BENCH_SEEDS   replications per data point (default 3)
 *   RR_BENCH_THREADS thread supply per simulation (default 64)
 *   RR_BENCH_FAST    when set nonzero, figures trim their sweeps
 *   RR_BENCH_JOBS    worker threads for the sweep engine (default 1;
 *                    0 = hardware concurrency). Results are
 *                    identical for every job count (engine.hh).
 *
 * Values must parse completely as unsigned integers: garbage such as
 * "3x" or "banana" is an EnvError instead of being silently truncated
 * by strtoul (the same bug class the rrasm/rrsim CLIs fix with
 * tools/arg_num.hh). The tools turn it into exit code 64.
 */

#ifndef RR_EXP_ENV_HH
#define RR_EXP_ENV_HH

#include <stdexcept>
#include <string>

namespace rr::exp {

/**
 * A set-but-invalid environment value. what() is the whole
 * diagnostic: "NAME: expected an unsigned integer, got 'VALUE'".
 */
class EnvError : public std::runtime_error
{
  public:
    explicit EnvError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Read an unsigned env var, or @p fallback when unset/empty.
 * @throws EnvError for a set-but-invalid value (non-numeric,
 *         trailing junk, out of unsigned range) — a misconfigured
 *         benchmark run must not silently measure the wrong thing.
 */
unsigned envUnsigned(const char *name, unsigned fallback);

/** Number of seeds per data point (RR_BENCH_SEEDS, default 3). */
unsigned benchSeeds();

/** Threads per simulation (RR_BENCH_THREADS, default 64). */
unsigned benchThreads();

/** Whether figures should trim sweeps (RR_BENCH_FAST). */
bool benchFast();

/** Sweep-engine worker threads (RR_BENCH_JOBS, default 1). */
unsigned benchJobs();

} // namespace rr::exp

#endif // RR_EXP_ENV_HH
