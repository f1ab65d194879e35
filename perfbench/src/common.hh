/**
 * @file
 * Shared machinery of the end-to-end benchmark driver (rrperf):
 * options, host clocks, the measured-round loop, latency percentiles,
 * the simulated-output digest, the host-noise canary, and the span
 * recorder used by the traced run.
 *
 * Every workload fills one Outcome; main.cc turns it into the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run) declared in BENCHMARK.json.
 */

#ifndef RR_PERFBENCH_COMMON_HH
#define RR_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perf {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Worker-pool size for the sweeps (0 = min(2, nproc)). */
    unsigned jobs = 0;

    /** Repository root: where examples/ is read from. */
    std::string root = ".";

    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spansPath;

    /**
     * Self-test hook: deliberately corrupt one output before it is
     * checked, so the checker's failure count can be verified.
     */
    bool corrupt = false;

    /** Self-test hook: shrink every workload to a minimal size. */
    bool quick = false;
};

/** Seconds on the monotonic clock. */
double nowSeconds();

/** Process user + system CPU seconds (getrusage, all threads). */
double cpuSeconds();

/** Peak resident set size of the process in MB. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The @p pct percentile of @p values by the nearest-rank rule
 * (0 when empty).
 */
double percentile(std::vector<double> values, double pct);

/** 64-bit FNV-1a over everything fed to it. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size);
    void text(const std::string &s);
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    uint64_t hash_ = 1469598103934665603ull;
};

/** Derive an independent 64-bit value from @p seed and @p stream. */
uint64_t mix(uint64_t seed, uint64_t stream);

/**
 * Host-noise canary: nanoseconds per iteration of a fixed
 * dependent-integer loop (best of three). Used only to flag noisy
 * runs, never to scale a metric.
 */
double calibrationNs();

/** Everything one workload run produced. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few messages

    /** Count one checked operation; @p ok false marks it failed. */
    void check(bool ok, const std::string &what);

    std::vector<double> setups;   ///< seconds per repeated set-up
    std::vector<double> roundWall; ///< seconds per measured round
    std::vector<double> roundCpu;  ///< CPU seconds per round
    std::vector<double> mainUs;    ///< main-operation latencies
    std::vector<double> auxUs;     ///< auxiliary-operation latencies
    /** Work units per host second, one per round or pass. */
    std::vector<double> rates;

    /** Hex digest of the simulated results. */
    std::string digest;

    /** Per-layer metrics (traced run); unset ones print as 0. */
    std::map<std::string, double> layers;

    /** Wall seconds of traced and of untraced rounds (traced run). */
    std::vector<double> tracedWall;
    std::vector<double> untracedWall;
};

/**
 * Run measured rounds until @p opts.seconds have elapsed (at least
 * @p min_rounds). Each round's wall and CPU time land in @p out.
 * In a traced run, rounds alternate traced / untraced so the run
 * reports its own tracing overhead; @p round receives whether spans
 * are being recorded.
 */
void measureRounds(const Options &opts, Outcome &out,
                   unsigned min_rounds,
                   const std::function<void(unsigned round, bool traced)>
                       &round);

// ---- spans (traced run only) --------------------------------------------

/** One recorded span. Times are seconds on the monotonic clock. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t op = 0;     ///< shared by one simulation/program/request
    uint32_t thread = 0;
};

/** Set-ups per run; the median is reported as setup_s. */
constexpr int kSetups = 15;

/**
 * Run one set-up on a thread of its own and return its seconds; an
 * exception it throws is rethrown here. A fresh thread, not the
 * caller, so that repeated set-ups land on whichever CPUs are free: on
 * a shared host a whole process can start on a slow CPU, and the
 * median of set-ups run in place flipped between runs (fig6_sweep's
 * 27 or 48 us, per process).
 */
double timeOnFreshThread(const std::function<void()> &setup);

/** Turn span recording on or off (off: ScopedSpan costs one load). */
void setSpansEnabled(bool on);

/**
 * RAII span around one call into a layer. The parent defaults to the
 * innermost open span on this thread; pass one explicitly for work
 * handed to another thread.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, uint64_t op, uint64_t parent = ~0ull);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }

  private:
    Span span_;
    bool live_ = false;
};

/** Fresh operation id (process-wide, thread-safe). */
uint64_t newOp();

/** Sum of recorded span durations with @p name. */
double spanSeconds(const char *name);

/** Number of spans with @p name. */
uint64_t spanCount(const char *name);

/**
 * Write every recorded span (one JSON object per line) to @p path,
 * each with its self time: its duration minus the part of it covered
 * by its children.
 */
bool writeSpans(const std::string &path);

} // namespace perf

#endif // RR_PERFBENCH_COMMON_HH
