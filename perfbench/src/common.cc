#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

namespace perf {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so
    // it would report the launching process's peak when that is larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void
Digest::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash_ ^= p[i];
        hash_ *= 1099511628211ull;
    }
}

void
Digest::text(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

uint64_t
mix(uint64_t seed, uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
calibrationNs()
{
    constexpr uint64_t kIters = 1u << 22;
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        volatile uint64_t sink = 0;
        uint64_t x = 88172645463325252ull + static_cast<uint64_t>(trial);
        const double start = nowSeconds();
        for (uint64_t i = 0; i < kIters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink = x;
        (void)sink;
        const double ns = (nowSeconds() - start) * 1e9 /
                          static_cast<double>(kIters);
        if (trial == 0 || ns < best)
            best = ns;
    }
    return best;
}

double
timeOnFreshThread(const std::function<void()> &setup)
{
    double seconds = 0.0;
    std::exception_ptr error;
    std::thread([&] {
        try {
            const double t0 = nowSeconds();
            setup();
            seconds = nowSeconds() - t0;
        } catch (...) {
            error = std::current_exception();
        }
    }).join();
    if (error)
        std::rethrow_exception(error);
    return seconds;
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
measureRounds(const Options &opts, Outcome &out, unsigned min_rounds,
              const std::function<void(unsigned, bool)> &round)
{
    const double begin = nowSeconds();
    for (unsigned r = 0;
         r < min_rounds || nowSeconds() - begin < opts.seconds; ++r) {
        // Traced runs interleave: even rounds record spans, odd
        // rounds do not, so drift hits both sides equally.
        const bool traced = opts.trace && r % 2 == 0;
        setSpansEnabled(traced);
        const double cpu0 = cpuSeconds();
        const double t0 = nowSeconds();
        round(r, traced);
        const double wall = nowSeconds() - t0;
        const double cpu = cpuSeconds() - cpu0;
        setSpansEnabled(false);
        out.roundWall.push_back(wall);
        out.roundCpu.push_back(cpu);
        (traced ? out.tracedWall : out.untracedWall).push_back(wall);
    }
}

// ---- spans ---------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextId{1};
std::atomic<uint64_t> g_nextOp{1};
std::atomic<uint32_t> g_nextThread{0};

std::mutex g_mutex;
std::vector<Span> g_spans; // guarded by g_mutex

thread_local std::vector<uint64_t> t_open;
thread_local uint32_t t_thread = g_nextThread.fetch_add(1);

} // namespace

void
setSpansEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
newOp()
{
    return g_nextOp.fetch_add(1);
}

ScopedSpan::ScopedSpan(const char *name, uint64_t op, uint64_t parent)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    live_ = true;
    span_.name = name;
    span_.op = op;
    span_.id = g_nextId.fetch_add(1);
    span_.parent = parent != ~0ull ? parent
                   : t_open.empty() ? 0
                                    : t_open.back();
    span_.thread = t_thread;
    t_open.push_back(span_.id);
    span_.start = nowSeconds();
}

ScopedSpan::~ScopedSpan()
{
    if (!live_)
        return;
    span_.end = nowSeconds();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(span_);
}

namespace {

/** Self time of every recorded span, indexed like g_spans. */
std::vector<double>
selfTimes()
{
    std::unordered_map<uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < g_spans.size(); ++i)
        children[g_spans[i].parent].push_back(i);

    std::vector<double> self(g_spans.size());
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        std::vector<std::pair<double, double>> cover;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            for (const std::size_t c : it->second) {
                const double lo = std::max(g_spans[c].start, s.start);
                const double hi = std::min(g_spans[c].end, s.end);
                if (hi > lo)
                    cover.emplace_back(lo, hi);
            }
        }
        // Union of the (possibly parallel) child intervals.
        std::sort(cover.begin(), cover.end());
        double covered = 0.0, reach = s.start;
        for (const auto &[lo, hi] : cover) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

} // namespace

double
spanSeconds(const char *name)
{
    double total = 0.0;
    for (const Span &s : g_spans) {
        if (std::string_view(s.name) == name)
            total += s.end - s.start;
    }
    return total;
}

uint64_t
spanCount(const char *name)
{
    uint64_t count = 0;
    for (const Span &s : g_spans)
        count += std::string_view(s.name) == name;
    return count;
}

bool
writeSpans(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::vector<double> self = selfTimes();
    char line[256];
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        std::snprintf(line, sizeof line,
                      "{\"name\": \"%s\", \"id\": %llu, \"parent\": "
                      "%llu, \"op\": %llu, \"thread\": %u, \"start\": "
                      "%.9f, \"end\": %.9f, \"self\": %.9f}\n",
                      s.name, static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.op), s.thread,
                      s.start, s.end, self[i]);
        out << line;
    }
    return static_cast<bool>(out);
}

} // namespace perf
