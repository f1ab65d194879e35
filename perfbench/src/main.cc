/**
 * @file
 * rrperf: the repository's end-to-end benchmark driver
 * (perfbench/README.md).
 *
 *   rrperf --workload NAME --seed N --seconds S --trace 0|1
 *          [--jobs N] [--root DIR] [--spans FILE] [--quick] [--corrupt]
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding every end-to-end metric (--trace 0) or every per-layer
 * metric (--trace 1). The lines before it carry the simulated-output
 * digest and the host-noise canary.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hh"
#include "exp/json_out.hh"
#include "workloads.hh"

namespace {

using namespace perf;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Must list exactly the metrics of BENCHMARK.json (the self-test
// checks both directions).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"cpu_s", "s"},          {"peak_rss_mb", "MB"},
    {"work_rate", "1/s"},    {"main_p90_us", "us"},
    {"aux_p90_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"assembler.calls", "count"},
    {"assembler.s", "s"},
    {"assembler.lines_per_s", "lines/s"},
    {"machine.run_calls", "count"},
    {"machine.run_s", "s"},
    {"machine.instret", "count"},
    {"machine.minstr_per_s", "Minstr/s"},
    {"machine.superblocks_built", "count"},
    {"machine.superblock_flushes", "count"},
    {"machine.superblocks_reverified", "count"},
    {"kernel.runs", "count"},
    {"kernel.run_s", "s"},
    {"kernel.instret", "count"},
    {"kernel.minstr_per_s", "Minstr/s"},
    {"kernel.faults", "count"},
    {"kernel.failed_polls", "count"},
    {"multithread.sims", "count"},
    {"multithread.build_s", "s"},
    {"multithread.run_s", "s"},
    {"multithread.events", "count"},
    {"multithread.events_per_s", "events/s"},
    {"multithread.heap_max", "count"},
    {"multithread.compactions", "count"},
    {"runtime.alloc_successes", "count"},
    {"runtime.alloc_failures", "count"},
    {"runtime.loads", "count"},
    {"runtime.unloads", "count"},
    {"base.geometric_ns", "ns"},
    {"base.exponential_ns", "ns"},
    {"exp.sweep_s", "s"},
    {"exp.worker_busy_ratio", "ratio"},
    {"exp.report_s", "s"},
    {"exp.json_bytes", "bytes"},
    {"exp.json_parse_mb_per_s", "MB/s"},
    {"trace.events", "count"},
    {"trace.audit_overhead", "ratio"},
    {"trace.audit_problems", "count"},
    {"serve.parse_us", "us"},
    {"serve.key_us", "us"},
    {"serve.broker_hit_us", "us"},
    {"serve.broker_miss_us", "us"},
    {"serve.http_us", "us"},
    {"serve.bad_p50_us", "us"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.units_total", "count"},
    {"serve.units_unique", "count"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.batches", "count"},
    {"serve.rejected_429", "count"},
    {"host.calib_ns", "ns"},
    {"host.calib_drift", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

/** Flag a run whose canary moved by more than this share. */
constexpr double kNoisyDrift = 0.10;

struct WorkloadDef
{
    const char *name;
    void (*run)(const Options &, Outcome &);
};

constexpr WorkloadDef kWorkloads[] = {
    {"fig5_sweep", runFig5Sweep},
    {"fig6_sweep", runFig6Sweep},
    {"rrisc_exec", runRriscExec},
    {"serve_mixed", runServeMixed},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rrperf: %s\nusage: rrperf --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--jobs N] [--root DIR] "
                 "[--spans FILE] [--quick] [--corrupt]\n",
                 why);
    std::exit(64);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--seed")
            opts.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            opts.trace = next() != "0";
        else if (arg == "--jobs")
            opts.jobs = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
        else if (arg == "--root")
            opts.root = next();
        else if (arg == "--spans")
            opts.spansPath = next();
        else if (arg == "--quick")
            opts.quick = true;
        else if (arg == "--corrupt")
            opts.corrupt = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (!(opts.seconds > 0.0 && opts.seconds <= 120.0))
        usage("--seconds must be in (0, 120]");
    return opts;
}

void
emitMetric(std::string &out, const char *name, double value,
           const char *unit)
{
    if (!std::isfinite(value))
        value = 0.0;
    if (out.size() > 1)
        out += ", ";
    out += "\"";
    out += name;
    out += "\": {\"value\": ";
    out += rr::exp::jsonNumber(value);
    out += ", \"unit\": \"";
    out += unit;
    out += "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const WorkloadDef *workload = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (opts.workload == w.name)
            workload = &w;
    }
    if (workload == nullptr)
        usage(("unknown workload '" + opts.workload + "'").c_str());

    const double calib_before = calibrationNs();
    Outcome out;
    try {
        workload->run(opts, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rrperf: %s aborted: %s\n", workload->name,
                     e.what());
        return 2;
    }
    const double calib_after = calibrationNs();
    const double drift =
        std::fabs(calib_after - calib_before) / calib_before;

    std::printf("digest %s seed=%llu %s\n", workload->name,
                static_cast<unsigned long long>(opts.seed),
                out.digest.c_str());
    std::printf("host.calib_ns before=%.4f after=%.4f drift=%.3f%s\n",
                calib_before, calib_after, drift,
                drift > kNoisyDrift ? " NOISY" : "");
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "rrperf: %s: FAILED %s\n", workload->name,
                     f.c_str());

    if (opts.trace && !opts.spansPath.empty() &&
        !writeSpans(opts.spansPath)) {
        std::fprintf(stderr, "rrperf: cannot write %s\n",
                     opts.spansPath.c_str());
        return 2;
    }

    std::string metrics = "{";
    if (!opts.trace) {
        const double e2e[] = {
            median(out.setups),
            // Upper percentiles of times (a lower one of rates): a
            // shared host runs at a steady slow speed with fast spells
            // of varying share. Means and medians move with that share
            // from run to run; the slow side of the distribution does
            // not (perfbench/README.md, "End-to-end metrics").
            percentile(out.roundWall, 90),
            percentile(out.roundCpu, 90),
            peakRssMb(),
            percentile(out.rates, 10),
            percentile(out.mainUs, 90),
            percentile(out.auxUs, 90),
        };
        static_assert(std::size(e2e) == std::size(kEndToEnd));
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
            emitMetric(metrics, kEndToEnd[i].name, e2e[i],
                       kEndToEnd[i].unit);
    } else {
        out.layers["host.calib_ns"] = (calib_before + calib_after) / 2;
        out.layers["host.calib_drift"] = drift;
        const double untraced = median(out.untracedWall);
        out.layers["bench.trace_overhead"] =
            untraced > 0.0 ? median(out.tracedWall) / untraced - 1.0
                           : 0.0;
        for (const MetricDef &m : kPerLayer) {
            const auto it = out.layers.find(m.name);
            emitMetric(metrics, m.name,
                       it == out.layers.end() ? 0.0 : it->second,
                       m.unit);
        }
        for (const auto &[name, value] : out.layers) {
            bool declared = false;
            for (const MetricDef &m : kPerLayer)
                declared = declared || name == m.name;
            if (!declared) {
                std::fprintf(stderr,
                             "rrperf: undeclared layer metric %s\n",
                             name.c_str());
                return 2;
            }
        }
    }
    metrics += "}";

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
