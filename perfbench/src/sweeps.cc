/**
 * @file
 * fig5_sweep and fig6_sweep: a Figure 5 / Figure 6 efficiency sweep
 * (F = 64 and 128, both architectures, an R x L grid, several seeds)
 * fanned out on the deterministic worker pool exactly as
 * exp::sweepPanel does, then reduced into panels, emitted as an
 * rr.bench.v1 report, parsed back and schema-validated.
 *
 * One round = the whole grid plus its report. Main operations are
 * the simulations of the smaller register file, auxiliary ones those
 * of the larger (their costs form two clusters; mixing them would put
 * the median between the clusters). Work is simulated events.
 */

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "base/distributions.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "exp/engine.hh"
#include "exp/json_in.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/audit.hh"
#include "workloads.hh"

namespace perf {

namespace {

using rr::mt::ArchKind;
using rr::mt::MtConfig;
using rr::mt::MtStats;

struct Shape
{
    const char *figure;
    bool sync;
    std::vector<unsigned> files;
    std::vector<double> runLengths;
    std::vector<double> latencies;
    unsigned seeds;
    unsigned threads;
};

/** Mean faults each simulated thread takes. */
constexpr double kFaultsPerThread = 400.0;

struct Job
{
    unsigned numRegs;
    double runLength;
    double latency;
    ArchKind arch;
    uint64_t seed;
};

struct SimResult
{
    MtStats stats;
    std::size_t heapMax = 0;
    uint64_t compactions = 0;
    double micros = 0.0;
};

std::vector<Job>
makeJobs(const Shape &shape, uint64_t seed)
{
    // Seeds differ per run so inputs come from --seed; the grid and
    // therefore the amount of work do not.
    const uint64_t base = mix(seed, 0) % 1'000'000 * 64;
    std::vector<Job> jobs;
    for (const unsigned f : shape.files)
        for (const double r : shape.runLengths)
            for (const double l : shape.latencies)
                for (const ArchKind arch :
                     {ArchKind::FixedHw, ArchKind::Flexible})
                    for (unsigned s = 0; s < shape.seeds; ++s)
                        jobs.push_back({f, r, l, arch, base + s + 1});
    return jobs;
}

MtConfig
buildConfig(const Shape &shape, const Job &job)
{
    ScopedSpan span("multithread.build", 0);
    rr::mt::SimulationSpec spec;
    if (shape.sync)
        spec.syncFaults(job.runLength, job.latency);
    else
        spec.cacheFaults(job.runLength,
                         static_cast<uint64_t>(job.latency));
    // The same fault count per thread at every run length (the
    // paper's default scales work only above R = 80), so simulations
    // cost about the same and latency percentiles are not split
    // between clusters of grid points.
    return spec.workPerThread(static_cast<uint64_t>(job.runLength *
                                                     kFaultsPerThread))
        .arch(job.arch)
        .numRegs(job.numRegs)
        .threads(shape.threads)
        .seed(job.seed)
        .build();
}

rr::exp::Replicated
reduce(const std::vector<SimResult> &results, std::size_t first,
       unsigned count)
{
    rr::RunningStats eff, resident;
    for (unsigned i = 0; i < count; ++i) {
        eff.add(results[first + i].stats.efficiencyCentral);
        resident.add(results[first + i].stats.avgResidentContexts);
    }
    rr::exp::Replicated out;
    out.meanEfficiency = eff.mean();
    out.stddev = eff.stddev();
    out.ci95 = rr::exp::ci95HalfWidth(out.stddev, count);
    out.meanResident = resident.mean();
    out.seeds = count;
    return out;
}

/** Panels per register-file size, in job order, as an rr.bench.v1. */
std::string
reportJson(const Shape &shape, const std::vector<SimResult> &results)
{
    rr::exp::RunMeta meta;
    meta.seeds = shape.seeds;
    meta.threads = shape.threads;
    rr::exp::ReportBuilder builder(shape.figure,
                                   "perfbench sweep", meta);
    std::size_t next = 0;
    for (const unsigned f : shape.files) {
        rr::exp::FigurePanel panel;
        panel.numRegs = f;
        for (const double r : shape.runLengths) {
            for (const double l : shape.latencies) {
                rr::exp::ComparisonPoint point;
                point.runLength = r;
                point.latency = l;
                point.fixed = reduce(results, next, shape.seeds);
                point.flexible =
                    reduce(results, next + shape.seeds, shape.seeds);
                next += 2 * shape.seeds;
                panel.points.push_back(point);
            }
        }
        builder.panel("panel_F" + std::to_string(f),
                      "F = " + std::to_string(f), std::move(panel));
    }
    return builder.report().toJson();
}

/** Time @p draws samples of @p dist; ns per draw. */
double
drawNs(const rr::Distribution &dist, uint64_t seed)
{
    constexpr unsigned kDraws = 1u << 20;
    rr::Rng rng(seed);
    uint64_t sink = 0;
    const double start = nowSeconds();
    for (unsigned i = 0; i < kDraws; ++i)
        sink += dist.sample(rng);
    const double ns = (nowSeconds() - start) * 1e9 / kDraws;
    volatile uint64_t keep = sink;
    (void)keep;
    return ns;
}

/** Sweep worker-pool size: --jobs, else min(2, nproc). */
unsigned
sweepJobs(const Options &opts)
{
    if (opts.jobs != 0)
        return opts.jobs;
    // Half the reference box's 4 cores: with every core busy, a
    // co-tenant's burst stalls a worker and the sweep waits on it.
    return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

void
runSweep(const Shape &shape, const Options &opts, Outcome &out)
{
    const unsigned jobs_n = sweepJobs(opts);
    const std::vector<Job> jobs = makeJobs(shape, opts.seed);
    const std::size_t n = jobs.size();

    // Set-up: build every configuration through the validated
    // SimulationSpec builder. Repeated; the median is reported.
    std::vector<MtConfig> configs;
    for (int s = 0; s < kSetups; ++s) {
        out.setups.push_back(timeOnFreshThread([&] {
            setSpansEnabled(opts.trace);
            std::vector<MtConfig> built;
            built.reserve(n);
            for (const Job &job : jobs)
                built.push_back(buildConfig(shape, job));
            setSpansEnabled(false);
            configs = std::move(built);
        }));
    }

    std::vector<SimResult> results(n);
    std::string first_digest;
    uint64_t round_events = 0;
    std::size_t heap_max = 0;
    uint64_t compactions = 0, json_bytes = 0;
    MtStats sums;

    measureRounds(opts, out, 3, [&](unsigned round, bool traced) {
        const double t0 = nowSeconds();
        const uint64_t round_op = newOp();
        {
            ScopedSpan sweep("exp.sweep", round_op);
            const uint64_t parent = sweep.id();
            rr::exp::runParallel(
                n,
                [&](std::size_t i) {
                    ScopedSpan sim("multithread.run", newOp(), parent);
                    const double s0 = nowSeconds();
                    rr::mt::MtProcessor processor(configs[i]);
                    SimResult &r = results[i];
                    r.stats = processor.run();
                    r.heapMax = processor.completionCore().maxSize();
                    r.compactions =
                        processor.completionCore().compactions();
                    r.micros = (nowSeconds() - s0) * 1e6;
                },
                jobs_n);
        }

        Digest digest;
        uint64_t events = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const MtStats &s = results[i].stats;
            out.check(s.accountedCycles() == s.totalCycles &&
                          s.threadsFinished == shape.threads,
                      "cycle accounting of simulation " +
                          std::to_string(i));
            (jobs[i].numRegs == shape.files.front() ? out.mainUs
                                                     : out.auxUs)
                .push_back(results[i].micros);
            events += eventCount(s);
            digest.u64(s.totalCycles);
            digest.u64(s.usefulCycles);
            digest.u64(eventCount(s));
        }

        std::string json;
        std::optional<rr::exp::JsonValue> parsed;
        std::vector<std::string> problems;
        {
            ScopedSpan report("exp.report", round_op);
            {
                ScopedSpan to_json("exp.to_json", round_op);
                json = reportJson(shape, results);
            }
            std::string parse_input = json;
            if (opts.corrupt && round == 0)
                parse_input.resize(parse_input.size() / 2);
            {
                ScopedSpan parse("exp.parse", round_op);
                parsed = rr::exp::parseJson(parse_input);
            }
            ScopedSpan validate("exp.validate", round_op);
            if (parsed)
                problems = rr::exp::validateReportJson(*parsed);
        }
        out.check(parsed && problems.empty(),
                  "rr.bench.v1 report failed validation");
        digest.text(json);

        // Every round recomputes the same grid: the digest must too.
        if (round == 0)
            first_digest = digest.hex();
        out.check(digest.hex() == first_digest,
                  "round digest changed: nondeterministic results");

        out.rates.push_back(static_cast<double>(events) /
                            (nowSeconds() - t0));
        round_events = events;
        json_bytes = json.size();
        if (traced) {
            for (const SimResult &r : results) {
                heap_max = std::max(heap_max, r.heapMax);
                compactions += r.compactions;
                sums.allocSuccesses += r.stats.allocSuccesses;
                sums.allocFailures += r.stats.allocFailures;
                sums.loads += r.stats.loads;
                sums.unloads += r.stats.unloads;
            }
        }
    });
    out.digest = first_digest;

    // Audited subset (untimed): replay a spread of the grid with a
    // streaming TraceAuditor; the trace must reconcile with the
    // statistics and the statistics must equal the unaudited run's.
    const std::size_t stride = std::max<std::size_t>(1, n / 12);
    double null_s = 0.0, audit_s = 0.0;
    uint64_t trace_events = 0, audit_problems = 0;
    for (std::size_t i = 0; i < n; i += stride) {
        double t0 = nowSeconds();
        const MtStats plain = rr::mt::simulate(configs[i]);
        null_s += nowSeconds() - t0;

        MtConfig config = configs[i];
        rr::trace::TraceAuditor auditor(config.costs);
        config.traceSink = &auditor;
        t0 = nowSeconds();
        const MtStats audited = rr::mt::simulate(config);
        audit_s += nowSeconds() - t0;
        const std::vector<std::string> found =
            auditor.reconcile(rr::mt::auditTotals(audited));
        audit_problems += found.size();
        trace_events += auditor.eventsSeen();
        out.check(found.empty() &&
                      audited.totalCycles == plain.totalCycles &&
                      audited.totalCycles ==
                          results[i].stats.totalCycles &&
                      eventCount(audited) ==
                          eventCount(results[i].stats),
                  "audit of simulation " + std::to_string(i) + ": " +
                      (found.empty() ? "stats differ" : found.front()));
    }

    if (!opts.trace)
        return;
    const double rounds = static_cast<double>(out.tracedWall.size());
    const double run_s = spanSeconds("multithread.run") / rounds;
    const double sweep_s = spanSeconds("exp.sweep") / rounds;
    const double parse_s = spanSeconds("exp.parse") / rounds;
    auto &m = out.layers;
    m["multithread.sims"] = spanCount("multithread.run") / rounds;
    m["multithread.build_s"] =
        spanSeconds("multithread.build") / kSetups;
    m["multithread.run_s"] = run_s;
    m["multithread.events"] = static_cast<double>(round_events);
    m["multithread.events_per_s"] = round_events / run_s;
    m["multithread.heap_max"] = static_cast<double>(heap_max);
    m["multithread.compactions"] = compactions / rounds;
    m["runtime.alloc_successes"] = sums.allocSuccesses / rounds;
    m["runtime.alloc_failures"] = sums.allocFailures / rounds;
    m["runtime.loads"] = sums.loads / rounds;
    m["runtime.unloads"] = sums.unloads / rounds;
    m["exp.sweep_s"] = sweep_s;
    m["exp.worker_busy_ratio"] = run_s / (jobs_n * sweep_s);
    m["exp.report_s"] = (spanSeconds("exp.to_json") +
                         spanSeconds("exp.validate")) /
                        rounds;
    m["exp.json_bytes"] = static_cast<double>(json_bytes);
    m["exp.json_parse_mb_per_s"] = json_bytes / parse_s / 1e6;
    m["trace.events"] = static_cast<double>(trace_events);
    m["trace.audit_overhead"] = audit_s / null_s - 1.0;
    m["trace.audit_problems"] = static_cast<double>(audit_problems);

    // Fault-draw cost on this workload's own distributions.
    std::vector<double> geo, expo;
    for (const double r : shape.runLengths)
        geo.push_back(drawNs(rr::GeometricDist(r), opts.seed));
    m["base.geometric_ns"] = median(geo);
    if (shape.sync) {
        for (const double l : shape.latencies)
            expo.push_back(drawNs(rr::ExponentialDist(l), opts.seed));
        m["base.exponential_ns"] = median(expo);
    }
}

} // namespace

void
runFig5Sweep(const Options &opts, Outcome &out)
{
    Shape shape{"fig5_sweep", false, {64, 128}, {8, 32, 128},
                {32, 128, 512}, 6, 32};
    if (opts.quick)
        shape = {"fig5_sweep", false, {64, 128}, {32}, {128}, 2, 16};
    runSweep(shape, opts, out);
}

void
runFig6Sweep(const Options &opts, Outcome &out)
{
    Shape shape{"fig6_sweep", true, {64, 128}, {32, 128, 512},
                {128, 512, 2048}, 6, 32};
    if (opts.quick)
        shape = {"fig6_sweep", true, {64, 128}, {128}, {512}, 2, 16};
    runSweep(shape, opts, out);
}

} // namespace perf
