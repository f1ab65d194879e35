/**
 * @file
 * rrbench — the single driver for every paper figure and table
 * reproduction (docs/BENCH.md is the full reference).
 *
 * Figures register themselves with RR_BENCH_FIGURE (exp/registry.hh);
 * rrbench lists, filters, and runs them, prints the human-readable
 * report, and writes one machine-readable BENCH_<figure>.json per
 * figure (schema "rr.bench.v1"). Sweeps fan out over a fixed-size
 * worker pool; --jobs changes wall-clock time only, never a result
 * digit — including the bytes of --trace-figure output.
 *
 * Usage:
 *   rrbench [--list] [--filter SUBSTR]... [--fast] [--jobs N]
 *           [--seeds N] [--threads N] [--out-dir DIR] [--quiet]
 *           [--compare PATH] [--tolerance X] [--audit]
 *           [--trace-figure NAME]... [--json]
 *   rrbench --validate FILE...
 *
 * --audit attaches a streaming cycle-conservation auditor
 * (docs/TRACE.md) to every simulation of every sweep; any violation
 * fails the run. --trace-figure NAME captures a representative event
 * trace of that figure and writes TRACE_<NAME>.json (Chrome
 * trace_event format, opens in Perfetto); a figure whose simulations
 * emit no events gets no file and fails the run.
 *
 * Exit status (docs/TOOLS.md): 0 on success, 1 when --compare
 * detects a shape regression, 2 on I/O, validation, or audit
 * failure, a deadlocked simulation (mt::SimulationError) or an empty
 * --trace-figure capture, 64 on usage errors.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/compare.hh"
#include "exp/engine.hh"
#include "exp/env.hh"
#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "exp/registry.hh"
#include "exp/report.hh"
#include "exp/tracectl.hh"
#include "multithread/mt_processor.hh"
#include "trace/chrome_export.hh"
#include "cli.hh"

namespace {

using namespace rr;
using namespace rr::tools;

const char *const kUsage =
    "usage: rrbench [options]\n"
    "       rrbench --validate FILE...\n"
    "\n"
    "  --list             list registered figures and exit\n"
    "  --filter SUBSTR    run only figures whose name contains\n"
    "                     SUBSTR (repeatable)\n"
    "  --fast             trimmed sweeps (same as RR_BENCH_FAST=1)\n"
    "  --seeds N          replications per point (RR_BENCH_SEEDS)\n"
    "  --threads N        thread supply per simulation "
    "(RR_BENCH_THREADS)\n"
    "  --jobs N           worker threads; results are identical\n"
    "                     for every N (0 = all cores)\n"
    "  --out-dir DIR      write BENCH_<figure>.json here (default .)\n"
    "  --quiet            suppress the text reports\n"
    "  --compare PATH     baseline BENCH_<figure>.json file, or a\n"
    "                     directory of them; exit 1 on shape\n"
    "                     regressions\n"
    "  --tolerance X      relative drift allowed by --compare\n"
    "                     (default 0.05)\n"
    "  --audit            audit cycle conservation of every\n"
    "                     simulation; violations exit 2\n"
    "  --trace-figure N   capture a representative trace of figure N\n"
    "                     and write TRACE_<N>.json (repeatable)\n"
    "  --json             print a machine-readable run summary\n"
    "                     as the only stdout output\n"
    "  --validate         treat remaining arguments as result\n"
    "                     files; check them against the schema\n";

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Parse a results document or explain why it failed. */
std::optional<exp::JsonValue>
loadDocument(const std::string &path)
{
    const auto text = readFile(path);
    if (!text) {
        std::fprintf(stderr, "rrbench: cannot read %s\n",
                     path.c_str());
        return std::nullopt;
    }
    std::string error;
    auto doc = exp::parseJson(*text, &error);
    if (!doc) {
        std::fprintf(stderr, "rrbench: %s: %s\n", path.c_str(),
                     error.c_str());
        return std::nullopt;
    }
    return doc;
}

int
validateFiles(const std::vector<std::string> &paths)
{
    int status = kExitOk;
    for (const std::string &path : paths) {
        const auto doc = loadDocument(path);
        if (!doc) {
            status = kExitFailure;
            continue;
        }
        const auto issues = exp::validateReportJson(*doc);
        if (issues.empty()) {
            std::printf("%s: ok (%s)\n", path.c_str(),
                        doc->stringOr("figure", "?").c_str());
            continue;
        }
        status = kExitFailure;
        for (const std::string &issue : issues)
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         issue.c_str());
    }
    return status;
}

/** Locate the baseline document for @p figure under --compare PATH. */
std::optional<std::string>
baselinePath(const std::string &compare_path,
             const std::string &figure)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::is_directory(compare_path, ec)) {
        const fs::path candidate =
            fs::path(compare_path) / ("BENCH_" + figure + ".json");
        if (fs::exists(candidate, ec))
            return candidate.string();
        return std::nullopt;
    }
    return compare_path;
}

bool
matchesFilters(const std::string &name,
               const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (const std::string &filter : filters) {
        if (name.find(filter) != std::string::npos)
            return true;
    }
    return false;
}

bool
contains(const std::vector<std::string> &names,
         const std::string &name)
{
    for (const std::string &candidate : names) {
        if (candidate == name)
            return true;
    }
    return false;
}

/** Per-figure record for the --json run summary. */
struct FigureOutcome
{
    std::string name;
    std::string out;
    std::string compare; ///< "ok" | "regression" | "skipped" | ""
    std::string trace;   ///< TRACE_<name>.json path when captured
    bool audited = false;
    uint64_t simulations = 0;
    uint64_t events = 0;
    uint64_t problems = 0;
};

void
printRunSummaryJson(const std::vector<FigureOutcome> &outcomes,
                    unsigned regressions, uint64_t audit_problems)
{
    exp::JsonWriter w;
    w.beginObject();
    w.member("schema", "rr.rrbench.v1");
    w.key("figures");
    w.beginArray();
    for (const FigureOutcome &o : outcomes) {
        w.beginObject();
        w.member("name", o.name);
        w.member("out", o.out);
        if (!o.compare.empty())
            w.member("compare", o.compare);
        if (o.audited) {
            w.key("audit");
            w.beginObject();
            w.member("simulations", o.simulations);
            w.member("events", o.events);
            w.member("problems", o.problems);
            w.endObject();
        }
        if (!o.trace.empty())
            w.member("trace", o.trace);
        w.endObject();
    }
    w.endArray();
    w.member("regressions", regressions);
    w.member("auditProblems", audit_problems);
    w.endObject();
    std::puts(w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false;
    bool fast = false;
    bool quiet = false;
    bool validate = false;
    bool audit = false;
    bool json = false;
    std::vector<std::string> filters;
    std::vector<std::string> trace_figures;
    uint64_t seeds = 0;
    bool seeds_seen = false;
    uint64_t threads = 0;
    bool threads_seen = false;
    uint64_t jobs = 0;
    bool jobs_seen = false;
    std::string out_dir = ".";
    std::string compare;
    bool compare_seen = false;
    double tolerance = 0.05;

    OptionParser parser("rrbench", kUsage);
    parser.flag("--list", &list);
    parser.flag("--fast", &fast);
    parser.flag("--quiet", &quiet);
    parser.flag("--validate", &validate);
    parser.flag("--audit", &audit);
    parser.flag("--json", &json);
    parser.repeated("--filter", &filters);
    parser.repeated("--trace-figure", &trace_figures);
    parser.number("--seeds", &seeds, 1, 1u << 20, &seeds_seen);
    parser.number("--threads", &threads, 1, 1u << 20, &threads_seen);
    parser.number("--jobs", &jobs, 0, 4096, &jobs_seen);
    parser.value("--out-dir", &out_dir);
    parser.value("--compare", &compare, &compare_seen);
    parser.real("--tolerance", &tolerance);
    const int parse_status = parser.parse(argc, argv);
    if (parse_status >= 0)
        return parse_status;

    if (!validate && !parser.positionals().empty()) {
        return parser.fail("unexpected argument '%s' (use --validate "
                           "for files)",
                           parser.positionals().front().c_str());
    }
    if (validate && parser.positionals().empty())
        return parser.fail("--validate expects result files");
    if (validate)
        return validateFiles(parser.positionals());

    const auto figures = exp::Registry::instance().figures();
    for (const std::string &name : trace_figures) {
        bool known = false;
        for (const auto &figure : figures)
            known = known || figure.name == name;
        if (!known)
            return parser.fail("--trace-figure: no figure named "
                               "'%s' (see --list)",
                               name.c_str());
    }

    if (list) {
        for (const auto &figure : figures)
            std::printf("%-22s %s\n", figure.name.c_str(),
                        figure.title.c_str());
        return kExitOk;
    }

    // CLI flags override the RR_BENCH_* environment, which is read
    // only for the flags not given, once, up front: a garbage value
    // is a usage error before any figure runs.
    exp::RunMeta run;
    try {
        exp::setDefaultJobs(jobs_seen ? static_cast<unsigned>(jobs)
                                      : exp::benchJobs());
        run.seeds = seeds_seen ? static_cast<unsigned>(seeds)
                               : exp::benchSeeds();
        run.threads = threads_seen ? static_cast<unsigned>(threads)
                                   : exp::benchThreads();
        run.fast = fast || exp::benchFast();
    } catch (const exp::EnvError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return kExitUsage;
    }

    // Under --json stdout carries only the run summary.
    const bool text = !quiet && !json;

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "rrbench: cannot create %s: %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return kExitFailure;
    }

    unsigned ran = 0;
    unsigned regressions = 0;
    uint64_t audit_problems = 0;
    unsigned empty_traces = 0;
    std::vector<FigureOutcome> outcomes;
    for (const auto &figure : figures) {
        if (!matchesFilters(figure.name, filters))
            continue;
        ++ran;
        FigureOutcome outcome;
        outcome.name = figure.name;

        const bool capture = contains(trace_figures, figure.name);
        std::optional<exp::TraceController> controller;
        if (audit || capture) {
            exp::TraceController::Options topts;
            topts.audit = audit;
            topts.capture = capture;
            controller.emplace(topts);
            exp::TraceController::activate(&*controller);
        }
        std::optional<exp::Report> ran_report;
        try {
            ran_report.emplace(exp::Registry::run(figure, run));
        } catch (const mt::SimulationError &error) {
            std::fprintf(stderr, "rrbench: %s: %s\n",
                         figure.name.c_str(), error.what());
        }
        exp::TraceController::activate(nullptr);
        if (!ran_report)
            return kExitFailure;
        const exp::Report &report = *ran_report;

        if (text) {
            std::fputs(report.renderText().c_str(), stdout);
            std::fputc('\n', stdout);
        }

        if (controller) {
            const exp::TraceSummary summary = controller->summary();
            outcome.audited = audit;
            outcome.simulations = summary.simulations;
            outcome.events = summary.events;
            outcome.problems = summary.problemsTotal;
            if (audit) {
                audit_problems += summary.problemsTotal;
                for (const std::string &problem : summary.problems)
                    std::fprintf(stderr, "AUDIT: %s: %s\n",
                                 figure.name.c_str(),
                                 problem.c_str());
                if (text) {
                    std::printf(
                        "audit: %s: %llu simulation(s), %llu "
                        "event(s), %llu violation(s)\n",
                        figure.name.c_str(),
                        static_cast<unsigned long long>(
                            summary.simulations),
                        static_cast<unsigned long long>(
                            summary.events),
                        static_cast<unsigned long long>(
                            summary.problemsTotal));
                }
            }
            if (capture && summary.captures.empty()) {
                // A trace with no events shows nothing: fail instead
                // of writing an empty document.
                std::fprintf(stderr, "trace: %s emitted no events\n",
                             figure.name.c_str());
                ++empty_traces;
            } else if (capture) {
                const std::string trace_path =
                    (std::filesystem::path(out_dir) /
                     ("TRACE_" + figure.name + ".json"))
                        .string();
                std::ofstream out(trace_path, std::ios::binary);
                if (!out) {
                    std::fprintf(stderr,
                                 "rrbench: cannot write %s\n",
                                 trace_path.c_str());
                    return kExitFailure;
                }
                out << trace::exportChromeTrace(summary.captures);
                outcome.trace = trace_path;
                if (text)
                    std::printf("trace: %s: %s (%zu stream(s))\n",
                                figure.name.c_str(),
                                trace_path.c_str(),
                                summary.captures.size());
            }
        }

        const std::string report_json = report.toJson();
        const std::string out_path =
            (std::filesystem::path(out_dir) /
             ("BENCH_" + figure.name + ".json"))
                .string();
        outcome.out = out_path;
        {
            std::ofstream out(out_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "rrbench: cannot write %s\n",
                             out_path.c_str());
                return kExitFailure;
            }
            out << report_json;
        }
        // Sanity: what we wrote must parse and satisfy the schema.
        std::string parse_error;
        const auto reparsed = exp::parseJson(report_json, &parse_error);
        const auto schema_issues =
            reparsed ? exp::validateReportJson(*reparsed)
                     : std::vector<std::string>{parse_error};
        if (!schema_issues.empty()) {
            for (const std::string &issue : schema_issues)
                std::fprintf(stderr, "rrbench: %s: %s\n",
                             out_path.c_str(), issue.c_str());
            return kExitFailure;
        }

        if (compare_seen) {
            const auto base_path = baselinePath(compare, figure.name);
            if (!base_path) {
                std::fprintf(stderr,
                             "compare: no baseline for %s, skipped\n",
                             figure.name.c_str());
                outcome.compare = "skipped";
                outcomes.push_back(outcome);
                continue;
            }
            const auto baseline = loadDocument(*base_path);
            if (!baseline)
                return kExitFailure;
            exp::CompareOptions copts;
            copts.tolerance = tolerance;
            const exp::CompareResult result =
                exp::compareReports(*reparsed, *baseline, copts);
            for (const std::string &note : result.notes)
                std::fprintf(stderr, "compare: %s\n", note.c_str());
            if (result.ok()) {
                std::fprintf(stderr,
                             "compare: %s matches %s "
                             "(tolerance %.2f)\n",
                             figure.name.c_str(), base_path->c_str(),
                             tolerance);
                outcome.compare = "ok";
            } else {
                ++regressions;
                outcome.compare = "regression";
                for (const std::string &issue : result.issues)
                    std::fprintf(stderr, "REGRESSION: %s\n",
                                 issue.c_str());
            }
        }
        outcomes.push_back(outcome);
    }

    if (ran == 0) {
        std::fprintf(stderr, "rrbench: no figures match the filter\n");
        return kExitUsage;
    }
    if (json)
        printRunSummaryJson(outcomes, regressions, audit_problems);
    if (audit_problems > 0) {
        std::fprintf(stderr,
                     "rrbench: cycle-conservation audit failed "
                     "(%llu violation(s))\n",
                     static_cast<unsigned long long>(audit_problems));
        return kExitFailure;
    }
    if (empty_traces > 0)
        return kExitFailure;
    if (regressions > 0) {
        std::fprintf(stderr,
                     "rrbench: %u figure(s) regressed against the "
                     "baseline\n",
                     regressions);
        return kExitProblems;
    }
    return kExitOk;
}
