/**
 * @file
 * rrfuzz — seeded differential fuzzing over the RRISC simulators.
 *
 * Two modes:
 *
 *   rrfuzz --seed N --samples K [--kind NAME]...
 *       Generate and check K samples. Deterministic: the same seed
 *       and sample count always produce the same samples, the same
 *       verdicts, and byte-identical repro files (--out-dir).
 *
 *   rrfuzz FILE...
 *       Replay repro files (the corpus-replay mode ctest uses).
 *
 * Exit codes follow docs/TOOLS.md: 0 all samples clean, 1 oracle
 * violations found, 2 unreadable/invalid repro files, 64 usage.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli.hh"
#include "exp/json_out.hh"
#include "fuzz/fuzz.hh"

namespace {

constexpr const char *kUsage =
    "usage: rrfuzz [options] [repro-file...]\n"
    "\n"
    "Fuzzing (no positional arguments):\n"
    "  --seed N             master seed (default 1)\n"
    "  --samples K          number of samples to run (default 100)\n"
    "  --kind NAME          restrict to a sample kind (repeatable;\n"
    "                       see --list-kinds)\n"
    "  --out-dir DIR        write minimized repro files into DIR\n"
    "  --max-failures N     stop after N failures (default: no limit)\n"
    "  --no-shrink          keep failing samples unminimized\n"
    "  --max-shrink-steps N oracle budget per shrink (default 400)\n"
    "\n"
    "Replay (positional arguments): check each repro file; exit 1 on\n"
    "any oracle violation, 2 on unreadable or invalid files.\n"
    "\n"
    "Common:\n"
    "  --list-kinds         print the sample kinds and exit\n"
    "  --json               machine-readable report on stdout\n"
    "  --quiet              suppress per-failure output\n"
    "  --help, --version\n";

/** One replayed file's verdict, for the --json report. */
struct ReplayResult
{
    std::string file;
    const char *kind = "";
    rr::fuzz::Problems problems;
};

int
replayFiles(const std::vector<std::string> &paths, bool quiet,
            bool json)
{
    using namespace rr;
    bool readError = false;
    unsigned violations = 0;
    std::vector<ReplayResult> results;
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "rrfuzz: cannot read %s\n",
                         path.c_str());
            readError = true;
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();

        fuzz::AnySample sample;
        std::string error;
        if (!fuzz::parseRepro(text.str(), sample, error)) {
            std::fprintf(stderr, "rrfuzz: %s: %s\n", path.c_str(),
                         error.c_str());
            readError = true;
            continue;
        }
        const fuzz::Problems problems = fuzz::checkSample(sample);
        results.push_back(
            {path, fuzz::kindName(fuzz::kindOf(sample)), problems});
        if (problems.empty()) {
            if (!quiet && !json)
                std::printf("PASS %s\n", path.c_str());
            continue;
        }
        ++violations;
        if (!quiet && !json) {
            std::printf("FAIL %s\n", path.c_str());
            for (const std::string &p : problems)
                std::printf("  %s\n", p.c_str());
        }
    }
    if (json) {
        exp::JsonWriter w;
        w.beginObject();
        w.member("schema", "rr.rrfuzz.v1");
        w.member("mode", "replay");
        w.member("files", paths.size());
        w.member("violations", violations);
        w.key("results");
        w.beginArray();
        for (const ReplayResult &r : results) {
            w.beginObject();
            w.member("file", r.file);
            w.member("kind", r.kind);
            w.member("problems", r.problems);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::puts(w.str().c_str());
    }
    if (readError)
        return rr::tools::kExitFailure;
    return violations == 0 ? rr::tools::kExitOk
                           : rr::tools::kExitProblems;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rr;

    uint64_t seed = 1;
    uint64_t samples = 100;
    uint64_t maxFailures = 0;
    uint64_t maxShrinkSteps = 400;
    std::vector<std::string> kindNames;
    std::string outDir;
    bool noShrink = false;
    bool listKinds = false;
    bool quiet = false;
    bool json = false;

    tools::OptionParser parser("rrfuzz", kUsage);
    parser.number("--seed", &seed, 0, ~0ull);
    parser.number("--samples", &samples, 1, ~0ull);
    parser.number("--max-failures", &maxFailures, 0, ~0ull);
    parser.number("--max-shrink-steps", &maxShrinkSteps, 0, 1u << 20);
    parser.repeated("--kind", &kindNames);
    parser.value("--out-dir", &outDir);
    parser.flag("--no-shrink", &noShrink);
    parser.flag("--list-kinds", &listKinds);
    parser.flag("--quiet", &quiet);
    parser.flag("--json", &json);
    const int early = parser.parse(argc, argv);
    if (early >= 0)
        return early;

    if (listKinds) {
        for (unsigned i = 0; i < fuzz::numSampleKinds; ++i)
            std::printf(
                "%s\n",
                fuzz::kindName(static_cast<fuzz::SampleKind>(i)));
        return tools::kExitOk;
    }

    if (!parser.positionals().empty())
        return replayFiles(parser.positionals(), quiet, json);

    fuzz::FuzzOptions options;
    options.seed = seed;
    options.samples = samples;
    options.outDir = outDir;
    options.shrink = !noShrink;
    options.maxShrinkSteps = static_cast<unsigned>(maxShrinkSteps);
    options.maxFailures = maxFailures;
    for (const std::string &name : kindNames) {
        fuzz::SampleKind kind;
        if (!fuzz::kindFromName(name, kind))
            return parser.fail("unknown sample kind '%s'",
                               name.c_str());
        options.kinds.push_back(kind);
    }

    const fuzz::FuzzReport report =
        fuzz::runFuzz(options, quiet ? nullptr : &std::cerr);

    if (json) {
        exp::JsonWriter w;
        w.beginObject();
        w.member("schema", "rr.rrfuzz.v1");
        w.member("mode", "fuzz");
        w.member("seed", seed);
        w.member("samples", report.samplesRun);
        w.key("failures");
        w.beginArray();
        for (const fuzz::Failure &f : report.failures) {
            w.beginObject();
            w.member("kind", fuzz::kindName(f.kind));
            w.member("index", f.index);
            w.member("sampleSeed", f.sampleSeed);
            w.member("problems", f.problems);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::puts(w.str().c_str());
    } else if (!quiet) {
        std::fprintf(stderr, "rrfuzz: %llu samples, %zu failure(s)\n",
                     static_cast<unsigned long long>(
                         report.samplesRun),
                     report.failures.size());
    }
    return report.clean() ? tools::kExitOk : tools::kExitProblems;
}
