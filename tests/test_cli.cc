/**
 * @file
 * Tests for the shared tools-layer CLI contract (tools/cli.hh,
 * tools/arg_num.hh): the strict numeric grammar at its edges —
 * INT64/UINT64 boundaries, signs, whitespace, 0x prefixes, leading
 * zeros — the option parser's exit-status behaviour
 * (docs/TOOLS.md documents the accepted forms), the --json
 * documents of rrasm, rrsim, rrbench and rrfuzz, the usage exit
 * for a garbage RR_BENCH_JOBS in rrbench and rrserve and for an
 * impossible machine geometry in rrsim and rrlint or a removed
 * option (rrasm --check, rrbench --perf), and one verdict
 * from rrsim and rrlint on an operand wider than the machine's.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cli.hh"
#include "exp/json_in.hh"

namespace rr::tools {
namespace {

/** Run @p parser over synthetic arguments; returns parse()'s code. */
int
parseArgs(OptionParser &parser, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char tool[] = "testtool";
    argv.push_back(tool);
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data());
}

/** Typed pair so EXPECT_EQ compares against uint64_t exactly. */
std::pair<int, uint64_t>
P(int code, uint64_t value)
{
    return {code, value};
}

/** Parse `--n <text>` with bounds; returns {code, value}. */
std::pair<int, uint64_t>
parseNumber(const std::string &text, uint64_t min = 0,
            uint64_t max = std::numeric_limits<uint64_t>::max())
{
    OptionParser parser("testtool", "usage\n");
    uint64_t value = 0;
    parser.number("--n", &value, min, max);
    const int code = parseArgs(parser, {"--n", text});
    return {code, value};
}

TEST(CliNumber, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseNumber("0"), P(-1, 0ull));
    EXPECT_EQ(parseNumber("5"), P(-1, 5ull));
    EXPECT_EQ(parseNumber("123456789"),
              P(-1, 123456789ull));
}

TEST(CliNumber, Int64AndUint64Boundaries)
{
    // INT64_MAX and its neighbours: an implementation detouring
    // through a signed type breaks exactly here.
    EXPECT_EQ(parseNumber("9223372036854775807"),
              P(-1, 9223372036854775807ull));
    EXPECT_EQ(parseNumber("9223372036854775808"),
              P(-1, 9223372036854775808ull));
    // UINT64_MAX is the last representable value...
    EXPECT_EQ(parseNumber("18446744073709551615"),
              P(-1, 18446744073709551615ull));
    // ... and one past it must be an overflow error, not a wrap.
    EXPECT_EQ(parseNumber("18446744073709551616").first, kExitUsage);
    EXPECT_EQ(parseNumber("99999999999999999999999").first,
              kExitUsage);
}

TEST(CliNumber, RejectsSignsAndWhitespace)
{
    // The grammar admits digits only: no '+' (strtoull would accept
    // it), no '-', no locale whitespace, no trailing junk.
    EXPECT_EQ(parseNumber("+5").first, kExitUsage);
    EXPECT_EQ(parseNumber("-5").first, kExitUsage);
    EXPECT_EQ(parseNumber(" 5").first, kExitUsage);
    EXPECT_EQ(parseNumber("5 ").first, kExitUsage);
    EXPECT_EQ(parseNumber("\t5").first, kExitUsage);
    EXPECT_EQ(parseNumber("5\n").first, kExitUsage);
    EXPECT_EQ(parseNumber("").first, kExitUsage);
    EXPECT_EQ(parseNumber("banana").first, kExitUsage);
    EXPECT_EQ(parseNumber("5x").first, kExitUsage);
    EXPECT_EQ(parseNumber("12 34").first, kExitUsage);
}

TEST(CliNumber, HexPrefixes)
{
    EXPECT_EQ(parseNumber("0x10"), P(-1, 16ull));
    EXPECT_EQ(parseNumber("0XfF"), P(-1, 255ull));
    EXPECT_EQ(parseNumber("0xffffffffffffffff"),
              P(-1, 18446744073709551615ull));
    // "0x" with no digits is not a number.
    EXPECT_EQ(parseNumber("0x").first, kExitUsage);
    EXPECT_EQ(parseNumber("0xg").first, kExitUsage);
    // Hex overflow must be caught too.
    EXPECT_EQ(parseNumber("0x10000000000000000").first, kExitUsage);
}

TEST(CliNumber, LeadingZerosAreDecimalNotOctal)
{
    // strtoull(text, nullptr, 0) would read these as C octal; the
    // documented grammar says leading zeros are plain decimal.
    EXPECT_EQ(parseNumber("010"), P(-1, 10ull));
    EXPECT_EQ(parseNumber("0010"), P(-1, 10ull));
    EXPECT_EQ(parseNumber("08"), P(-1, 8ull));
    EXPECT_EQ(parseNumber("00"), P(-1, 0ull));
}

TEST(CliNumber, EnforcesRange)
{
    EXPECT_EQ(parseNumber("8", 2, 8), P(-1, 8ull));
    EXPECT_EQ(parseNumber("2", 2, 8), P(-1, 2ull));
    EXPECT_EQ(parseNumber("1", 2, 8).first, kExitUsage);
    EXPECT_EQ(parseNumber("9", 2, 8).first, kExitUsage);
}

TEST(CliNumber, InlineEqualsForm)
{
    OptionParser parser("testtool", "usage\n");
    uint64_t value = 0;
    parser.number("--n", &value, 0, 100);
    EXPECT_EQ(parseArgs(parser, {"--n=17"}), -1);
    EXPECT_EQ(value, 17u);

    OptionParser bad("testtool", "usage\n");
    bad.number("--n", &value, 0, 100);
    EXPECT_EQ(parseArgs(bad, {"--n=+17"}), kExitUsage);
}

TEST(CliParser, UnknownOptionIsUsageError)
{
    OptionParser parser("testtool", "usage\n");
    EXPECT_EQ(parseArgs(parser, {"--frobnicate"}), kExitUsage);
}

TEST(CliParser, MissingValueIsUsageError)
{
    OptionParser parser("testtool", "usage\n");
    uint64_t value = 0;
    parser.number("--n", &value, 0, 100);
    EXPECT_EQ(parseArgs(parser, {"--n"}), kExitUsage);
}

TEST(CliParser, PositionalsCollected)
{
    OptionParser parser("testtool", "usage\n");
    bool quiet = false;
    parser.flag("--quiet", &quiet);
    EXPECT_EQ(parseArgs(parser, {"a.s", "--quiet", "b.s"}), -1);
    EXPECT_TRUE(quiet);
    ASSERT_EQ(parser.positionals().size(), 2u);
    EXPECT_EQ(parser.positionals()[0], "a.s");
    EXPECT_EQ(parser.positionals()[1], "b.s");
}

TEST(CliParser, RequireUnsignedReportsGarbage)
{
    uint64_t value = 0;
    EXPECT_TRUE(requireUnsigned("t", "--n", "12", value));
    EXPECT_EQ(value, 12u);
    EXPECT_FALSE(requireUnsigned("t", "--n", "12x", value));
    EXPECT_FALSE(requireUnsigned("t", "--n", nullptr, value));
    EXPECT_FALSE(requireUnsigned("t", "--n", "300", value, 255));
}

// ---- Tool --json documents ------------------------------------------
//
// Each tool's --json output is parsed with the strict exp:: parser,
// run on the built binaries (paths injected by tests/CMakeLists.txt).

/** Run @p command through the shell; returns its stdout. */
std::string
runTool(const std::string &command, int &status)
{
    std::string out;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
        status = -1;
        return out;
    }
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
        out.append(buffer, n);
    const int raw = pclose(pipe);
    status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return out;
}

/** Single-quote @p text for the shell. */
std::string
shellQuote(const std::string &text)
{
    std::string out = "'";
    for (const char c : text)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return out + "'";
}

/** Parse @p text strictly, asserting it is an object with @p schema. */
exp::JsonValue
parseDocument(const std::string &text, const std::string &schema)
{
    std::string error;
    const auto doc = exp::parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << error << "\n" << text;
    if (!doc)
        return {};
    EXPECT_TRUE(doc->isObject()) << text;
    EXPECT_FALSE(doc->members.empty()) << text;
    if (!doc->members.empty()) {
        EXPECT_EQ(doc->members.front().first, "schema");
    }
    EXPECT_EQ(doc->stringOr("schema", ""), schema) << text;
    return *doc;
}

/** A fresh scratch directory for @p test under the build tree. */
std::filesystem::path
workDir(const std::string &test)
{
    const std::filesystem::path dir =
        std::filesystem::path(RR_TEST_WORK_DIR) / test;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(CliToolJson, RrasmGoodAndFailingInput)
{
    const std::string good =
        std::string(RR_SOURCE_DIR) + "/examples/asm/two_threads.s";
    int status = 0;
    const auto ok = parseDocument(
        runTool(shellQuote(RR_RRASM) + " --json " + shellQuote(good),
                status),
        "rr.rrasm.v1");
    EXPECT_EQ(status, kExitOk);
    EXPECT_EQ(ok.stringOr("input", ""), good);
    ASSERT_NE(ok.find("ok"), nullptr);
    EXPECT_TRUE(ok.find("ok")->boolean);
    EXPECT_GT(ok.numberOr("words", 0), 0);

    // A path that needs escaping: the document must carry it intact.
    const std::filesystem::path bad =
        workDir("rrasm") / "bad \"name\" \\ 'x'.s";
    std::ofstream(bad) << "frob r1, r2\n";
    const auto failed = parseDocument(
        runTool(shellQuote(RR_RRASM) + " --json " +
                    shellQuote(bad.string()) + " 2>/dev/null",
                status),
        "rr.rrasm.v1");
    EXPECT_EQ(status, kExitProblems);
    EXPECT_EQ(failed.stringOr("input", ""), bad.string());
    ASSERT_NE(failed.find("ok"), nullptr);
    EXPECT_FALSE(failed.find("ok")->boolean);
    const exp::JsonValue *errors = failed.find("errors");
    ASSERT_NE(errors, nullptr);
    ASSERT_TRUE(errors->isArray());
    ASSERT_FALSE(errors->elements.empty());
    EXPECT_TRUE(errors->elements.front().isString());

    // An immediate too wide for its field is an assembly error (exit
    // 1 with an errors entry), not an encoder abort.
    const std::filesystem::path wide = workDir("rrasm") / "wide.s";
    std::ofstream(wide) << "addi r1, r0, 5000\nhalt\n";
    const auto rejected = parseDocument(
        runTool(shellQuote(RR_RRASM) + " --json " +
                    shellQuote(wide.string()) + " 2>/dev/null",
                status),
        "rr.rrasm.v1");
    EXPECT_EQ(status, kExitProblems);
    const exp::JsonValue *wide_errors = rejected.find("errors");
    ASSERT_NE(wide_errors, nullptr);
    ASSERT_TRUE(wide_errors->isArray());
    ASSERT_EQ(wide_errors->elements.size(), 1u);
    EXPECT_NE(wide_errors->elements.front().string.find("out of"),
              std::string::npos);
}

TEST(CliToolJson, RrsimFinalState)
{
    int status = 0;
    const auto doc = parseDocument(
        runTool(shellQuote(RR_RRSIM) + " --json " +
                    shellQuote(std::string(RR_SOURCE_DIR) +
                               "/examples/asm/fibonacci.s"),
                status),
        "rr.rrsim.v1");
    EXPECT_EQ(status, kExitOk);
    ASSERT_NE(doc.find("halted"), nullptr);
    EXPECT_TRUE(doc.find("halted")->boolean);
    EXPECT_GT(doc.numberOr("instructions", 0), 0);
    EXPECT_EQ(doc.stringOr("trap", ""), "none");
    EXPECT_EQ(doc.find("traceEvents"), nullptr);
}

TEST(CliToolJson, RrbenchRunSummary)
{
    const std::filesystem::path dir = workDir("rrbench");
    int status = 0;
    const auto doc = parseDocument(
        runTool(shellQuote(RR_RRBENCH) +
                    " --filter fig4_costs --fast --quiet --json"
                    " --out-dir " +
                    shellQuote(dir.string()),
                status),
        "rr.rrbench.v1");
    EXPECT_EQ(status, kExitOk);
    const exp::JsonValue *figures = doc.find("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_EQ(figures->elements.size(), 1u);
    EXPECT_EQ(figures->elements[0].stringOr("name", ""), "fig4_costs");
    EXPECT_EQ(doc.numberOr("regressions", -1), 0);
    EXPECT_EQ(doc.numberOr("auditProblems", -1), 0);
}

// Without --quiet the text reports stay off stdout under --json.
TEST(CliToolJson, RrbenchJsonStdoutIsOneDocumentWithoutQuiet)
{
    const std::filesystem::path dir = workDir("rrbench-json");
    int status = 0;
    const auto doc = parseDocument(
        runTool(shellQuote(RR_RRBENCH) +
                    " --filter fig4_costs --fast --json --out-dir " +
                    shellQuote(dir.string()),
                status),
        "rr.rrbench.v1");
    EXPECT_EQ(status, kExitOk);
    const exp::JsonValue *figures = doc.find("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_EQ(figures->elements.size(), 1u);
    EXPECT_EQ(figures->elements[0].stringOr("name", ""), "fig4_costs");
}

TEST(CliToolJson, RrfuzzRunAndReplay)
{
    int status = 0;
    const auto run = parseDocument(
        runTool(shellQuote(RR_RRFUZZ) +
                    " --seed 3 --samples 8 --kind json --quiet --json",
                status),
        "rr.rrfuzz.v1");
    EXPECT_EQ(status, kExitOk);
    EXPECT_EQ(run.stringOr("mode", ""), "fuzz");
    EXPECT_EQ(run.numberOr("seed", 0), 3);
    EXPECT_EQ(run.numberOr("samples", 0), 8);
    ASSERT_NE(run.find("failures"), nullptr);
    EXPECT_TRUE(run.find("failures")->elements.empty());

    const std::string repro = std::string(RR_SOURCE_DIR) +
                              "/tests/fuzz/corpus/json-surrogate-pair.repro";
    const auto replay = parseDocument(
        runTool(shellQuote(RR_RRFUZZ) + " --json " + shellQuote(repro),
                status),
        "rr.rrfuzz.v1");
    EXPECT_EQ(status, kExitOk);
    EXPECT_EQ(replay.stringOr("mode", ""), "replay");
    EXPECT_EQ(replay.numberOr("files", 0), 1);
    EXPECT_EQ(replay.numberOr("violations", -1), 0);
    const exp::JsonValue *results = replay.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->elements.size(), 1u);
    EXPECT_EQ(results->elements[0].stringOr("file", ""), repro);
    EXPECT_EQ(results->elements[0].stringOr("kind", ""), "json");
}

// With --json, stdout is exactly one document: the --compare verdict
// and note lines go to stderr, for a matched and a skipped figure.
TEST(CliToolJson, RrbenchCompareKeepsStdoutOneDocument)
{
    const std::filesystem::path dir = workDir("rrbench-compare");
    // Every figure has a committed baseline; compare against a
    // directory holding only fig5_cache's, so fig4_costs is skipped.
    const std::filesystem::path baseline_dir = dir / "baselines";
    std::filesystem::create_directories(baseline_dir);
    std::filesystem::copy_file(std::string(RR_SOURCE_DIR) +
                                   "/bench/baselines/BENCH_fig5_cache.json",
                               baseline_dir / "BENCH_fig5_cache.json");
    const std::string baselines = baseline_dir.string();
    int status = 0;
    const std::string out =
        runTool(shellQuote(RR_RRBENCH) +
                    " --filter fig5_cache --filter fig4_costs --fast"
                    " --jobs 2 --quiet --json --out-dir " +
                    shellQuote(dir.string()) + " --compare " +
                    shellQuote(baselines) + " 2>/dev/null",
                status);
    EXPECT_EQ(status, kExitOk);
    const auto doc = parseDocument(out, "rr.rrbench.v1");
    EXPECT_EQ(out.find("compare:"), std::string::npos) << out;
    const exp::JsonValue *figures = doc.find("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_EQ(figures->elements.size(), 2u);
    EXPECT_EQ(figures->elements[0].stringOr("name", ""), "fig4_costs");
    EXPECT_EQ(figures->elements[0].stringOr("compare", ""), "skipped");
    EXPECT_EQ(figures->elements[1].stringOr("name", ""), "fig5_cache");
    EXPECT_EQ(figures->elements[1].stringOr("compare", ""), "ok");

    const std::string err =
        runTool(shellQuote(RR_RRBENCH) +
                    " --filter fig4_costs --fast --quiet --json"
                    " --out-dir " +
                    shellQuote(dir.string()) + " --compare " +
                    shellQuote(baselines) + " 2>&1 >/dev/null",
                status);
    EXPECT_EQ(status, kExitOk);
    EXPECT_EQ(err, "compare: no baseline for fig4_costs, skipped\n");
}

// A garbage RR_BENCH_JOBS is a usage error (exit 64) carrying the
// same one-line diagnostic from every tool that reads it, on the
// rrserve miss path included.
TEST(CliToolEnv, GarbageJobsEnvIsAUsageError)
{
    const std::string expected =
        "RR_BENCH_JOBS: expected an unsigned integer, got 'abc'\n";
    const std::filesystem::path dir = workDir("rrbench-env");
    const std::vector<std::string> commands = {
        shellQuote(RR_RRSERVE) + " --hammer --requests 8 --quiet",
        shellQuote(RR_RRSERVE) + " --port 0 --quiet",
        shellQuote(RR_RRBENCH) + " --filter fig4_costs --fast --quiet" +
            " --out-dir " + shellQuote(dir.string()),
    };
    for (const std::string &command : commands) {
        int status = 0;
        const std::string err = runTool(
            "RR_BENCH_JOBS=abc timeout 60 " + command + " 2>&1 >/dev/null",
            status);
        EXPECT_EQ(status, kExitUsage) << command;
        EXPECT_EQ(err, expected) << command;
    }
}

// An impossible relocation geometry is a usage error (exit 64) whose
// message names the value, never a relocation-unit abort or an
// out-of-range shift (docs/TOOLS.md).
TEST(CliToolGeometry, ImpossibleGeometryIsAUsageError)
{
    const std::string program = shellQuote(
        std::string(RR_SOURCE_DIR) + "/examples/asm/fibonacci.s");
    const std::string rrsim = shellQuote(RR_RRSIM) + " --quiet";
    const std::string rrlint = shellQuote(RR_RRLINT) + " --quiet";
    struct Case
    {
        std::string args;
        std::string message;
    };
    const Case rejected[] = {
        {rrsim + " --regs 100",
         "rrsim: register file size must be a power of two: 100"},
        {rrsim + " --banks 3",
         "rrsim: RRM bank count must be a power of two: 3"},
        {rrsim + " --banks 64",
         "rrsim: 64 RRM banks leave no offset bits in operand width 5"},
        {rrsim + " --regs 16",
         "rrsim: operand width 5 addresses more registers (32) than the "
         "register file holds: 16"},
        {rrsim + " --banks 0",
         "rrsim: --banks expects an unsigned number in [1, 64], got '0'"},
        {rrlint + " --banks 0",
         "rrlint: --banks expects an unsigned number in [1, 64], got "
         "'0'"},
        {rrlint + " --banks 3",
         "rrlint: RRM bank count must be a power of two: 3"},
        {rrlint + " --banks 64 --width 1",
         "rrlint: 64 RRM banks leave no offset bits in operand width 1"},
        {rrlint + " --banks 2 --width 1",
         "rrlint: 2 RRM banks leave no offset bits in operand width 1"},
        // A context cannot hold more than the 2^w registers an
        // operand addresses.
        {rrlint + " --context 64",
         "rrlint: --context 64 exceeds the 32 registers a 5-bit operand "
         "addresses"},
        // Removed options are unknown, not silently ignored.
        {shellQuote(RR_RRASM) + " --check 16",
         "rrasm: unknown option '--check'"},
        {shellQuote(RR_RRBENCH) + " --perf",
         "rrbench: unknown option '--perf'"},
    };
    for (const Case &c : rejected) {
        int status = 0;
        const std::string err =
            runTool(c.args + " " + program + " 2>&1 >/dev/null", status);
        EXPECT_EQ(status, kExitUsage) << c.args;
        EXPECT_EQ(err.substr(0, err.find('\n')), c.message) << c.args;
    }

    // The largest legal geometries still run. At w = 2 the program's
    // r4 and up do not fit: a lint finding, not a usage error.
    const std::pair<std::string, int> legal[] = {
        {rrsim + " --regs 32 --banks 2", kExitOk},
        {rrlint + " --banks 32 --width 6 --context 64", kExitOk},
        {rrlint + " --banks 2 --width 2", kExitProblems},
    };
    for (const auto &[args, expected] : legal) {
        int status = 0;
        runTool(args + " " + program + " >/dev/null 2>&1", status);
        EXPECT_EQ(status, expected) << args;
    }
}

// rrsim and rrlint check the same machine: an operand the default
// w = 5 machine traps on is a lint error too, and widening the field
// clears both (docs/LINT.md, operand-too-wide).
TEST(CliToolGeometry, RrsimAndRrlintAgreeOnOperandWidth)
{
    const std::filesystem::path source =
        workDir("geometry") / "wide_operand.s";
    std::ofstream(source) << "entry: addi r40, r0, 1\nhalt\n";
    const std::string file = " " + shellQuote(source.string());
    const std::string rrsim = shellQuote(RR_RRSIM) + " --quiet";
    const std::string rrlint = shellQuote(RR_RRLINT);

    int status = 0;
    runTool(rrsim + file, status);
    EXPECT_EQ(status, kExitProblems);
    const std::string report = runTool(rrlint + file, status);
    EXPECT_EQ(status, kExitProblems);
    EXPECT_NE(report.find("error: [operand-too-wide] addi r40, r0, 1: "
                          "rd r40 does not fit the 5-bit operand field"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("(addr 0)"), std::string::npos) << report;

    for (const std::string &tool : {rrsim, rrlint + " --quiet"}) {
        runTool(tool + " --width 6" + file, status);
        EXPECT_EQ(status, kExitOk) << tool;
    }
}

} // namespace
} // namespace rr::tools
