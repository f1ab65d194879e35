/**
 * @file
 * rrlint — CFG + dataflow static analysis for RRISC images (the
 * grown-up version of the Section 2.4 checking tool).
 *
 * Usage:
 *   rrlint [options] input.s [input2.s ...]
 *     --context N   also run the Section 2.4 flat check against a
 *                   declared context of N <= 2^w registers
 *     --delay D     LDRRM delay slots (default 1)
 *     --rrm MASK    initial relocation mask at entry (default 0)
 *     --width W     operand field width w (default 5)
 *     --banks B     RRM banks (default 1; Section 5.3 extension)
 *     --mode M      relocation mode: or | mux | add (default or)
 *     --flag-data   treat undecodable words as findings
 *     --no-flow     disable the CFG/dataflow passes (flat check only)
 *     --calls       interprocedural analysis: call graph, procedure
 *                   summaries, cross-call hazards with call paths
 *     --races       lockset race detection over `.thread` roots and
 *                   `.lockdef` annotations
 *     --all         shorthand for --calls --races
 *     --strict      notes also fail the lint (warnings-as-errors for
 *                   every new finding class; used by lint-examples)
 *     --json        emit one `rr.lint.v1` document covering every
 *                   input file (docs/LINT.md documents the schema)
 *     --quiet       suppress the reports (exit status only)
 *
 *   rrlint --validate doc.json [doc2.json ...]
 *     structurally validate `rr.lint.v1` documents produced by
 *     --json (the lint-schema CI step)
 *
 * Output reports, per discovered context window (constant RRM value),
 * the registers referenced, the minimal viable power-of-two context
 * size, and the registers that must be live when the context is
 * entered — plus findings for operands too wide for the machine
 * (the same Geometry rrsim runs), boundary violations, RRM-overlap
 * escapes, delay-slot hazards, cross-context writes, and (in the
 * interprocedural modes) cross-call hazards and races.
 *
 * Exit status (docs/TOOLS.md): 0 clean, 1 on assembly errors or
 * findings in *any* input, 2 when an input cannot be read or a
 * --validate document is invalid, 64 on usage errors. Multiple
 * inputs: the worst status across all files wins; later files are
 * still processed.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static/lint.hh"
#include "assembler/assembler.hh"
#include "cli.hh"
#include "exp/json_in.hh"

namespace {

const char *const kUsage =
    "usage: rrlint [--context N] [--delay D] [--rrm MASK] [--banks B]"
    " [--width W]\n"
    "              [--mode or|mux|add] [--flag-data] [--no-flow]\n"
    "              [--calls] [--races] [--all] [--strict]"
    " [--json] [--quiet]\n"
    "              input.s...\n"
    "       rrlint --validate doc.json...\n";

/** Read @p path fully; false when it cannot be opened. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

// ---- rr.lint.v1 structural validation ------------------------------

/** Collects schema violations for one document. */
struct Validator
{
    std::vector<std::string> problems;

    void
    fail(const std::string &where, const std::string &what)
    {
        problems.push_back(where + ": " + what);
    }

    bool
    requireNumber(const rr::exp::JsonValue &obj,
                  const std::string &where, const char *key)
    {
        const rr::exp::JsonValue *v = obj.find(key);
        if (v == nullptr || !v->isNumber()) {
            fail(where, std::string("missing number '") + key + "'");
            return false;
        }
        return true;
    }

    bool
    requireString(const rr::exp::JsonValue &obj,
                  const std::string &where, const char *key)
    {
        const rr::exp::JsonValue *v = obj.find(key);
        if (v == nullptr || !v->isString()) {
            fail(where, std::string("missing string '") + key + "'");
            return false;
        }
        return true;
    }

    const rr::exp::JsonValue *
    requireArray(const rr::exp::JsonValue &obj,
                 const std::string &where, const char *key)
    {
        const rr::exp::JsonValue *v = obj.find(key);
        if (v == nullptr || !v->isArray()) {
            fail(where, std::string("missing array '") + key + "'");
            return nullptr;
        }
        return v;
    }

    void
    checkFinding(const rr::exp::JsonValue &f, const std::string &where)
    {
        if (!f.isObject()) {
            fail(where, "finding is not an object");
            return;
        }
        requireString(f, where, "code");
        requireNumber(f, where, "address");
        requireNumber(f, where, "line");
        requireString(f, where, "message");
        const std::string severity = f.stringOr("severity", "");
        if (severity != "error" && severity != "warning" &&
            severity != "note") {
            fail(where, "severity must be error|warning|note");
        }
        if (const rr::exp::JsonValue *path = f.find("path")) {
            if (!path->isArray()) {
                fail(where, "'path' must be an array");
            } else {
                for (const rr::exp::JsonValue &hop : path->elements) {
                    if (!hop.isString())
                        fail(where, "'path' entries must be strings");
                }
            }
        }
    }

    void
    checkFile(const rr::exp::JsonValue &file, const std::string &where)
    {
        if (!file.isObject()) {
            fail(where, "file entry is not an object");
            return;
        }
        requireString(file, where, "file");
        const rr::exp::JsonValue *readable = file.find("readable");
        if (readable == nullptr || !readable->isBool())
            fail(where, "missing bool 'readable'");

        if (const rr::exp::JsonValue *findings =
                requireArray(file, where, "findings")) {
            for (size_t i = 0; i < findings->elements.size(); ++i) {
                checkFinding(findings->elements[i],
                             where + ".findings[" +
                                 std::to_string(i) + "]");
            }
        }
        if (const rr::exp::JsonValue *threads =
                requireArray(file, where, "threads")) {
            for (size_t i = 0; i < threads->elements.size(); ++i) {
                const std::string twhere =
                    where + ".threads[" + std::to_string(i) + "]";
                const rr::exp::JsonValue &t = threads->elements[i];
                if (!t.isObject()) {
                    fail(twhere, "thread entry is not an object");
                    continue;
                }
                requireNumber(t, twhere, "rrm");
                requireNumber(t, twhere, "registers");
                requireNumber(t, twhere, "min_context");
                requireArray(t, twhere, "footprint");
                requireArray(t, twhere, "live_in");
            }
        }
        if (const rr::exp::JsonValue *procs =
                requireArray(file, where, "procedures")) {
            for (size_t i = 0; i < procs->elements.size(); ++i) {
                const std::string pwhere =
                    where + ".procedures[" + std::to_string(i) + "]";
                const rr::exp::JsonValue &p = procs->elements[i];
                if (!p.isObject()) {
                    fail(pwhere, "procedure entry is not an object");
                    continue;
                }
                requireString(p, pwhere, "name");
                requireNumber(p, pwhere, "entry");
                requireNumber(p, pwhere, "registers");
                requireNumber(p, pwhere, "min_context");
                requireArray(p, pwhere, "call_path");
            }
        }
        if (const rr::exp::JsonValue *races =
                requireArray(file, where, "races")) {
            for (size_t i = 0; i < races->elements.size(); ++i) {
                const std::string rwhere =
                    where + ".races[" + std::to_string(i) + "]";
                const rr::exp::JsonValue &race = races->elements[i];
                if (!race.isObject()) {
                    fail(rwhere, "race entry is not an object");
                    continue;
                }
                requireNumber(race, rwhere, "mem");
                const rr::exp::JsonValue *sites =
                    requireArray(race, rwhere, "sites");
                if (sites == nullptr)
                    continue;
                if (sites->elements.size() != 2) {
                    fail(rwhere, "'sites' must hold exactly 2 sites");
                    continue;
                }
                for (size_t j = 0; j < 2; ++j) {
                    const std::string swhere =
                        rwhere + ".sites[" + std::to_string(j) + "]";
                    const rr::exp::JsonValue &site =
                        sites->elements[j];
                    if (!site.isObject()) {
                        fail(swhere, "site is not an object");
                        continue;
                    }
                    requireNumber(site, swhere, "address");
                    requireNumber(site, swhere, "line");
                    requireString(site, swhere, "thread");
                    requireArray(site, swhere, "locks");
                    const rr::exp::JsonValue *write =
                        site.find("write");
                    if (write == nullptr || !write->isBool())
                        fail(swhere, "missing bool 'write'");
                }
            }
        }
        const rr::exp::JsonValue *summary = file.find("summary");
        if (summary == nullptr || !summary->isObject()) {
            fail(where, "missing object 'summary'");
        } else {
            requireNumber(*summary, where + ".summary", "errors");
            requireNumber(*summary, where + ".summary", "warnings");
            requireNumber(*summary, where + ".summary", "notes");
        }
    }

    void
    checkDocument(const rr::exp::JsonValue &doc)
    {
        if (!doc.isObject()) {
            fail("$", "document is not an object");
            return;
        }
        if (doc.stringOr("schema", "") != "rr.lint.v1")
            fail("$", "'schema' must be \"rr.lint.v1\"");
        const rr::exp::JsonValue *tool = doc.find("tool");
        if (tool == nullptr || !tool->isObject()) {
            fail("$", "missing object 'tool'");
        } else {
            requireString(*tool, "$.tool", "name");
            requireString(*tool, "$.tool", "version");
        }
        if (const rr::exp::JsonValue *files =
                requireArray(doc, "$", "files")) {
            for (size_t i = 0; i < files->elements.size(); ++i) {
                checkFile(files->elements[i],
                          "$.files[" + std::to_string(i) + "]");
            }
        }
        const rr::exp::JsonValue *summary = doc.find("summary");
        if (summary == nullptr || !summary->isObject()) {
            fail("$", "missing object 'summary'");
        } else {
            requireNumber(*summary, "$.summary", "files");
            requireNumber(*summary, "$.summary", "errors");
            requireNumber(*summary, "$.summary", "warnings");
            requireNumber(*summary, "$.summary", "notes");
            requireNumber(*summary, "$.summary", "exit");
        }
    }
};

int
validateDocuments(const std::vector<std::string> &inputs, bool quiet)
{
    using namespace rr::tools;
    int status = kExitOk;
    for (const std::string &input : inputs) {
        std::string text;
        if (!readFile(input, text)) {
            std::fprintf(stderr, "rrlint: cannot open '%s'\n",
                         input.c_str());
            status = std::max(status, kExitFailure);
            continue;
        }
        std::string parse_error;
        const auto doc = rr::exp::parseJson(text, &parse_error);
        if (!doc) {
            std::fprintf(stderr, "rrlint: %s: %s\n", input.c_str(),
                         parse_error.c_str());
            status = std::max(status, kExitFailure);
            continue;
        }
        Validator validator;
        validator.checkDocument(*doc);
        if (!validator.problems.empty()) {
            for (const std::string &problem : validator.problems) {
                std::fprintf(stderr, "rrlint: %s: %s\n",
                             input.c_str(), problem.c_str());
            }
            status = std::max(status, kExitFailure);
            continue;
        }
        if (!quiet) {
            std::printf("%s: valid rr.lint.v1 document\n",
                        input.c_str());
        }
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rr::tools;

    rr::lint::LintOptions options;
    uint64_t context = 0;
    uint64_t delay = 0;
    bool delay_seen = false;
    uint64_t rrm = 0;
    bool flag_data = false;
    bool no_flow = false;
    bool calls = false;
    bool races = false;
    bool all = false;
    bool strict = false;
    bool validate = false;
    bool json = false;
    bool quiet = false;

    OptionParser parser("rrlint", kUsage);
    parser.number("--context", &context, 0, 64);
    parser.number("--delay", &delay, 0, 64, &delay_seen);
    parser.number("--rrm", &rrm, 0, 0xffffffffull);
    const GeometryFlags geometry_flags(parser);
    parser.flag("--flag-data", &flag_data);
    parser.flag("--no-flow", &no_flow);
    parser.flag("--calls", &calls);
    parser.flag("--races", &races);
    parser.flag("--all", &all);
    parser.flag("--strict", &strict);
    parser.flag("--validate", &validate);
    parser.flag("--json", &json);
    parser.flag("--quiet", &quiet);
    const int parse_status = parser.parse(argc, argv);
    if (parse_status >= 0)
        return parse_status;
    const std::vector<std::string> &inputs = parser.positionals();
    if (inputs.empty())
        return parser.fail("expects at least one input file");

    if (validate)
        return validateDocuments(inputs, quiet);

    const std::string geometry = geometry_flags.apply(options.geometry);
    if (!geometry.empty())
        return parser.fail("%s", geometry.c_str());
    // A context holds at most the 2^w registers an operand addresses.
    const unsigned max_context = 1u << options.geometry.operandWidth;
    if (context > max_context)
        return parser.fail("--context %llu exceeds the %u registers a "
                           "%u-bit operand addresses",
                           static_cast<unsigned long long>(context),
                           max_context, options.geometry.operandWidth);
    options.declaredContext = static_cast<unsigned>(context);
    if (delay_seen)
        options.delaySlots = static_cast<unsigned>(delay);
    options.initialRrm = static_cast<uint32_t>(rrm);
    if (flag_data)
        options.flagInvalidWords = true;
    if (no_flow)
        options.flowSensitive = false;
    if (calls || all)
        options.interprocedural = true;
    if (races || all)
        options.lockset = true;

    int status = kExitOk;
    std::vector<rr::lint::FileReport> reports;
    for (const std::string &input : inputs) {
        rr::lint::FileReport report;
        report.file = input;

        std::string source;
        if (!readFile(input, source)) {
            std::fprintf(stderr, "rrlint: cannot open '%s'\n",
                         input.c_str());
            report.readable = false;
            reports.push_back(std::move(report));
            status = std::max(status, kExitFailure);
            continue;
        }

        const rr::assembler::Program program =
            rr::assembler::assemble(source);
        if (!program.ok()) {
            for (const auto &error : program.errors) {
                std::fprintf(stderr, "%s: %s\n", input.c_str(),
                             error.str().c_str());
            }
            report.assemblyErrors = program.errors;
            reports.push_back(std::move(report));
            status = std::max(status, kExitProblems);
            continue;
        }

        report.result = rr::lint::lintProgram(program, options);
        if (!json && !quiet) {
            const std::string rendered =
                rr::lint::renderText(report.result, input);
            std::fputs(rendered.c_str(), stdout);
        }
        if (!report.result.clean() ||
            (strict && report.result.notes > 0)) {
            status = std::max(status, kExitProblems);
        }
        reports.push_back(std::move(report));
    }

    if (json && !quiet) {
        const std::string rendered = rr::lint::renderJsonDocument(
            reports, kToolsVersion, status);
        std::fputs(rendered.c_str(), stdout);
    }
    return status;
}
