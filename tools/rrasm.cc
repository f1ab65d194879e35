/**
 * @file
 * rrasm — the RRISC assembler as a command-line tool.
 *
 * Usage:
 *   rrasm [options] input.s
 *     -o FILE       write the image as hex words, one per line
 *     -l            print a listing (address, word, disassembly)
 *     --json        emit a machine-readable summary on stdout
 *     --quiet       suppress the listing and symbol output
 *
 * The Section 2.4 context-boundary check is `rrlint --context N`.
 *
 * Exit status (docs/TOOLS.md): 0 on success, 1 on assembly errors,
 * 2 when files cannot be read or written, 64 on usage errors.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "exp/json_out.hh"
#include "isa/instruction.hh"
#include "cli.hh"

namespace {

const char *const kUsage =
    "usage: rrasm [-o out.hex] [-l] [--json] [--quiet] input.s\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace rr::tools;

    std::string output;
    bool listing = false;
    bool json = false;
    bool quiet = false;

    OptionParser parser("rrasm", kUsage);
    parser.value("-o", &output);
    parser.flag("-l", &listing);
    parser.flag("--json", &json);
    parser.flag("--quiet", &quiet);
    const int parse_status = parser.parse(argc, argv);
    if (parse_status >= 0)
        return parse_status;
    if (parser.positionals().size() != 1) {
        return parser.positionals().empty()
                   ? parser.fail("expects one input file")
                   : parser.fail("unexpected argument '%s'",
                                 parser.positionals()[1].c_str());
    }
    const std::string input = parser.positionals().front();

    std::ifstream in(input);
    if (!in) {
        std::fprintf(stderr, "rrasm: cannot open '%s'\n",
                     input.c_str());
        return kExitFailure;
    }
    std::ostringstream source;
    source << in.rdbuf();

    const rr::assembler::Program program =
        rr::assembler::assemble(source.str());
    if (!program.ok()) {
        if (json) {
            rr::exp::JsonWriter w;
            w.beginObject();
            w.member("schema", "rr.rrasm.v1");
            w.member("input", input);
            w.member("ok", false);
            w.key("errors");
            w.beginArray();
            for (const auto &error : program.errors)
                w.value(error.str());
            w.endArray();
            w.endObject();
            std::puts(w.str().c_str());
        }
        for (const auto &error : program.errors) {
            std::fprintf(stderr, "%s: %s\n", input.c_str(),
                         error.str().c_str());
        }
        return kExitProblems;
    }

    if (listing && !quiet) {
        for (size_t i = 0; i < program.words.size(); ++i) {
            const uint32_t addr =
                program.base + static_cast<uint32_t>(i);
            std::printf("%6u  %08x  %s\n", addr, program.words[i],
                        rr::isa::disassemble(program.words[i])
                            .c_str());
        }
        if (!program.symbols.empty()) {
            std::printf("\nsymbols:\n");
            for (const auto &[name, addr] : program.symbols)
                std::printf("  %6u  %s\n", addr, name.c_str());
        }
    }

    if (!output.empty()) {
        std::ofstream out(output);
        if (!out) {
            std::fprintf(stderr, "rrasm: cannot write '%s'\n",
                         output.c_str());
            return kExitFailure;
        }
        for (const uint32_t word : program.words) {
            char buffer[16];
            std::snprintf(buffer, sizeof(buffer), "%08x\n", word);
            out << buffer;
        }
    }

    if (json) {
        rr::exp::JsonWriter w;
        w.beginObject();
        w.member("schema", "rr.rrasm.v1");
        w.member("input", input);
        w.member("ok", true);
        w.member("words", program.words.size());
        w.member("base", program.base);
        w.endObject();
        std::puts(w.str().c_str());
    }
    return kExitOk;
}
