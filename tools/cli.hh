/**
 * @file
 * Shared command-line option parser for the RRISC tools (rrasm,
 * rrsim, rrlint, rrbench). One registration API, one parsing loop,
 * one set of machine-geometry flags (GeometryFlags), and one
 * convention — docs/TOOLS.md is the single reference:
 *
 *   exit 0   success
 *   exit 1   problems found in the input (assembly errors, lint
 *            findings, simulator traps, benchmark regressions)
 *   exit 2   operational failure (unreadable or unwritable files,
 *            invalid result documents, failed audits)
 *   exit 64  usage errors (unknown options, malformed numbers,
 *            missing or unexpected arguments)
 *
 * Every tool accepts `--name value` and `--name=value` spellings,
 * plus the uniform `--help`, `--version`, `--quiet`, and (where it
 * has a machine-readable form) `--json`. Numeric options reuse the
 * strict whole-string parser from arg_num.hh, so `--steps banana` is
 * a usage error, never a silent zero.
 */

#ifndef RR_TOOLS_CLI_HH
#define RR_TOOLS_CLI_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "arg_num.hh"
#include "machine/relocation_unit.hh"

namespace rr::tools {

/** One version string for the whole tool suite. */
inline constexpr const char *kToolsVersion = "0.3.0";

/** The uniform exit codes (documented in docs/TOOLS.md). */
inline constexpr int kExitOk = 0;
inline constexpr int kExitProblems = 1;
inline constexpr int kExitFailure = 2;
inline constexpr int kExitUsage = 64;

/**
 * Declarative option parser.
 *
 * Register options against output locations, then call parse().
 * parse() returns a negative value when the program should continue,
 * or a ready exit status (0 after --help/--version, 64 on usage
 * errors). Positional arguments are collected for the caller to
 * validate — see positionals().
 */
class OptionParser
{
  public:
    /**
     * @param tool  the program name used in messages ("rrsim")
     * @param usage full usage text, printed by --help and after
     *              usage errors
     */
    OptionParser(std::string tool, std::string usage)
        : tool_(std::move(tool)), usage_(std::move(usage))
    {
    }

    /** `--name` sets @p out to true; a `=value` form is rejected. */
    void
    flag(const std::string &name, bool *out)
    {
        specs_.push_back({name, Kind::Flag, out, nullptr, nullptr,
                          nullptr, nullptr, 0, 0, {}});
    }

    /** `--name V` / `--name=V` stores V into @p out. */
    void
    value(const std::string &name, std::string *out,
          bool *seen = nullptr)
    {
        specs_.push_back({name, Kind::Value, seen, out, nullptr,
                          nullptr, nullptr, 0, 0, {}});
    }

    /** Repeatable `--name V`: every occurrence appends to @p out. */
    void
    repeated(const std::string &name, std::vector<std::string> *out)
    {
        specs_.push_back({name, Kind::Repeated, nullptr, nullptr, out,
                          nullptr, nullptr, 0, 0, {}});
    }

    /**
     * Strict unsigned option: whole-string numeric in
     * [@p min, @p max], else a usage error.
     */
    void
    number(const std::string &name, uint64_t *out, uint64_t min,
           uint64_t max, bool *seen = nullptr)
    {
        specs_.push_back({name, Kind::Number, seen, nullptr, nullptr,
                          out, nullptr, min, max, {}});
    }

    /** Non-negative real option (for tolerances). */
    void
    real(const std::string &name, double *out)
    {
        specs_.push_back({name, Kind::Real, nullptr, nullptr, nullptr,
                          nullptr, out, 0, 0, {}});
    }

    /**
     * `--name` alone sets @p out_flag; `--name=V` additionally
     * stores V (rrsim's `--trace` vs `--trace=FILE`).
     */
    void
    flagOrValue(const std::string &name, bool *out_flag,
                std::string *out_value)
    {
        specs_.push_back({name, Kind::FlagOrValue, out_flag, out_value,
                          nullptr, nullptr, nullptr, 0, 0, {}});
    }

    /** String option restricted to an enumerated set. */
    void
    choice(const std::string &name, std::string *out,
           std::vector<std::string> allowed)
    {
        specs_.push_back({name, Kind::Choice, nullptr, out, nullptr,
                          nullptr, nullptr, 0, 0, std::move(allowed)});
    }

    /**
     * Print "tool: message" and the usage text to stderr.
     * @return kExitUsage, so callers can `return parser.fail(...)`.
     */
    int
    fail(const char *format, ...) const
    {
        std::va_list args;
        va_start(args, format);
        std::fprintf(stderr, "%s: ", tool_.c_str());
        std::vfprintf(stderr, format, args);
        std::fputc('\n', stderr);
        va_end(args);
        std::fputs(usage_.c_str(), stderr);
        return kExitUsage;
    }

    /**
     * Parse the command line.
     * @return a negative value to continue, or the exit status the
     *         program should return immediately.
     */
    int
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::fputs(usage_.c_str(), stdout);
                return kExitOk;
            }
            if (arg == "--version") {
                std::printf("%s (rr-tools) %s\n", tool_.c_str(),
                            kToolsVersion);
                return kExitOk;
            }

            std::string name = arg;
            std::string inline_value;
            bool has_inline = false;
            if (arg.size() > 1 && arg[0] == '-') {
                const std::size_t eq = arg.find('=');
                if (eq != std::string::npos) {
                    name = arg.substr(0, eq);
                    inline_value = arg.substr(eq + 1);
                    has_inline = true;
                }
            }

            Spec *spec = find(name);
            if (spec == nullptr) {
                if (arg.size() > 1 && arg[0] == '-')
                    return fail("unknown option '%s'", arg.c_str());
                positionals_.push_back(arg);
                continue;
            }

            auto take = [&]() -> const char * {
                if (has_inline)
                    return inline_value.c_str();
                return i + 1 < argc ? argv[++i] : nullptr;
            };

            switch (spec->kind) {
            case Kind::Flag:
                if (has_inline)
                    return fail("option '%s' does not take a value",
                                name.c_str());
                *spec->flag_out = true;
                break;
            case Kind::FlagOrValue:
                *spec->flag_out = true;
                if (has_inline)
                    *spec->string_out = inline_value;
                break;
            case Kind::Value:
            case Kind::Choice: {
                const char *text = take();
                if (text == nullptr)
                    return fail("%s expects a value", name.c_str());
                if (spec->kind == Kind::Choice &&
                    !allowedChoice(*spec, text)) {
                    return fail("%s expects one of %s, got '%s'",
                                name.c_str(),
                                choiceList(*spec).c_str(), text);
                }
                *spec->string_out = text;
                if (spec->flag_out != nullptr)
                    *spec->flag_out = true; // `seen` marker
                break;
            }
            case Kind::Repeated: {
                const char *text = take();
                if (text == nullptr)
                    return fail("%s expects a value", name.c_str());
                spec->list_out->push_back(text);
                break;
            }
            case Kind::Number: {
                const char *text = take();
                uint64_t parsed = 0;
                if (text == nullptr)
                    return fail("%s expects a value", name.c_str());
                if (!parseUnsigned(text, parsed, spec->max) ||
                    parsed < spec->min) {
                    return fail("%s expects an unsigned number in "
                                "[%llu, %llu], got '%s'",
                                name.c_str(),
                                static_cast<unsigned long long>(
                                    spec->min),
                                static_cast<unsigned long long>(
                                    spec->max),
                                text);
                }
                *spec->number_out = parsed;
                if (spec->flag_out != nullptr)
                    *spec->flag_out = true; // `seen` marker
                break;
            }
            case Kind::Real: {
                const char *text = take();
                char *end = nullptr;
                const double parsed =
                    text != nullptr ? std::strtod(text, &end) : 0.0;
                if (text == nullptr || end == text || *end != '\0' ||
                    parsed < 0.0) {
                    return fail("%s expects a non-negative number",
                                name.c_str());
                }
                *spec->real_out = parsed;
                break;
            }
            }
        }
        return -1; // continue
    }

    const std::vector<std::string> &
    positionals() const
    {
        return positionals_;
    }

    const std::string &tool() const { return tool_; }

  private:
    enum class Kind
    {
        Flag,
        FlagOrValue,
        Value,
        Repeated,
        Number,
        Real,
        Choice,
    };

    struct Spec
    {
        std::string name;
        Kind kind;
        bool *flag_out;   ///< flag target, or `seen` marker
        std::string *string_out;
        std::vector<std::string> *list_out;
        uint64_t *number_out;
        double *real_out;
        uint64_t min;
        uint64_t max;
        std::vector<std::string> allowed;
    };

    Spec *
    find(const std::string &name)
    {
        for (Spec &spec : specs_) {
            if (spec.name == name)
                return &spec;
        }
        return nullptr;
    }

    static bool
    allowedChoice(const Spec &spec, const std::string &text)
    {
        for (const std::string &candidate : spec.allowed) {
            if (candidate == text)
                return true;
        }
        return false;
    }

    static std::string
    choiceList(const Spec &spec)
    {
        std::string list;
        for (const std::string &candidate : spec.allowed) {
            if (!list.empty())
                list += "|";
            list += candidate;
        }
        return list;
    }

    std::string tool_;
    std::string usage_;
    std::vector<Spec> specs_;
    std::vector<std::string> positionals_;
};

/**
 * The machine-geometry flags rrsim and rrlint share: `--width W`
 * (1-6), `--banks B` (1-64) and `--mode or|mux|add`. The constructor
 * registers them with a parser; after parse(), apply() writes the
 * given ones into a machine::Geometry and validates the result.
 */
class GeometryFlags
{
  public:
    explicit GeometryFlags(OptionParser &parser)
    {
        parser.number("--width", &width_, 1, 6, &widthSeen_);
        parser.number("--banks", &banks_, 1, 64, &banksSeen_);
        parser.choice("--mode", &mode_, {"or", "mux", "add"});
    }

    // The parser holds pointers into this object.
    GeometryFlags(const GeometryFlags &) = delete;
    GeometryFlags &operator=(const GeometryFlags &) = delete;

    /** @return true when any of the three flags was given. */
    bool
    seen() const
    {
        return widthSeen_ || banksSeen_ || !mode_.empty();
    }

    /**
     * Overwrite the fields of @p geometry that were given.
     * @return geometry.error(): "" when the result is a valid machine
     */
    std::string
    apply(machine::Geometry &geometry) const
    {
        if (widthSeen_)
            geometry.operandWidth = static_cast<unsigned>(width_);
        if (banksSeen_)
            geometry.banks = static_cast<unsigned>(banks_);
        if (mode_ == "or")
            geometry.mode = machine::RelocationMode::Or;
        else if (mode_ == "mux")
            geometry.mode = machine::RelocationMode::Mux;
        else if (mode_ == "add")
            geometry.mode = machine::RelocationMode::Add;
        return geometry.error();
    }

  private:
    uint64_t width_ = 0;
    bool widthSeen_ = false;
    uint64_t banks_ = 0;
    bool banksSeen_ = false;
    std::string mode_;
};

} // namespace rr::tools

#endif // RR_TOOLS_CLI_HH
