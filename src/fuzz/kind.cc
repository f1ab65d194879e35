/**
 * @file
 * The kind table and the entry points that dispatch through it, the
 * `rrfuzz.repro.v1` line framing, and the helpers the kinds share.
 *
 * A repro file is line oriented and byte stable:
 *
 *     rrfuzz.repro.v1
 *     kind <name>
 *     <key> <value>...        # fixed order per kind
 *     end
 *
 * The framing (magic, kind line, comments, end) lives here; each
 * kind's codec reads and writes the lines in between. Arbitrary byte
 * strings (json/num samples) use escapeText(), so serialize/parse
 * are exact inverses and serializing twice yields identical bytes.
 */

#include "fuzz/kind.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

#include "base/logging.hh"
#include "base/parse_num.hh"

namespace rr::fuzz {

namespace {

/** Indexed by SampleKind. */
const KindOps *const kTable[] = {
    &relocKind,   &heapKind, &jsonKind, &numKind,       &phaseKind,
    &programKind, &mtKind,   &xsimKind, &callgraphKind, &ckptKind,
};

static_assert(std::size(kTable) == numSampleKinds &&
                  std::variant_size_v<AnySample> == numSampleKinds,
              "one KindOps row and one AnySample type per SampleKind");

const KindOps &
opsOf(SampleKind kind)
{
    const auto index = static_cast<unsigned>(kind);
    rr_assert(index < numSampleKinds, "bad sample kind ", index);
    return *kTable[index];
}

constexpr const char *kMagic = "rrfuzz.repro.v1";

} // namespace

const char *
kindName(SampleKind kind)
{
    const auto index = static_cast<unsigned>(kind);
    return index < numSampleKinds ? kTable[index]->name : "?";
}

bool
kindFromName(const std::string &name, SampleKind &out)
{
    for (unsigned i = 0; i < numSampleKinds; ++i) {
        if (name == kTable[i]->name) {
            out = static_cast<SampleKind>(i);
            return true;
        }
    }
    return false;
}

SampleKind
kindOf(const AnySample &sample)
{
    return static_cast<SampleKind>(sample.index());
}

AnySample
generateSample(SampleKind kind, Rng &rng)
{
    return opsOf(kind).generate(rng);
}

Problems
checkSample(const AnySample &sample)
{
    return opsOf(kindOf(sample)).check(sample);
}

bool
fails(const AnySample &candidate, Budget &budget)
{
    if (budget.spent())
        return false;
    ++budget.used;
    return !checkSample(candidate).empty();
}

AnySample
shrinkSample(const AnySample &sample, unsigned maxSteps,
             unsigned &stepsUsed)
{
    Budget budget{0, maxSteps};
    // Only shrink genuine failures; a passing sample is returned
    // unchanged (the caller should not have asked).
    AnySample result = sample;
    if (fails(sample, budget))
        opsOf(kindOf(sample)).shrink(result, budget);
    stepsUsed = budget.used;
    return result;
}

std::string
serializeRepro(const AnySample &sample)
{
    std::string out = kMagic;
    out += "\nkind ";
    out += kindName(kindOf(sample));
    out += '\n';
    opsOf(kindOf(sample)).write(sample, out);
    out += "end\n";
    return out;
}

bool
parseRepro(const std::string &text, AnySample &out, std::string &error)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);

    size_t at = 0;
    // Skip blank / comment lines before the magic (hand-edited files).
    while (at < lines.size() &&
           (lines[at].empty() || lines[at][0] == '#'))
        ++at;
    if (at >= lines.size() || lines[at] != kMagic) {
        error = "missing rrfuzz.repro.v1 header";
        return false;
    }
    ++at;

    SampleKind kind = SampleKind::Reloc;
    bool haveKind = false;
    std::vector<Line> fields;
    bool ended = false;
    for (; at < lines.size(); ++at) {
        const std::string &line = lines[at];
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "end") {
            ended = true;
            ++at;
            break;
        }
        const size_t space = line.find(' ');
        Line f;
        f.key = line.substr(0, space);
        f.rest = space == std::string::npos ? std::string()
                                            : line.substr(space + 1);
        if (f.key == "kind") {
            if (haveKind || !kindFromName(f.rest, kind)) {
                error = "bad kind line";
                return false;
            }
            haveKind = true;
            continue;
        }
        if (!haveKind) {
            error = "field before kind line";
            return false;
        }
        fields.push_back(std::move(f));
    }
    if (!ended) {
        error = "missing end line";
        return false;
    }
    for (; at < lines.size(); ++at) {
        if (!lines[at].empty() && lines[at][0] != '#') {
            error = "trailing garbage after end";
            return false;
        }
    }
    if (!haveKind) {
        error = "missing kind line";
        return false;
    }
    return opsOf(kind).read(fields, out, error);
}

// ---------------------------------------------------------------------
// shared helpers

bool
inRange(uint64_t v, uint64_t lo, uint64_t hi, const char *what,
        std::string &error)
{
    if (v >= lo && v <= hi)
        return true;
    error = std::string(what) + " out of range";
    return false;
}

bool
finiteIn(double v, double lo, double hi, const char *what,
         std::string &error)
{
    if (std::isfinite(v) && v >= lo && v <= hi)
        return true;
    error = std::string(what) + " out of range";
    return false;
}

bool
pow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

bool
parseU64(const std::string &text, uint64_t max, uint64_t &out)
{
    // The strict shared grammar: digits only, no sign/whitespace.
    return parseUnsigned(text.c_str(), out) && out <= max;
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

std::string
escapeText(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (u >= 0x20 && u < 0x7f) {
                out += c;
            } else {
                char buf[5];
                std::snprintf(buf, sizeof buf, "\\x%02x", u);
                out += buf;
            }
        }
    }
    return out;
}

bool
unescapeText(const std::string &in, std::string &out)
{
    out.clear();
    out.reserve(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] != '\\') {
            out += in[i];
            continue;
        }
        if (i + 1 >= in.size())
            return false;
        const char e = in[++i];
        switch (e) {
          case '\\':
            out += '\\';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'x': {
            if (i + 2 >= in.size())
                return false;
            const auto hex = [](char c) -> int {
                if (c >= '0' && c <= '9')
                    return c - '0';
                if (c >= 'a' && c <= 'f')
                    return c - 'a' + 10;
                return -1;
            };
            const int hi = hex(in[i + 1]);
            const int lo = hex(in[i + 2]);
            if (hi < 0 || lo < 0)
                return false;
            out += static_cast<char>(hi * 16 + lo);
            i += 2;
            break;
          }
          default:
            return false;
        }
    }
    return true;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::vector<std::string>
splitWords(const std::string &text)
{
    std::vector<std::string> words;
    std::istringstream in(text);
    std::string w;
    while (in >> w)
        words.push_back(w);
    return words;
}

} // namespace rr::fuzz
