/**
 * @file
 * Internal to rr::fuzz: the per-kind descriptor and the machinery
 * the kinds share.
 *
 * Every sample kind lives in one file, src/fuzz/kinds/<name>.cc,
 * which defines its generator, oracle, shrink ladder and repro codec
 * and exports them as one KindOps row. kind.cc keeps the rows in one
 * table indexed by SampleKind; every public entry point in fuzz.hh
 * that depends on the kind is a lookup into that table.
 */

#ifndef RR_FUZZ_KIND_HH
#define RR_FUZZ_KIND_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "fuzz/fuzz.hh"
#include "machine/relocation_unit.hh"

namespace rr::mt {
class SimulationSpec;
struct MtStats;
} // namespace rr::mt

namespace rr::fuzz {

// ---------------------------------------------------------------------
// generating

/** True with probability pct/100. */
inline bool
chance(Rng &rng, unsigned pct)
{
    return rng.nextRange(1, 100) <= pct;
}

/** Pick one element of a small list. */
template <typename T>
T
pick(Rng &rng, std::initializer_list<T> list)
{
    const auto *begin = list.begin();
    return begin[rng.nextRange(0, list.size() - 1)];
}

/** Largest b with 2^b <= v (0 for v < 2). */
inline unsigned
log2Floor(unsigned v)
{
    unsigned bits = 0;
    while ((2u << bits) <= v)
        ++bits;
    return bits;
}

// ---------------------------------------------------------------------
// shrinking

/** Oracle budget shared across one shrinkSample call. */
struct Budget
{
    unsigned used = 0;
    unsigned max = 0;

    bool spent() const { return used >= max; }
};

/** @return true when @p candidate still fails (and budget allows). */
bool fails(const AnySample &candidate, Budget &budget);

/**
 * The ddmin sweep: for chunk sizes n/2, n/4, ..., 1, call
 * @p attempt(at, chunk) at each chunk offset, starting the size over
 * after every accepted attempt (@p size() is re-read, since accepted
 * attempts may shorten the list).
 */
template <typename Size, typename Attempt>
void
sweepChunks(Budget &budget, const Size &size, const Attempt &attempt)
{
    for (size_t chunk = std::max<size_t>(size() / 2, 1); chunk >= 1;
         chunk /= 2) {
        bool any = true;
        while (any && !budget.spent()) {
            any = false;
            for (size_t at = 0; at + chunk <= size(); at += chunk) {
                if (attempt(at, chunk)) {
                    any = true;
                    break;
                }
                if (budget.spent())
                    break;
            }
        }
        if (chunk == 1)
            break;
    }
}

/**
 * Greedy ddmin over a list: delete chunks, keeping deletions that
 * preserve the failure. @p apply installs a candidate list into a
 * sample copy.
 */
template <typename Elem, typename Apply>
void
shrinkList(std::vector<Elem> &list, Budget &budget,
           const Apply &apply)
{
    sweepChunks(budget, [&] { return list.size(); },
                [&](size_t at, size_t chunk) {
                    std::vector<Elem> candidate(list.begin(),
                                                list.begin() + at);
                    candidate.insert(candidate.end(),
                                     list.begin() + at + chunk,
                                     list.end());
                    if (!fails(apply(candidate), budget))
                        return false;
                    list = std::move(candidate);
                    return true;
                });
}

/** Apply @p edit to a copy of @p sample; keep it if it still fails. */
template <typename Sample, typename Edit>
bool
tryEdit(Sample &sample, Budget &budget, const Edit &edit)
{
    Sample candidate = sample;
    edit(candidate);
    if (!fails(AnySample{candidate}, budget))
        return false;
    sample = std::move(candidate);
    return true;
}

/**
 * Scalar ladder: try each of @p values (simplest first) for the
 * field @p field selects (a member pointer, or a callable returning
 * a reference); keep the first one that preserves the failure.
 */
template <typename Sample, typename Select, typename T>
void
shrinkScalar(Sample &sample, Select field,
             std::initializer_list<T> values, Budget &budget)
{
    for (const T v : values) {
        if (std::invoke(field, sample) == v)
            continue;
        if (tryEdit(sample, budget,
                    [&](Sample &c) { std::invoke(field, c) = v; }) ||
            budget.spent())
            return;
    }
}

// ---------------------------------------------------------------------
// repro codec
//
// Repro files come from disk and may be hand-edited (or hostile); a
// value outside the generator's domain must be a parse error (replay
// exit 2), not an rr_assert abort or a multi-hour simulation deep
// inside the checked subsystem.

/** One `<key> <rest>` repro line, split at the first space. */
struct Line
{
    std::string key;
    std::string rest;
};

/** @return true, or false with "<what> out of range" in @p error. */
bool inRange(uint64_t v, uint64_t lo, uint64_t hi, const char *what,
             std::string &error);

/** As inRange(), and @p v must also be finite. */
bool finiteIn(double v, double lo, double hi, const char *what,
              std::string &error);

bool pow2(uint64_t v);

/** Strict decimal/0x u64 that must also be <= @p max. */
bool parseU64(const std::string &text, uint64_t max, uint64_t &out);

bool parseDouble(const std::string &text, double &out);

/** Deterministic escape: \\, \n, \r, \t, \xHH outside printable ASCII. */
std::string escapeText(const std::string &text);
bool unescapeText(const std::string &in, std::string &out);

/** %.17g: round-trips every IEEE double exactly. */
std::string fmtDouble(double v);

std::vector<std::string> splitWords(const std::string &text);

/**
 * One scalar repro line: `key` names `member`, whose values must lie
 * in [lo, hi] (doubles: finite and in [dlo, dhi]; text: at most hi
 * bytes). Integers print in decimal, bools as 0/1, doubles with
 * fmtDouble() and text through escapeText().
 */
template <typename S>
struct Field
{
    using Member = std::variant<bool S::*, uint8_t S::*, unsigned S::*,
                                uint64_t S::*, double S::*,
                                std::string S::*>;

    const char *key;
    Member member;
    uint64_t lo = 0;
    uint64_t hi = 0;
    double dlo = 0;
    double dhi = 0;

    /** Integer or bool field; the domain never exceeds the type. */
    template <typename T>
        requires std::is_integral_v<T>
    constexpr Field(const char *k, T S::*m, uint64_t l = 0,
                    uint64_t h = std::numeric_limits<T>::max())
        : key(k), member(m), lo(l),
          hi(std::min<uint64_t>(h, std::numeric_limits<T>::max()))
    {
    }

    constexpr Field(const char *k, double S::*m, double l, double h)
        : key(k), member(m), dlo(l), dhi(h)
    {
    }

    constexpr Field(const char *k, std::string S::*m, uint64_t maxLen)
        : key(k), member(m), hi(maxLen)
    {
    }
};

template <typename S>
void
writeFields(std::span<const Field<std::type_identity_t<S>>> fields,
            const S &s, std::string &out)
{
    for (const Field<S> &f : fields) {
        out += f.key;
        out += ' ';
        std::visit(
            [&](auto member) {
                using T = std::remove_cvref_t<decltype(s.*member)>;
                const T &v = s.*member;
                if constexpr (std::is_same_v<T, bool>)
                    out += v ? '1' : '0';
                else if constexpr (std::is_same_v<T, double>)
                    out += fmtDouble(v);
                else if constexpr (std::is_same_v<T, std::string>)
                    out += escapeText(v);
                else
                    out += std::to_string(uint64_t{v});
            },
            f.member);
        out += '\n';
    }
}

/** @return the field of @p fields named @p key, or nullptr. */
template <typename Fields>
auto
findField(const Fields &fields, const std::string &key)
    -> decltype(&*std::begin(fields))
{
    for (const auto &f : fields) {
        if (key == f.key)
            return &f;
    }
    return nullptr;
}

/**
 * Parse @p rest into the field @p f of @p s. @return false on a bad
 * value; @p error is set only when the value is well formed but
 * outside the field's domain (checked before narrowing).
 */
template <typename S>
bool
readField(const Field<S> &f, const std::string &rest, S &s,
          std::string &error)
{
    return std::visit(
        [&](auto member) {
            using T = std::remove_cvref_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<T, std::string>) {
                if (!unescapeText(rest, s.*member))
                    return false;
                if ((s.*member).size() <= f.hi)
                    return true;
                error = std::string(f.key) + " too long";
                return false;
            } else if constexpr (std::is_same_v<T, double>) {
                double v = 0;
                if (!parseDouble(rest, v) ||
                    !finiteIn(v, f.dlo, f.dhi, f.key, error))
                    return false;
                s.*member = v;
                return true;
            } else {
                uint64_t v = 0;
                if (!parseU64(rest, ~0ull, v) ||
                    !inRange(v, f.lo, f.hi, f.key, error))
                    return false;
                s.*member = static_cast<T>(v);
                return true;
            }
        },
        f.member);
}

/**
 * A kind's repro codec: the scalar fields (written first, in key
 * order), then optional repeated lines, then the cross-field rules.
 */
template <typename S>
struct Codec
{
    std::span<const Field<S>> fields;

    /** Append the repeated (non-scalar) lines. */
    void (*writeLines)(const S &s, std::string &out) = nullptr;

    /** Parse one line whose key is not a scalar field. */
    bool (*readLine)(const Line &line, S &s,
                     std::string &error) = nullptr;

    /** Cross-field rules, run once every line has been read. */
    bool (*validate)(const S &s, std::string &error) = nullptr;
};

template <typename S>
void
writeSample(const Codec<S> &codec, const S &s, std::string &out)
{
    writeFields(codec.fields, s, out);
    if (codec.writeLines)
        codec.writeLines(s, out);
}

template <typename S>
bool
readSample(const Codec<S> &codec, const std::vector<Line> &lines,
           S &s, std::string &error)
{
    for (const Line &line : lines) {
        std::string why;
        const Field<S> *f = findField(codec.fields, line.key);
        const bool ok = f ? readField(*f, line.rest, s, why)
                          : codec.readLine &&
                                codec.readLine(line, s, why);
        if (!ok) {
            error = why.empty() ? "bad or unknown field: " + line.key
                                : why;
            return false;
        }
    }
    return !codec.validate || codec.validate(s, error);
}

// ---------------------------------------------------------------------
// the descriptor

/** One kind's row in the table, with the sample type erased. */
struct KindOps
{
    /** Repro `kind` tag, corpus filename prefix and --kind value. */
    const char *name;
    AnySample (*generate)(Rng &rng);
    Problems (*check)(const AnySample &sample);
    /** Shrink a failing sample in place within @p budget. */
    void (*shrink)(AnySample &sample, Budget &budget);
    void (*write)(const AnySample &sample, std::string &out);
    bool (*read)(const std::vector<Line> &lines, AnySample &out,
                 std::string &error);
};

/**
 * The table row named @p name for a kind's typed generator, oracle,
 * in-place shrinker and codec.
 */
template <auto Generate, auto Check, auto Shrink, const auto &Codec>
constexpr KindOps
kindOps(const char *name)
{
    using S = decltype(Generate(std::declval<Rng &>()));
    return {
        name,
        [](Rng &rng) -> AnySample { return Generate(rng); },
        [](const AnySample &sample) {
            return Check(std::get<S>(sample));
        },
        [](AnySample &sample, Budget &budget) {
            Shrink(std::get<S>(sample), budget);
        },
        [](const AnySample &sample, std::string &out) {
            writeSample(Codec, std::get<S>(sample), out);
        },
        [](const std::vector<Line> &lines, AnySample &out,
           std::string &error) {
            S s;
            if (!readSample(Codec, lines, s, error))
                return false;
            out = std::move(s);
            return true;
        },
    };
}

/** The rows, one per kinds/<name>.cc, in SampleKind order. */
extern const KindOps relocKind, heapKind, jsonKind, numKind, phaseKind,
    programKind, mtKind, xsimKind, callgraphKind, ckptKind;

// ---------------------------------------------------------------------
// shared between kinds

/**
 * reloc + program: the machine geometry named by a sample's numRegs,
 * operandWidth, banks and mode fields (the repro codec pins those).
 */
template <typename Sample>
machine::Geometry
geometryOf(const Sample &s)
{
    return {s.numRegs, s.operandWidth, s.banks,
            static_cast<machine::RelocationMode>(s.mode)};
}

/** mt + ckpt: a ckpt sample embeds an mt spec (kinds/mt.cc). */
MtSample genMt(Rng &rng);
std::span<const Field<MtSample>> mtFields();
mt::SimulationSpec specOf(const MtSample &s);
void compareStats(const mt::MtStats &a, const mt::MtStats &b,
                  Problems &problems);

} // namespace rr::fuzz

#endif // RR_FUZZ_KIND_HH
