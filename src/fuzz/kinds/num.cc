/**
 * @file
 * The `num` fuzz kind: strict CLI numeric parsing (parseUnsigned) vs
 * its documented grammar.
 */

#include "fuzz/kind.hh"

#include "base/parse_num.hh"
#include "exp/report.hh"

namespace rr::fuzz {

namespace {

NumSample
genNum(Rng &rng)
{
    static const char *const kSpecials[] = {
        "0",
        "18446744073709551615",  // UINT64_MAX
        "18446744073709551616",  // UINT64_MAX + 1
        "0xffffffffffffffff",
        "0x10000000000000000",
        "9223372036854775807",   // INT64_MAX
        "9223372036854775808",
        "0x8000000000000000",    // INT64_MIN magnitude
        "-9223372036854775808",  // INT64_MIN (signed: must reject)
        "+5",
        " 5",
        "5 ",
        "\t5",
        "05",
        "010",
        "0x",
        "0X1",
        "x1",
        "",
        "-1",
        "1e3",
        "0b101",
        "1_000",
    };
    NumSample s;
    if (chance(rng, 35)) {
        s.text = kSpecials[rng.nextRange(
            0, std::size(kSpecials) - 1)];
    } else {
        static const char kAlphabet[] = "0123456789abcdefxX+- \t";
        const uint64_t len = rng.nextRange(1, 20);
        for (uint64_t i = 0; i < len; ++i)
            s.text += kAlphabet[rng.nextRange(
                0, std::size(kAlphabet) - 2)];
    }
    switch (rng.nextRange(0, 3)) {
      case 0: s.max = ~0ull; break;
      case 1: s.max = 0x7fffffffffffffffull; break;
      case 2: s.max = 1u << 20; break;
      default: s.max = 1000; break;
    }
    return s;
}

/**
 * The documented strict grammar (docs/TOOLS.md): `[0-9]+` or
 * `0[xX][0-9a-fA-F]+`, nothing else — no sign, no whitespace, no
 * octal reinterpretation ("010" is decimal ten), value <= max.
 */
bool
strictReference(const std::string &text, uint64_t max, uint64_t &out)
{
    size_t i = 0;
    unsigned base = 10;
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        i = 2;
    }
    if (i >= text.size())
        return false;
    uint64_t value = 0;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A') + 10;
        else
            return false;
        if (value > (~0ull - digit) / base)
            return false; // overflow
        value = value * base + digit;
    }
    if (value > max)
        return false;
    out = value;
    return true;
}

Problems
checkNum(const NumSample &s)
{
    Problems problems;
    uint64_t got = 0;
    const bool accepted =
        rr::parseUnsigned(s.text.c_str(), got, s.max);
    uint64_t want = 0;
    const bool grammar = strictReference(s.text, s.max, want);

    if (accepted && !grammar) {
        problems.push_back(exp::strf(
            "num: parseUnsigned accepted \"%s\" (=%llu) which is "
            "outside the documented strict grammar",
            s.text.c_str(), static_cast<unsigned long long>(got)));
    } else if (!accepted && grammar) {
        problems.push_back(exp::strf(
            "num: parseUnsigned rejected \"%s\" which the "
            "documented grammar accepts as %llu",
            s.text.c_str(), static_cast<unsigned long long>(want)));
    } else if (accepted && got != want) {
        problems.push_back(exp::strf(
            "num: parseUnsigned(\"%s\") = %llu but the documented "
            "grammar reads it as %llu",
            s.text.c_str(), static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(want)));
    }
    return problems;
}

void
shrinkNum(NumSample &s, Budget &budget)
{
    std::vector<char> bytes(s.text.begin(), s.text.end());
    shrinkList(bytes, budget, [&](const std::vector<char> &b) {
        NumSample candidate = s;
        candidate.text.assign(b.begin(), b.end());
        return AnySample{candidate};
    });
    s.text.assign(bytes.begin(), bytes.end());
    shrinkScalar(s, &NumSample::max, {uint64_t{0} - 1}, budget);
}

constexpr Field<NumSample> kFields[] = {
    {"text", &NumSample::text, 1u << 20},
    {"max", &NumSample::max},
};

constexpr Codec<NumSample> kCodec{kFields};

} // namespace

constinit const KindOps numKind =
    kindOps<genNum, checkNum, shrinkNum, kCodec>("num");

} // namespace rr::fuzz
