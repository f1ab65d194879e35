/**
 * @file
 * The `json` fuzz kind: writer/parser round-trip properties over
 * adversarial JSON documents (exp::parseJson, exp::JsonWriter).
 */

#include "fuzz/kind.hh"

#include <cstdio>
#include <cstring>
#include <optional>

#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "exp/report.hh"

namespace rr::fuzz {

namespace {

/** Append a randomly adversarial JSON string literal (with quotes). */
void
appendJsonString(Rng &rng, std::string &out)
{
    out += '"';
    const uint64_t pieces = rng.nextRange(0, 6);
    for (uint64_t i = 0; i < pieces; ++i) {
        switch (rng.nextRange(0, 7)) {
          case 0: { // plain ASCII run
            const uint64_t len = rng.nextRange(1, 5);
            for (uint64_t j = 0; j < len; ++j)
                out += static_cast<char>('a' + rng.nextRange(0, 25));
            break;
          }
          case 1: // two-character escapes
            out += pick<const char *>(
                rng, {"\\n", "\\t", "\\r", "\\\\", "\\\"", "\\/",
                      "\\b", "\\f"});
            break;
          case 2: { // \uXXXX below the surrogate range
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(rng.nextRange(1, 0xd7ff)));
            out += buf;
            break;
          }
          case 3: { // surrogate pair (astral plane character)
            char buf[16];
            std::snprintf(
                buf, sizeof buf, "\\u%04x\\u%04x",
                static_cast<unsigned>(0xd800 + rng.nextRange(0, 0x3ff)),
                static_cast<unsigned>(0xdc00 + rng.nextRange(0, 0x3ff)));
            out += buf;
            break;
          }
          case 4: { // lone surrogate
            char buf[8];
            std::snprintf(
                buf, sizeof buf, "\\u%04x",
                static_cast<unsigned>(0xd800 + rng.nextRange(0, 0x7ff)));
            out += buf;
            break;
          }
          case 5: // raw control byte (the parser tolerates these)
            out += static_cast<char>(rng.nextRange(1, 0x1f));
            break;
          case 6: { // raw non-ASCII bytes (byte-transparent contract)
            const uint64_t len = rng.nextRange(1, 4);
            for (uint64_t j = 0; j < len; ++j)
                out += static_cast<char>(rng.nextRange(0x80, 0xff));
            break;
          }
          case 7: // NUL via escape
            out += "\\u0000";
            break;
        }
    }
    out += '"';
}

void
appendJsonValue(Rng &rng, std::string &out, unsigned depth)
{
    const uint64_t roll = rng.nextRange(0, depth >= 4 ? 4 : 6);
    switch (roll) {
      case 0:
        out += pick<const char *>(rng, {"null", "true", "false"});
        break;
      case 1: { // integer
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(rng.next()) >>
                          rng.nextRange(0, 40));
        out += buf;
        break;
      }
      case 2: { // decimal / exponent forms
        char buf[48];
        switch (rng.nextRange(0, 2)) {
          case 0:
            std::snprintf(buf, sizeof buf, "%llu.%llu",
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 1000)),
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 999999)));
            break;
          case 1:
            std::snprintf(buf, sizeof buf, "-%llu.%llue%d",
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 999)),
                          static_cast<unsigned long long>(
                              rng.nextRange(0, 99)),
                          static_cast<int>(rng.nextRange(0, 30)) - 15);
            break;
          default:
            std::snprintf(buf, sizeof buf, "%llue%d",
                          static_cast<unsigned long long>(
                              rng.nextRange(1, 9999)),
                          static_cast<int>(rng.nextRange(0, 12)));
            break;
        }
        out += buf;
        break;
      }
      case 3:
      case 4:
        appendJsonString(rng, out);
        break;
      case 5: { // array
        out += '[';
        const uint64_t n = rng.nextRange(0, 4);
        for (uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ',';
            appendJsonValue(rng, out, depth + 1);
        }
        out += ']';
        break;
      }
      default: { // object
        out += '{';
        const uint64_t n = rng.nextRange(0, 4);
        for (uint64_t i = 0; i < n; ++i) {
            if (i)
                out += ',';
            appendJsonString(rng, out);
            out += ':';
            appendJsonValue(rng, out, depth + 1);
        }
        out += '}';
        break;
      }
    }
}

JsonSample
genJson(Rng &rng)
{
    JsonSample s;
    appendJsonValue(rng, s.text, 0);
    // Occasionally mutate a byte: most mutants fail to parse (the
    // oracle is then vacuous) but the parser must never crash, leak,
    // or accept-and-corrupt.
    if (chance(rng, 10) && !s.text.empty()) {
        const uint64_t at = rng.nextRange(0, s.text.size() - 1);
        s.text[at] = static_cast<char>(rng.nextRange(0x20, 0x7e));
    }
    return s;
}

/**
 * Re-emit @p v through exp::JsonWriter, the writer behind every tool
 * document, rr.bench.v1 report and rrserve reply.
 */
void
writeValue(exp::JsonWriter &w, const exp::JsonValue &v)
{
    if (v.isArray()) {
        w.beginArray();
        for (const exp::JsonValue &e : v.elements)
            writeValue(w, e);
        w.endArray();
    } else if (v.isObject()) {
        w.beginObject();
        for (const auto &[name, member] : v.members) {
            w.key(name);
            writeValue(w, member);
        }
        w.endObject();
    } else if (v.isString()) {
        w.value(v.string);
    } else if (v.isNumber()) {
        w.value(v.number);
    } else if (v.isBool()) {
        w.value(v.boolean);
    } else {
        w.null();
    }
}

std::string
serialize(const exp::JsonValue &v)
{
    exp::JsonWriter w;
    writeValue(w, v);
    return w.str();
}

bool
valuesEqual(const exp::JsonValue &a, const exp::JsonValue &b)
{
    using Kind = exp::JsonValue::Kind;
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return a.boolean == b.boolean;
      case Kind::Number:
        // Bitwise: NaN never appears (the parser rejects it) and
        // -0.0 must survive the round trip as -0.0.
        return std::memcmp(&a.number, &b.number, sizeof(double)) == 0;
      case Kind::String:
        return a.string == b.string;
      case Kind::Array:
        if (a.elements.size() != b.elements.size())
            return false;
        for (size_t i = 0; i < a.elements.size(); ++i)
            if (!valuesEqual(a.elements[i], b.elements[i]))
                return false;
        return true;
      case Kind::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (size_t i = 0; i < a.members.size(); ++i) {
            if (a.members[i].first != b.members[i].first ||
                !valuesEqual(a.members[i].second,
                             b.members[i].second))
                return false;
        }
        return true;
    }
    return false;
}

/** Validate UTF-8 (RFC 3629: no surrogates, no overlongs, <= U+10FFFF). */
bool
utf8Valid(const std::string &text)
{
    const auto *p = reinterpret_cast<const unsigned char *>(
        text.data());
    const size_t n = text.size();
    size_t i = 0;
    while (i < n) {
        const unsigned char c = p[i];
        if (c < 0x80) {
            ++i;
            continue;
        }
        unsigned len;
        uint32_t cp;
        if ((c & 0xe0) == 0xc0) {
            len = 2;
            cp = c & 0x1f;
        } else if ((c & 0xf0) == 0xe0) {
            len = 3;
            cp = c & 0x0f;
        } else if ((c & 0xf8) == 0xf0) {
            len = 4;
            cp = c & 0x07;
        } else {
            return false;
        }
        if (i + len > n)
            return false;
        for (unsigned j = 1; j < len; ++j) {
            if ((p[i + j] & 0xc0) != 0x80)
                return false;
            cp = (cp << 6) | (p[i + j] & 0x3f);
        }
        if (len == 2 && cp < 0x80)
            return false;
        if (len == 3 && cp < 0x800)
            return false;
        if (len == 4 && cp < 0x10000)
            return false;
        if (cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff))
            return false;
        i += len;
    }
    return true;
}

void
forEachString(const exp::JsonValue &v,
              const std::function<void(const std::string &)> &fn)
{
    if (v.isString())
        fn(v.string);
    for (const exp::JsonValue &e : v.elements)
        forEachString(e, fn);
    for (const auto &[key, val] : v.members) {
        fn(key);
        forEachString(val, fn);
    }
}

Problems
checkJson(const JsonSample &s)
{
    Problems problems;
    const std::optional<exp::JsonValue> v1 = exp::parseJson(s.text);
    if (!v1)
        return problems; // vacuous: unparseable input

    const std::string t2 = serialize(*v1);
    std::string error;
    const std::optional<exp::JsonValue> v2 =
        exp::parseJson(t2, &error);
    if (!v2) {
        problems.push_back(
            exp::strf("json: writer output does not reparse (%s)",
                 error.c_str()));
        return problems;
    }
    if (!valuesEqual(*v1, *v2))
        problems.push_back(
            "json: value changed across a write/parse round trip");
    if (serialize(*v2) != t2)
        problems.push_back(
            "json: serialize(parse(serialize(v))) is not a fixpoint");

    // A JSON document that is pure ASCII can only denote Unicode
    // strings (via \u escapes), so every decoded string must be
    // valid UTF-8. Surrogate pairs decoded one-half-at-a-time
    // (CESU-8) violate this.
    const bool ascii = std::all_of(
        s.text.begin(), s.text.end(),
        [](char c) { return static_cast<unsigned char>(c) < 0x80; });
    if (ascii) {
        forEachString(*v1, [&](const std::string &str) {
            if (!utf8Valid(str) && problems.size() < 4) {
                problems.push_back(
                    "json: pure-ASCII document decoded to an "
                    "invalid-UTF-8 string (surrogate pair not "
                    "combined?)");
            }
        });
    }
    return problems;
}

void
shrinkJson(JsonSample &s, Budget &budget)
{
    std::vector<char> bytes(s.text.begin(), s.text.end());
    shrinkList(bytes, budget, [&](const std::vector<char> &b) {
        return AnySample{JsonSample{std::string(b.begin(), b.end())}};
    });
    s.text.assign(bytes.begin(), bytes.end());
}

constexpr Field<JsonSample> kFields[] = {
    {"text", &JsonSample::text, 1u << 20},
};

constexpr Codec<JsonSample> kCodec{kFields};

} // namespace

constinit const KindOps jsonKind =
    kindOps<genJson, checkJson, shrinkJson, kCodec>("json");

} // namespace rr::fuzz
