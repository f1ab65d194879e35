/**
 * @file
 * Adversarial round-trip tests for the exp:: JSON writer/parser pair
 * and the trace JSONL emitter: control characters, short escapes,
 * \u sequences including surrogate pairs, and non-ASCII bytes must
 * all survive writer -> parser unchanged, and malformed escapes must
 * be rejected rather than smuggled through (docs/FUZZ.md, json
 * oracle). The rrfuzz json generator explores the same space
 * continuously; these are the pinned deterministic cases.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "base/rng.hh"
#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "trace/event.hh"
#include "trace/sink.hh"

namespace rr::exp {
namespace {

/** Parse a bare JSON string literal; fails the test on error. */
std::string
parseString(const std::string &doc)
{
    std::string error;
    const auto parsed = parseJson(doc, &error);
    EXPECT_TRUE(parsed.has_value()) << doc << ": " << error;
    if (!parsed.has_value())
        return {};
    EXPECT_TRUE(parsed->isString()) << doc;
    return parsed->string;
}

TEST(JsonRoundTrip, SurrogatePairDecodesToAstralCodePoint)
{
    // U+1F600 as a \u escape pair must decode to its 4-byte UTF-8
    // form, not to two 3-byte CESU-8 halves.
    EXPECT_EQ(parseString("\"\\ud83d\\ude00\""),
              "\xF0\x9F\x98\x80");
    // Round trip: the writer passes raw UTF-8 through untouched.
    EXPECT_EQ(parseString(jsonQuote("\xF0\x9F\x98\x80")),
              "\xF0\x9F\x98\x80");
}

TEST(JsonRoundTrip, UnpairedSurrogatesRejected)
{
    EXPECT_FALSE(parseJson("\"\\ud83d\"").has_value());
    EXPECT_FALSE(parseJson("\"\\ude8b\"").has_value());
    EXPECT_FALSE(parseJson("\"\\ud83dx\"").has_value());
    EXPECT_FALSE(parseJson("\"\\ud83d\\u0041\"").has_value());
    EXPECT_FALSE(parseJson("\"\\ud83d\\ud83d\"").has_value());
}

TEST(JsonRoundTrip, MalformedEscapesRejected)
{
    EXPECT_FALSE(parseJson("\"\\u12\"").has_value());
    EXPECT_FALSE(parseJson("\"\\uzzzz\"").has_value());
    EXPECT_FALSE(parseJson("\"\\q\"").has_value());
    EXPECT_FALSE(parseJson("\"\\u123").has_value());
}

TEST(JsonRoundTrip, BasicMultilingualPlaneEscapes)
{
    EXPECT_EQ(parseString("\"\\u0041\""), "A");
    EXPECT_EQ(parseString("\"\\u00e9\""), "\xC3\xA9");   // é
    EXPECT_EQ(parseString("\"\\u65e5\""), "\xE6\x97\xA5"); // 日
}

TEST(JsonRoundTrip, ControlCharactersRoundTrip)
{
    // Every control byte must be escaped by the writer and decoded
    // back by the parser — raw control bytes in JSON are invalid.
    for (unsigned c = 0; c < 0x20; ++c) {
        const std::string original(1, static_cast<char>(c));
        const std::string doc = jsonQuote(original);
        for (const char byte : doc) {
            EXPECT_GE(static_cast<unsigned char>(byte), 0x20u)
                << "raw control byte " << c << " in " << doc;
        }
        EXPECT_EQ(parseString(doc), original) << "byte " << c;
    }
}

TEST(JsonRoundTrip, WriterUsesShortEscapes)
{
    EXPECT_EQ(jsonQuote("\b\f\n\r\t"),
              "\"\\b\\f\\n\\r\\t\"");
    EXPECT_EQ(jsonQuote("\x01"), "\"\\u0001\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonRoundTrip, WriterPinsContainerAndScalarBytes)
{
    // Every rr.bench.v1 file and rrserve reply is JsonWriter output,
    // so its layout is a byte contract: pin the edge shapes.
    const auto doc = [](auto &&build) {
        JsonWriter w;
        build(w);
        return w.str();
    };
    EXPECT_EQ(doc([](JsonWriter &w) {
                  w.beginObject();
                  w.endObject();
              }),
              "{}");
    EXPECT_EQ(doc([](JsonWriter &w) {
                  w.beginArray();
                  w.endArray();
              }),
              "[]");
    EXPECT_EQ(doc([](JsonWriter &w) { w.null(); }), "null");
    EXPECT_EQ(doc([](JsonWriter &w) {
                  w.beginArray();
                  w.beginObject();
                  w.endObject();
                  w.beginArray();
                  w.endArray();
                  w.endArray();
              }),
              "[\n  {},\n  []\n]");
    EXPECT_EQ(doc([](JsonWriter &w) {
                  w.beginObject();
                  w.key("a");
                  w.beginObject();
                  w.endObject();
                  w.key("b");
                  w.beginArray();
                  w.null();
                  w.endArray();
                  w.endObject();
              }),
              "{\n  \"a\": {},\n  \"b\": [\n    null\n  ]\n}");
    EXPECT_EQ(doc([](JsonWriter &w) {
                  w.beginArray();
                  w.value(-0.0);
                  w.value(std::numeric_limits<double>::infinity());
                  w.value(-std::numeric_limits<double>::infinity());
                  w.value(std::numeric_limits<double>::quiet_NaN());
                  w.endArray();
              }),
              "[\n  -0,\n  null,\n  null,\n  null\n]");
    EXPECT_EQ(jsonNumber(-0.0), "-0");
}

TEST(JsonRoundTrip, NonAsciiBytesPassThrough)
{
    const std::string text = "h\xC3\xA9llo \xE2\x86\x92 "
                             "\xE6\x97\xA5\xE6\x9C\xAC";
    const std::string doc = jsonQuote(text);
    EXPECT_EQ(parseString(doc), text);
    // Fixpoint: re-quoting the decoded value is stable.
    EXPECT_EQ(jsonQuote(parseString(doc)), doc);
}

TEST(JsonRoundTrip, AdversarialRandomStrings)
{
    // Random ASCII (including every control byte) mixed with multi-
    // byte UTF-8 fragments: quote -> parse must be the identity.
    const std::string fragments[] = {
        "\xC3\xA9", "\xE6\x97\xA5", "\xF0\x9F\x98\x80",
    };
    Rng rng(2026);
    for (int iteration = 0; iteration < 2000; ++iteration) {
        std::string text;
        const unsigned length = rng.nextRange(0, 24);
        for (unsigned i = 0; i < length; ++i) {
            const unsigned pick = rng.nextRange(0, 9);
            if (pick == 0)
                text += fragments[rng.nextRange(0, 2)];
            else
                text += static_cast<char>(rng.nextRange(0, 127));
        }
        const std::string doc = jsonQuote(text);
        std::string error;
        const auto parsed = parseJson(doc, &error);
        ASSERT_TRUE(parsed.has_value()) << doc << ": " << error;
        ASSERT_TRUE(parsed->isString());
        EXPECT_EQ(parsed->string, text);
        EXPECT_EQ(jsonQuote(parsed->string), doc);
    }
}

TEST(JsonRoundTrip, EveryTraceEventKindEmitsValidJson)
{
    // The JSONL trace sink hand-rolls its lines for speed; pin the
    // invariant that every event kind yields parseable JSON with the
    // expected kind name (docs/TRACE.md).
    for (unsigned k = 0; k < trace::numEventKinds; ++k) {
        trace::TraceEvent event;
        event.kind = static_cast<trace::EventKind>(k);
        event.tid = 3;
        event.ctx = 16;
        event.regs = 12;
        event.cycle = 1000;
        event.cycles = 40;
        event.aux = 7;
        const std::string line = trace::eventToJsonLine(event);
        std::string error;
        const auto parsed = parseJson(line, &error);
        ASSERT_TRUE(parsed.has_value()) << line << ": " << error;
        ASSERT_TRUE(parsed->isObject());
        EXPECT_EQ(parsed->stringOr("ev", ""),
                  trace::eventKindName(event.kind));
        EXPECT_EQ(parsed->numberOr("cycle", -1), 1000.0);
    }
}

} // namespace
} // namespace rr::exp
