/**
 * @file
 * Dependency-free streaming JSON writer: the one way the tree writes
 * a JSON document (rr.bench.v1 reports, rrserve replies, rr.lint.v1
 * and every tool's --json output; docs/ARCHITECTURE.md lists the
 * schemas; the trace event records are the one hand-rolled
 * exception). jsonQuote is the one string escaper.
 *
 * Output is fully deterministic: keys are emitted in call order,
 * indentation is fixed (two spaces), and doubles are formatted with
 * std::to_chars (shortest round-trip form), so two runs that compute
 * identical numbers produce byte-identical files — the property the
 * --jobs invariance contract is verified against.
 */

#ifndef RR_EXP_JSON_OUT_HH
#define RR_EXP_JSON_OUT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rr::exp {

/** Escape and double-quote @p text as a JSON string literal. */
std::string jsonQuote(const std::string &text);

/**
 * Format @p value as a JSON number: shortest representation that
 * round-trips to the same double. Non-finite values (which JSON
 * cannot represent) are emitted as null.
 */
std::string jsonNumber(double value);

/**
 * Structured JSON emitter. Usage:
 *
 *   JsonWriter w;
 *   w.beginObject();
 *   w.member("schema", "rr.bench.v1");
 *   w.key("points"); w.beginArray();
 *   ...
 *   w.endArray();
 *   w.endObject();
 *   std::string text = w.str();
 *
 * The writer tracks nesting and comma placement; mismatched
 * begin/end pairs are programming errors and assert in debug builds.
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; must be followed by a value or begin*. */
    void key(const std::string &name);

    void value(const std::string &text);
    void value(const char *text);
    void value(double number);
    void value(uint64_t number);
    void value(int number);
    void value(unsigned number);
    void value(bool flag);
    void null();

    /** An array of strings, one element per line. */
    void value(const std::vector<std::string> &items);

    /** key(@p name) followed by value(@p v). */
    template <typename T>
    void
    member(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** The complete document (call after the final end*). */
    const std::string &str() const { return out_; }

  private:
    /** Emit separators/indentation before a value or container. */
    void prepare();
    void indent();

    enum class Frame : uint8_t { Object, Array };
    std::vector<Frame> stack_;
    std::vector<bool> has_items_;
    bool pending_key_ = false;
    std::string out_;
};

} // namespace rr::exp

#endif // RR_EXP_JSON_OUT_HH
