#include "exp/json_out.hh"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace rr::exp {

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto result =
        std::to_chars(buf, buf + sizeof(buf), value);
    assert(result.ec == std::errc());
    return std::string(buf, result.ptr);
}

void
JsonWriter::prepare()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!stack_.empty()) {
        assert(stack_.back() == Frame::Array &&
               "object members need a key() first");
        if (has_items_.back())
            out_ += ',';
        has_items_.back() = true;
        out_ += '\n';
        indent();
    }
}

void
JsonWriter::indent()
{
    out_.append(2 * stack_.size(), ' ');
}

void
JsonWriter::beginObject()
{
    prepare();
    out_ += '{';
    stack_.push_back(Frame::Object);
    has_items_.push_back(false);
}

void
JsonWriter::endObject()
{
    assert(!stack_.empty() && stack_.back() == Frame::Object);
    const bool had_items = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had_items) {
        out_ += '\n';
        indent();
    }
    out_ += '}';
}

void
JsonWriter::beginArray()
{
    prepare();
    out_ += '[';
    stack_.push_back(Frame::Array);
    has_items_.push_back(false);
}

void
JsonWriter::endArray()
{
    assert(!stack_.empty() && stack_.back() == Frame::Array);
    const bool had_items = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had_items) {
        out_ += '\n';
        indent();
    }
    out_ += ']';
}

void
JsonWriter::key(const std::string &name)
{
    assert(!stack_.empty() && stack_.back() == Frame::Object);
    assert(!pending_key_);
    if (has_items_.back())
        out_ += ',';
    has_items_.back() = true;
    out_ += '\n';
    indent();
    out_ += jsonQuote(name);
    out_ += ": ";
    pending_key_ = true;
}

void
JsonWriter::value(const std::string &text)
{
    prepare();
    out_ += jsonQuote(text);
}

void
JsonWriter::value(const char *text)
{
    value(std::string(text));
}

void
JsonWriter::value(double number)
{
    prepare();
    out_ += jsonNumber(number);
}

void
JsonWriter::value(uint64_t number)
{
    prepare();
    out_ += std::to_string(number);
}

void
JsonWriter::value(int number)
{
    prepare();
    out_ += std::to_string(number);
}

void
JsonWriter::value(unsigned number)
{
    prepare();
    out_ += std::to_string(number);
}

void
JsonWriter::value(bool flag)
{
    prepare();
    out_ += flag ? "true" : "false";
}

void
JsonWriter::null()
{
    prepare();
    out_ += "null";
}

void
JsonWriter::value(const std::vector<std::string> &items)
{
    beginArray();
    for (const std::string &item : items)
        value(item);
    endArray();
}

} // namespace rr::exp
