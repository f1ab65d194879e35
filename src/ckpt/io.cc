#include "ckpt/io.hh"

#include <cstdio>
#include <cstring>

namespace rr::ckpt {

const char kMagic[8] = {'r', 'r', 'c', 'k', 'p', 't', '1', '\n'};

namespace {

constexpr uint32_t kTrailerTag = 0xffffffffu;

/** Largest element count any vector field may claim. Documents are
 * whole simulation states — far below this — so anything larger is a
 * hostile length, rejected before the allocation it would imply. */
constexpr uint64_t kMaxElements = 1ull << 32;

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

const char *
typeName(FieldType t)
{
    switch (t) {
      case FieldType::U64: return "u64";
      case FieldType::F64: return "f64";
      case FieldType::Str: return "str";
      case FieldType::Bytes: return "bytes";
      case FieldType::U64Vec: return "u64vec";
      case FieldType::U32Vec: return "u32vec";
    }
    return "?";
}

} // namespace

uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

// ---------------------------------------------------------------------
// Writer

void
Writer::putU8(uint8_t v)
{
    body_.push_back(v);
}

void
Writer::putU32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        body_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::putU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        body_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::beginSection(uint32_t tag)
{
    if (sealed_)
        throw Error("writer already sealed");
    if (inSection_)
        throw Error("nested section");
    putU32(tag);
    sectionLengthAt_ = body_.size();
    putU64(0); // patched by endSection()
    inSection_ = true;
}

void
Writer::endSection()
{
    if (!inSection_)
        throw Error("endSection outside a section");
    const uint64_t length = body_.size() - (sectionLengthAt_ + 8);
    for (int i = 0; i < 8; ++i)
        body_[sectionLengthAt_ + static_cast<size_t>(i)] =
            static_cast<uint8_t>(length >> (8 * i));
    inSection_ = false;
}

void
Writer::fieldHeader(uint32_t tag, FieldType type)
{
    if (!inSection_)
        throw Error("field emitted outside a section");
    putU32(tag);
    putU8(static_cast<uint8_t>(type));
}

void
Writer::u64(uint32_t tag, uint64_t value)
{
    fieldHeader(tag, FieldType::U64);
    putU64(value);
}

void
Writer::f64(uint32_t tag, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value, "f64 width");
    std::memcpy(&bits, &value, sizeof bits);
    fieldHeader(tag, FieldType::F64);
    putU64(bits);
}

void
Writer::str(uint32_t tag, const std::string &value)
{
    fieldHeader(tag, FieldType::Str);
    putU64(value.size());
    body_.insert(body_.end(), value.begin(), value.end());
}

void
Writer::bytes(uint32_t tag, const std::vector<uint8_t> &value)
{
    fieldHeader(tag, FieldType::Bytes);
    putU64(value.size());
    body_.insert(body_.end(), value.begin(), value.end());
}

void
Writer::u64vec(uint32_t tag, const std::vector<uint64_t> &value)
{
    fieldHeader(tag, FieldType::U64Vec);
    putU64(value.size());
    for (const uint64_t v : value)
        putU64(v);
}

void
Writer::u32vec(uint32_t tag, const std::vector<uint32_t> &value)
{
    fieldHeader(tag, FieldType::U32Vec);
    putU64(value.size());
    for (const uint32_t v : value)
        putU32(v);
}

std::vector<uint8_t>
Writer::seal()
{
    if (inSection_)
        throw Error("seal inside an open section");
    if (sealed_)
        throw Error("writer already sealed");
    sealed_ = true;

    // Sized once and filled by index: gcc 12 misreads the inlined
    // insert-after-reserve copies as overflowing (-Wstringop-overflow).
    std::vector<uint8_t> out(sizeof kMagic + body_.size() + 12);
    uint8_t *at = out.data();
    std::memcpy(at, kMagic, sizeof kMagic);
    at += sizeof kMagic;
    if (!body_.empty())
        std::memcpy(at, body_.data(), body_.size());
    at += body_.size();

    const uint64_t hash = fnv1a(body_.data(), body_.size());
    for (int i = 0; i < 4; ++i)
        *at++ = static_cast<uint8_t>(kTrailerTag >> (8 * i));
    for (int i = 0; i < 8; ++i)
        *at++ = static_cast<uint8_t>(hash >> (8 * i));
    return out;
}

// ---------------------------------------------------------------------
// Reader

namespace {

/** Bounds-checked little-endian cursor over the document body. */
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    size_t at() const { return at_; }
    size_t remaining() const { return size_ - at_; }

    uint8_t
    u8()
    {
        need(1, "byte");
        return data_[at_++];
    }

    uint32_t
    u32()
    {
        need(4, "u32");
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[at_ + static_cast<size_t>(i)])
                 << (8 * i);
        at_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8, "u64");
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[at_ + static_cast<size_t>(i)])
                 << (8 * i);
        at_ += 8;
        return v;
    }

    const uint8_t *
    raw(uint64_t count, const char *what)
    {
        need(count, what);
        const uint8_t *p = data_ + at_;
        at_ += static_cast<size_t>(count);
        return p;
    }

  private:
    void
    need(uint64_t count, const char *what)
    {
        if (count > size_ - at_)
            throw Error(std::string("truncated document reading ") +
                        what + " at offset " + hex(at_));
    }

    const uint8_t *data_;
    size_t size_;
    size_t at_ = 0;
};

} // namespace

Reader::Reader(const std::vector<uint8_t> &document)
{
    if (document.size() < sizeof kMagic ||
        std::memcmp(document.data(), kMagic, sizeof kMagic) != 0)
        throw Error("bad magic (not an rr.ckpt.v1 document)");

    // Locate and verify the trailer before trusting any length.
    if (document.size() < sizeof kMagic + 12)
        throw Error("truncated document (no checksum trailer)");
    const size_t bodySize = document.size() - sizeof kMagic - 12;
    const uint8_t *body = document.data() + sizeof kMagic;

    Cursor trailer(body + bodySize, 12);
    if (trailer.u32() != kTrailerTag)
        throw Error("missing checksum trailer");
    const uint64_t stored = trailer.u64();
    const uint64_t actual = fnv1a(body, bodySize);
    if (stored != actual)
        throw Error("checksum mismatch: stored " + hex(stored) +
                    ", computed " + hex(actual));

    Cursor cur(body, bodySize);
    while (cur.remaining() > 0) {
        const uint32_t sectionTag = cur.u32();
        const uint64_t sectionLength = cur.u64();
        if (sectionLength > cur.remaining())
            throw Error("section " + hex(sectionTag) +
                        " claims " + hex(sectionLength) +
                        " bytes but only " + hex(cur.remaining()) +
                        " remain");
        if (!sections_.emplace(sectionTag,
                               std::map<uint32_t, Field>{})
                 .second)
            throw Error("duplicate section tag " + hex(sectionTag));
        std::map<uint32_t, Field> &fields = sections_[sectionTag];

        const size_t sectionEnd =
            cur.at() + static_cast<size_t>(sectionLength);
        while (cur.at() < sectionEnd) {
            const uint32_t fieldTag = cur.u32();
            const uint8_t typeByte = cur.u8();
            Field field;
            switch (typeByte) {
              case static_cast<uint8_t>(FieldType::U64):
              case static_cast<uint8_t>(FieldType::F64):
                field.type = static_cast<FieldType>(typeByte);
                field.scalar = cur.u64();
                break;
              case static_cast<uint8_t>(FieldType::Str):
              case static_cast<uint8_t>(FieldType::Bytes): {
                field.type = static_cast<FieldType>(typeByte);
                const uint64_t n = cur.u64();
                if (n > kMaxElements)
                    throw Error("field " + hex(fieldTag) +
                                " claims an implausible length " +
                                hex(n));
                const uint8_t *p = cur.raw(n, "string payload");
                field.blob.assign(p, p + n);
                break;
              }
              case static_cast<uint8_t>(FieldType::U64Vec): {
                field.type = FieldType::U64Vec;
                const uint64_t n = cur.u64();
                if (n > kMaxElements)
                    throw Error("field " + hex(fieldTag) +
                                " claims an implausible count " +
                                hex(n));
                field.vec64.reserve(static_cast<size_t>(n));
                for (uint64_t i = 0; i < n; ++i)
                    field.vec64.push_back(cur.u64());
                break;
              }
              case static_cast<uint8_t>(FieldType::U32Vec): {
                field.type = FieldType::U32Vec;
                const uint64_t n = cur.u64();
                if (n > kMaxElements)
                    throw Error("field " + hex(fieldTag) +
                                " claims an implausible count " +
                                hex(n));
                field.vec32.reserve(static_cast<size_t>(n));
                for (uint64_t i = 0; i < n; ++i)
                    field.vec32.push_back(cur.u32());
                break;
              }
              default:
                throw Error("field " + hex(fieldTag) +
                            " in section " + hex(sectionTag) +
                            " has unknown type " +
                            hex(typeByte));
            }
            if (cur.at() > sectionEnd)
                throw Error("field " + hex(fieldTag) +
                            " overruns section " + hex(sectionTag));
            if (!fields.emplace(fieldTag, std::move(field)).second)
                throw Error("duplicate field tag " + hex(fieldTag) +
                            " in section " + hex(sectionTag));
        }
        if (cur.at() != sectionEnd)
            throw Error("section " + hex(sectionTag) +
                        " length does not land on a field boundary");
    }
}

bool
Reader::hasSection(uint32_t section) const
{
    return sections_.count(section) != 0;
}

bool
Reader::has(uint32_t section, uint32_t tag) const
{
    const auto s = sections_.find(section);
    return s != sections_.end() && s->second.count(tag) != 0;
}

const Reader::Field &
Reader::find(uint32_t section, uint32_t tag, FieldType type) const
{
    const auto s = sections_.find(section);
    if (s == sections_.end())
        throw Error("missing section " + hex(section));
    const auto f = s->second.find(tag);
    if (f == s->second.end())
        throw Error("section " + hex(section) +
                    " is missing field " + hex(tag));
    if (f->second.type != type)
        throw Error("section " + hex(section) + " field " +
                    hex(tag) + " has type " +
                    typeName(f->second.type) + ", expected " +
                    typeName(type));
    return f->second;
}

uint64_t
Reader::u64(uint32_t section, uint32_t tag) const
{
    return find(section, tag, FieldType::U64).scalar;
}

double
Reader::f64(uint32_t section, uint32_t tag) const
{
    const uint64_t bits = find(section, tag, FieldType::F64).scalar;
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
Reader::str(uint32_t section, uint32_t tag) const
{
    const Field &f = find(section, tag, FieldType::Str);
    return std::string(f.blob.begin(), f.blob.end());
}

std::vector<uint8_t>
Reader::bytes(uint32_t section, uint32_t tag) const
{
    return find(section, tag, FieldType::Bytes).blob;
}

std::vector<uint64_t>
Reader::u64vec(uint32_t section, uint32_t tag) const
{
    return find(section, tag, FieldType::U64Vec).vec64;
}

std::vector<uint32_t>
Reader::u32vec(uint32_t section, uint32_t tag) const
{
    return find(section, tag, FieldType::U32Vec).vec32;
}

} // namespace rr::ckpt
