/**
 * @file
 * The one JSON writer: every report, manifest and metrics snapshot
 * renders its numbers, strings and "key":value pairs through these
 * functions, appending to a caller-owned std::string.
 *
 * Numbers. Integers print in decimal. A double that is integral and in
 * [0, 1e15) prints bare, like an integer (so -0 prints as 0); any other
 * double prints as printf's %.9g, enough digits to be stable run to
 * run. Report digests pin these bytes.
 *
 * Strings. '"' and '\' are backslash-escaped; newline, CR and TAB print
 * as \n, \r and \t; every other byte below 0x20 prints as \u00XX. All
 * other bytes, UTF-8 included, are copied as they are, and a string
 * with nothing to escape is appended in one copy.
 *
 * Keys are literals from the code and are written as they are.
 *
 * Rows. JsonRow renders one flat object of a long array (a campaign
 * report's jobs) in a stack buffer and appends it in one copy, with the
 * same bytes as kv() would write.
 */
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace vega::obs {

void json_number(std::string &out, uint64_t v);
void json_number(std::string &out, int64_t v);
void json_number(std::string &out, double v);

/** @p v quoted and escaped. */
void json_string(std::string &out, std::string_view v);

/** `"key":` */
inline void
json_key(std::string &out, const char *key)
{
    out += '"';
    out += key;
    out += "\":";
}

/** `"key":value`, then a ',' when @p comma. */
inline void
kv(std::string &out, const char *key, uint64_t v, bool comma = true)
{
    json_key(out, key);
    json_number(out, v);
    if (comma)
        out += ',';
}

inline void
kv(std::string &out, const char *key, double v, bool comma = true)
{
    json_key(out, key);
    json_number(out, v);
    if (comma)
        out += ',';
}

inline void
kv(std::string &out, const char *key, std::string_view v,
   bool comma = true)
{
    json_key(out, key);
    json_string(out, v);
    if (comma)
        out += ',';
}

/**
 * One flat object, `{"key":value,...}`, built in a stack buffer and
 * appended to a string in one copy. Keys are string literals, copied at
 * their compile-time length. Numbers follow json_number's integer rule.
 * A string value comes already quoted: render each distinct one with
 * json_string once, not once per row. A row that outgrows the buffer
 * is appended in pieces.
 */
class JsonRow
{
  public:
    /** Start a row of @p out, after a ',' when @p comma. */
    JsonRow(std::string &out, bool comma) : out_(out)
    {
        if (comma)
            buf_[n_++] = ',';
        buf_[n_++] = '{';
    }
    JsonRow(const JsonRow &) = delete;
    JsonRow &operator=(const JsonRow &) = delete;

    template <size_t K>
    void kv(const char (&key)[K], uint64_t v)
    {
        char *p = put_key(key, 20);
        n_ = size_t(std::to_chars(p, buf_ + kSize, v).ptr - buf_);
    }

    /** `"key":` then @p json, a value already rendered as JSON. */
    template <size_t K>
    void kv_json(const char (&key)[K], std::string_view json)
    {
        char *p = put_key(key, json.size());
        if (json.size() > size_t(buf_ + kSize - p)) {
            spill();
            out_.append(json);
            return;
        }
        std::memcpy(p, json.data(), json.size());
        n_ = size_t(p - buf_) + json.size();
    }

    /** Close the object and append what is left of it. */
    void close()
    {
        if (n_ == kSize)
            spill();
        buf_[n_++] = '}';
        spill();
    }

  private:
    static constexpr size_t kSize = 512;

    /** `,"key":` (no comma before the first), first appending the
     *  buffer if it lacks room for that and a @p value_size value;
     *  returns where the value goes. Writes go through a local cursor:
     *  a char store may alias n_, which would force a reload per byte. */
    template <size_t K>
    char *put_key(const char (&key)[K], size_t value_size)
    {
        static_assert(K + 24 <= kSize, "JsonRow key too long");
        if (kSize - n_ < K + 3 + value_size)
            spill();
        char *p = buf_ + n_;
        if (fields_++)
            *p++ = ',';
        *p++ = '"';
        std::memcpy(p, key, K - 1);
        p += K - 1;
        *p++ = '"';
        *p++ = ':';
        n_ = size_t(p - buf_);
        return p;
    }

    void spill()
    {
        out_.append(buf_, n_);
        n_ = 0;
    }

    std::string &out_;
    char buf_[kSize];
    size_t n_ = 0;
    size_t fields_ = 0;
};

} // namespace vega::obs
