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
 */
#pragma once

#include <cstdint>
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

} // namespace vega::obs
