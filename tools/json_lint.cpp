#include "json_lint.h"

#include <cctype>
#include <cstring>

namespace vega::obs {

namespace {

/** Recursive-descent validator over a raw byte string. */
struct Lint
{
    const std::string &s;
    size_t pos = 0;
    std::string error;
    static constexpr int kMaxDepth = 256;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = "offset " + std::to_string(pos) + ": " + msg;
        return false;
    }

    void
    skip_ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::char_traits<char>::length(word);
        if (s.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    bool
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        while (pos < s.size()) {
            unsigned char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return fail("truncated escape");
                char e = s[pos];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i)
                        if (pos + i >= s.size() ||
                            !std::isxdigit(
                                (unsigned char)s[pos + i]))
                            return fail("bad \\u escape");
                    pos += 4;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return fail("bad escape");
                }
                ++pos;
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                ++pos;
            }
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (pos >= s.size() || !std::isdigit((unsigned char)s[pos]))
            return fail("expected digit");
        if (s[pos] == '0') {
            ++pos;
        } else {
            while (pos < s.size() &&
                   std::isdigit((unsigned char)s[pos]))
                ++pos;
        }
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (pos >= s.size() ||
                !std::isdigit((unsigned char)s[pos]))
                return fail("expected fraction digit");
            while (pos < s.size() &&
                   std::isdigit((unsigned char)s[pos]))
                ++pos;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (pos >= s.size() ||
                !std::isdigit((unsigned char)s[pos]))
                return fail("expected exponent digit");
            while (pos < s.size() &&
                   std::isdigit((unsigned char)s[pos]))
                ++pos;
        }
        return pos > start;
    }

    bool
    value(int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skip_ws();
        if (pos >= s.size())
            return fail("expected value");
        switch (s[pos]) {
          case '{': return object(depth);
          case '[': return array(depth);
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object(int depth)
    {
        ++pos; // '{'
        skip_ws();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string())
                return false;
            skip_ws();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            if (!value(depth + 1))
                return false;
            skip_ws();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(int depth)
    {
        ++pos; // '['
        skip_ws();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            if (!value(depth + 1))
                return false;
            skip_ws();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

Expected<void>
json_validate(const std::string &text)
{
    Lint lint{text, 0, {}};
    if (!lint.value(0))
        return make_error(ErrorCode::InvalidArgument, lint.error);
    lint.skip_ws();
    if (lint.pos != text.size())
        return make_error(ErrorCode::InvalidArgument,
                          "offset " + std::to_string(lint.pos) +
                              ": trailing garbage after JSON value");
    return {};
}

} // namespace vega::obs
