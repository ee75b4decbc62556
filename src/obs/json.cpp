#include "obs/json.h"

#include <charconv>
#include <cstdio>

namespace vega::obs {

void
json_number(std::string &out, uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
json_number(std::string &out, int64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
json_number(std::string &out, double v)
{
    if (v >= 0 && v < 1e15 && v == double(uint64_t(v))) {
        json_number(out, uint64_t(v));
        return;
    }
    char buf[32];
    int n = std::snprintf(buf, sizeof buf, "%.9g", v);
    out.append(buf, size_t(n));
}

void
json_string(std::string &out, std::string_view v)
{
    static const char kHex[] = "0123456789abcdef";
    out += '"';
    size_t copied = 0;
    for (size_t i = 0; i < v.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(v[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(v.data() + copied, i - copied);
        copied = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 15]};
            out.append(esc, sizeof esc);
          }
        }
    }
    out.append(v.data() + copied, v.size() - copied);
    out += '"';
}

} // namespace vega::obs
