#include "common/checksum.h"

#include <bit>
#include <cstring>

namespace vega {

namespace {

/** Reflected CRC32C polynomial (0x1EDC6F41 bit-reversed). */
constexpr uint32_t kPoly = 0x82f63b78u;

/**
 * Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
 * table[s][b] advances byte b through s+1 further zero bytes, letting
 * the hot loop fold 8 input bytes with 8 independent lookups per
 * iteration instead of 8 serial ones.
 */
struct Tables
{
    uint32_t t[8][256];
};

const Tables &
tables()
{
    static const Tables tbl = [] {
        Tables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
            t.t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (int s = 1; s < 8; ++s)
                t.t[s][i] =
                    (t.t[s - 1][i] >> 8) ^ t.t[0][t.t[s - 1][i] & 0xff];
        return t;
    }();
    return tbl;
}

inline uint32_t
step(const Tables &T, uint32_t c, uint8_t byte)
{
    return (c >> 8) ^ T.t[0][(c ^ byte) & 0xff];
}

} // namespace

void
Crc32c::update(const void *data, size_t size)
{
    const Tables &T = tables();
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = state_;

    if constexpr (std::endian::native == std::endian::little) {
        // Align, then fold 8 bytes per iteration.
        while (size && (reinterpret_cast<uintptr_t>(p) & 7)) {
            c = step(T, c, *p++);
            --size;
        }
        while (size >= 8) {
            uint32_t lo, hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            c ^= lo;
            c = T.t[7][c & 0xff] ^ T.t[6][(c >> 8) & 0xff] ^
                T.t[5][(c >> 16) & 0xff] ^ T.t[4][c >> 24] ^
                T.t[3][hi & 0xff] ^ T.t[2][(hi >> 8) & 0xff] ^
                T.t[1][(hi >> 16) & 0xff] ^ T.t[0][hi >> 24];
            p += 8;
            size -= 8;
        }
    }
    while (size--)
        c = step(T, c, *p++);
    state_ = c;
}

uint32_t
crc32c(const void *data, size_t size)
{
    Crc32c c;
    c.update(data, size);
    return c.value();
}

std::string
crc32c_hex(uint32_t crc)
{
    static const char kHex[] = "0123456789abcdef";
    std::string hex(8, '0');
    for (size_t i = 8; i-- > 0; crc >>= 4)
        hex[i] = kHex[crc & 15];
    return hex;
}

bool
parse_crc32c_hex(const std::string &hex, uint32_t &out)
{
    if (hex.size() != 8)
        return false;
    uint32_t v = 0;
    for (char ch : hex) {
        uint32_t d;
        if (ch >= '0' && ch <= '9')
            d = uint32_t(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            d = uint32_t(ch - 'a') + 10;
        else if (ch >= 'A' && ch <= 'F')
            d = uint32_t(ch - 'A') + 10;
        else
            return false;
        v = (v << 4) | d;
    }
    out = v;
    return true;
}

} // namespace vega
