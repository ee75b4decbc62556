#include "common/rng.h"

namespace vega {

uint64_t
Rng::splitmix(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed)
{
    for (auto &s : s_)
        s = splitmix(seed);
}

uint64_t
Rng::below(uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

} // namespace vega
