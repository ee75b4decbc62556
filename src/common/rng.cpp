#include "common/rng.h"

namespace vega {

Rng::Rng(uint64_t seed)
{
    for (auto &s : s_)
        s = splitmix64(seed);
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
