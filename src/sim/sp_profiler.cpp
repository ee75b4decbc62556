#include "sim/sp_profiler.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace vega {

SpProfile::SpProfile(std::vector<uint64_t> ones,
                     std::vector<uint64_t> transitions, uint64_t samples)
    : ones_(std::move(ones)), transitions_(std::move(transitions)),
      samples_(samples)
{
    VEGA_CHECK(ones_.size() == transitions_.size(),
               "profile count size mismatch");
}

void
SpProfile::merge(const SpProfile &other)
{
    VEGA_CHECK(ones_.size() == other.ones_.size(), "profile size mismatch");
    for (size_t i = 0; i < ones_.size(); ++i) {
        ones_[i] += other.ones_[i];
        transitions_[i] += other.transitions_[i];
    }
    samples_ += other.samples_;
}

SpProfile
profile_signal_probability(BatchSimulator &sim, uint64_t cycles,
                           const SpDriveFn &drive)
{
    const Netlist &nl = sim.netlist();
    const size_t num_cells = nl.num_cells();
    std::vector<SlotId> out_slot(num_cells);
    for (CellId c = 0; c < num_cells; ++c)
        out_slot[c] = sim.tape().slot(nl.cell(c).out);

    std::vector<uint64_t> ones(num_cells, 0), toggles(num_cells, 0);
    // Per cell: its previous sample, in bit 0.
    std::vector<uint64_t> last(num_cells, 0);
    // Per value slot: bit k is lane 0 in the window's k-th cycle.
    std::vector<uint64_t> history(sim.tape().num_slots(), 0);

    // Fold a window of n samples whose first is sample number `first`.
    auto fold = [&](uint64_t first, unsigned n) {
        const uint64_t window =
            n == 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1;
        const uint64_t toggle_bits =
            first == 0 ? window & ~uint64_t(1) : window;
        for (CellId c = 0; c < num_cells; ++c) {
            const uint64_t h = history[out_slot[c]];
            const uint64_t delayed = h << 1 | last[c];
            ones[c] += std::popcount(h);
            toggles[c] += std::popcount((h ^ delayed) & toggle_bits);
            last[c] = h >> (n - 1) & 1;
        }
        std::fill(history.begin(), history.end(), 0);
    };

    for (uint64_t t = 0; t < cycles; ++t) {
        drive(sim, t);
        const std::vector<uint64_t> &planes = sim.planes();
        const unsigned bit = t % 64;
        for (size_t s = 0; s < history.size(); ++s)
            history[s] |= (planes[s] & 1) << bit;
        sim.step();
        if (bit == 63 || t + 1 == cycles)
            fold(t - bit, bit + 1);
    }
    return SpProfile(std::move(ones), std::move(toggles), cycles);
}

} // namespace vega
