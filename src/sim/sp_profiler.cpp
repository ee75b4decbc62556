#include "sim/sp_profiler.h"

#include "common/logging.h"

namespace vega {

void
SpProfile::sample(BatchSimulator &sim)
{
    const Netlist &nl = sim.netlist();
    VEGA_CHECK(nl.num_cells() == ones_.size(), "profile/netlist mismatch");
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        uint8_t v = sim.value_lane(nl.cell(c).out, 0) ? 1 : 0;
        ones_[c] += v;
        if (samples_ > 0 && v != prev_[c])
            ++transitions_[c];
        prev_[c] = v;
    }
    ++samples_;
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

} // namespace vega
