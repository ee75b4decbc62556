/**
 * @file
 * Signal-probability profiling (§3.2.1).
 *
 * Vega attaches a counter to the output port of every cell, samples it on a
 * free-running profiling clock (here: once per simulated cycle), and
 * aggregates the fraction of time each cell output rests at logical "1".
 * The resulting SP profile feeds the aging-aware STA.
 *
 * A workload trace is one stimulus stream, so the profile samples lane 0
 * of a BatchSimulator whose lanes are all driven alike: one sample per
 * call, and activity() keeps its per-stream `samples - 1` denominator.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/batch_sim.h"

namespace vega {

/** Per-cell signal-probability profile (Table 1 of the paper). */
class SpProfile
{
  public:
    explicit SpProfile(size_t num_cells = 0)
        : ones_(num_cells, 0), transitions_(num_cells, 0),
          prev_(num_cells, 0), samples_(0)
    {
    }

    size_t num_cells() const { return ones_.size(); }

    /** Total samples (one per sample() call). */
    uint64_t samples() const { return samples_; }

    /** SP of cell @p c: fraction of samples with output at "1". */
    double sp(CellId c) const
    {
        return samples_ == 0 ? 0.5
                             : static_cast<double>(ones_[c]) / samples_;
    }

    /**
     * Switching activity of cell @p c: fraction of sampled cycles in
     * which its output toggled. Feeds the dynamic-IR-drop extension
     * (§6.3): regions that switch a lot droop the local supply.
     */
    double activity(CellId c) const
    {
        return samples_ <= 1 ? 0.0
                             : static_cast<double>(transitions_[c]) /
                                   (samples_ - 1);
    }

    /** Record one sample of every cell output, read in lane 0. */
    void sample(BatchSimulator &sim);

    /** Merge another profile over the same netlist. */
    void merge(const SpProfile &other);

  private:
    std::vector<uint64_t> ones_;
    std::vector<uint64_t> transitions_;
    std::vector<uint8_t> prev_;
    uint64_t samples_;
};

/**
 * The profiling harness: instruments the netlist's cell outputs with
 * counters and samples them every cycle while @p drive supplies stimulus.
 *
 * @param sim      simulator over the netlist under profile
 * @param cycles   number of cycles to run
 * @param drive    callback invoked before each cycle to set inputs in
 *                 every lane; receives the cycle index
 */
template <typename DriveFn>
SpProfile
profile_signal_probability(BatchSimulator &sim, uint64_t cycles,
                           DriveFn drive)
{
    SpProfile profile(sim.netlist().num_cells());
    for (uint64_t t = 0; t < cycles; ++t) {
        drive(sim, t);
        sim.eval();
        profile.sample(sim);
        sim.step();
    }
    return profile;
}

} // namespace vega
