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
 * cycle, and activity() keeps its per-stream `samples - 1` denominator.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netlist/netlist.h"
#include "sim/batch_sim.h"

namespace vega {

/** Per-cell signal-probability profile (Table 1 of the paper). */
class SpProfile
{
  public:
    explicit SpProfile(size_t num_cells = 0)
        : ones_(num_cells, 0), transitions_(num_cells, 0)
    {
    }

    /**
     * A profile of @p samples samples in which cell c's output read "1"
     * @p ones[c] times and toggled between consecutive samples
     * @p transitions[c] times (the two vectors must be equally long).
     */
    SpProfile(std::vector<uint64_t> ones, std::vector<uint64_t> transitions,
              uint64_t samples);

    size_t num_cells() const { return ones_.size(); }

    /** Total samples (one per profiled cycle). */
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

    /** Merge another profile over the same netlist. */
    void merge(const SpProfile &other);

  private:
    std::vector<uint64_t> ones_;
    std::vector<uint64_t> transitions_;
    uint64_t samples_ = 0;
};

/** Stimulus callback: sets inputs in every lane before cycle @p t. */
using SpDriveFn = std::function<void(BatchSimulator &sim, uint64_t t)>;

/**
 * The profiling harness: instruments the netlist's cell outputs with
 * counters and samples them every cycle while @p drive supplies stimulus.
 *
 * Samples are bit-packed: each cycle ORs lane 0 of every value slot into
 * a 64-cycle history word h; every 64 cycles, and after the last, each
 * cell adds popcount(h) to its ones and the popcount of h XOR its
 * one-cycle delay (the previous window's last sample shifted in) to its
 * toggles, leaving out the first sample, which has no predecessor.
 *
 * @param sim      simulator over the netlist under profile
 * @param cycles   number of cycles to run
 * @param drive    invoked before each cycle with the cycle index
 */
SpProfile profile_signal_probability(BatchSimulator &sim, uint64_t cycles,
                                     const SpDriveFn &drive);

} // namespace vega
