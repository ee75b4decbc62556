/**
 * @file
 * Dynamic timing-aware simulation.
 *
 * BatchSimulator is purely logical; this simulator additionally
 * propagates per-net arrival times from the (aged) timing annotations
 * and plays the clock edge physically: a flip-flop whose data arrives
 * inside the setup window captures the *stale* previous value, and one
 * whose next-cycle data races in before the hold window closes captures
 * the *new* value a cycle early.
 *
 * This is the ground truth the paper's logical failure models (Eq. 2 /
 * Eq. 3) abstract: both corrupt Y exactly when the path's launch value
 * changes. The model-fidelity tests and the `ablation_model_fidelity`
 * bench check that abstraction against this simulator.
 *
 * Modeling choices (single-transition timing model, the standard STA
 * abstraction): a net that ends a cycle at its previous stable value is
 * treated as never having moved (glitches are not modeled), and a net
 * that changes is assigned the latest/earliest possible settle times
 * from its changed inputs.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "sta/sta.h"

namespace vega {

/** One timing violation observed at a clock edge. */
struct TimingEvent
{
    CellId dff = kInvalidId;
    bool is_setup = true; ///< false: hold
    uint64_t cycle = 0;   ///< edge index (1 = first edge after reset)
};

class TimingSimulator
{
  public:
    /**
     * @param nl     netlist under simulation
     * @param timing aged (or fresh) delays/constraints from the STA;
     *               must be derived from @p nl
     */
    TimingSimulator(const Netlist &nl, const sta::AgedTiming &timing);

    void reset();

    void set_input(NetId net, bool value);
    void set_bus(const std::string &bus, const BitVec &value);

    /**
     * Advance one clock cycle, physically applying setup/hold outcomes.
     * Returns the violations that corrupted state at this edge.
     */
    std::vector<TimingEvent> step();

    bool value(NetId net) const { return stable_[net]; }
    BitVec bus_value(const std::string &bus) const;

    uint64_t cycle() const { return cycle_; }

    /** All violations observed since reset. */
    const std::vector<TimingEvent> &events() const { return events_; }

  private:
    void settle();

    const Netlist &nl_;
    const sta::AgedTiming &timing_;
    double period_;

    std::vector<uint8_t> stable_;      ///< settled value, current cycle
    std::vector<uint8_t> prev_stable_; ///< settled value, previous cycle
    std::vector<double> arr_max_;      ///< latest settle time this cycle
    std::vector<double> arr_min_;      ///< earliest move time this cycle
    std::vector<uint8_t> inputs_;      ///< driven primary-input values
    std::vector<uint8_t> q_;           ///< committed DFF state
    std::vector<uint8_t> q_changed_;   ///< Q changed at the last edge

    uint64_t cycle_ = 0;
    std::vector<TimingEvent> events_;
    bool pending_settle_ = true;
};

} // namespace vega
