/**
 * @file
 * 64-lane bit-parallel gate-level simulator over an EvalTape.
 *
 * Each value slot holds a uint64_t *plane*: bit L is the value of the
 * net in lane L, and every lane is an independent stimulus/state
 * stream (classic bit-parallel "PPSFP-style" simulation). One pass
 * over the tape's instruction stream therefore advances 64 complete
 * simulations: an AND2 is a single `&` across all lanes, a clock edge
 * commits all DFF planes at once.
 *
 * Settles are lazy and dispatch once per run of one opcode. step()
 * settles whatever is pending, commits every DFF atomically and marks
 * a full settle pending, but does not run it: the next reader (or the
 * next edge) does. An input write alone marks only the tape's input
 * part pending, so a reader after new inputs settles just their
 * fanout. Every lane is checked in lockstep against the pre-tape
 * reference interpreter (tests/reference_sim.h) by
 * tests/test_eval_tape.cpp, with inputs re-driven between edges.
 *
 * This is the only EvalTape interpreter. Single-stream consumers (SP
 * profiling, test replay, the memory decoder classifier) drive every
 * lane alike (set_bus_all / set_input_all) and read lane 0.
 * lift::fuzz_cover runs 64 fuzzing episodes per simulated cycle, and
 * cpu::BatchNetlistEngine runs 64 ISS streams — the only way an ISS
 * reaches a gate-level unit. The simulator counts clock edges
 * (`sim.batch_cycles`), full settles (`sim.batch_evals`) and input-part
 * settles (`sim.batch_input_evals`); the multi-lane consumers count the
 * lane-cycles that carry an episode (`sim.lane_cycles`).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/logging.h"
#include "sim/eval_tape.h"

namespace vega {

class BatchSimulator
{
  public:
    /** Number of independent simulation lanes per instance. */
    static constexpr int kLanes = 64;

    /** Build (and own) a fresh tape for @p nl. */
    explicit BatchSimulator(const Netlist &nl);

    /** Share an existing tape (must be non-null). */
    explicit BatchSimulator(std::shared_ptr<const EvalTape> tape);

    const Netlist &netlist() const { return tape_->netlist(); }
    const EvalTape &tape() const { return *tape_; }

    /** Load DFF init values and zero all primary inputs. */
    void reset();

    /** Drive a primary input with a per-lane plane (bit L = lane L). */
    void set_input(NetId net, uint64_t lanes);

    /**
     * set_input by value slot (tape().slot(net)), for callers that
     * resolve their inputs once; panics unless @p slot is a primary
     * input's.
     */
    void set_input_slot(SlotId slot, uint64_t lanes)
    {
        VEGA_CHECK(slot < tape_->num_inputs(), "set_input_slot on slot ",
                   slot, ", not a primary input of ", netlist().name());
        planes_[slot] = lanes;
        settle_inputs_ = true;
    }

    /** Drive a primary input to the same value in every lane. */
    void set_input_all(NetId net, bool value)
    {
        set_input(net, value ? ~uint64_t(0) : 0);
    }

    /** Drive an input bus in one lane only; width must match. */
    void set_bus_lane(const std::string &bus, int lane,
                      const BitVec &value);

    /** Drive an input bus to the same value in every lane. */
    void set_bus_all(const std::string &bus, const BitVec &value);

    /** Run the pending settle, if any. Called implicitly by readers. */
    void eval()
    {
        if (settle_all_ || settle_inputs_)
            settle_pending();
    }

    /** One clock edge in every lane: settle, commit DFFs. */
    void step();

    /** Run @p n clock cycles. */
    void run(uint64_t n);

    /** Per-lane plane of @p net (post-settle). */
    uint64_t value(NetId net) { return slot_value(tape_->slot(net)); }

    /** Per-lane plane of value slot @p slot (post-settle). */
    uint64_t slot_value(SlotId slot)
    {
        eval();
        return planes_[slot];
    }

    /** Every value slot's plane (post-settle), indexed by SlotId. */
    const std::vector<uint64_t> &planes()
    {
        eval();
        return planes_;
    }

    /** Value of @p net in lane @p lane. */
    bool value_lane(NetId net, int lane)
    {
        return (value(net) >> lane) & 1;
    }

    /** Bus value in one lane as a BitVec (LSB first). */
    BitVec bus_value(const std::string &bus, int lane);

    /** Per-bit planes of a bus (planes[i] = plane of bus bit i). */
    std::vector<uint64_t> bus_planes(const std::string &bus);

    uint64_t cycle() const { return cycle_; }

    /** Snapshot of all planes (slot-ordered, opaque to callers). */
    std::vector<uint64_t> save_state() const { return planes_; }

    /** Restore a snapshot; panics unless it matches this netlist. */
    void restore_state(const std::vector<uint64_t> &state);

  private:
    /** Input-bus slots of @p bus; panics on an output bus. */
    const std::vector<SlotId> &input_bus_slots(const std::string &bus,
                                               size_t width) const;
    /** Run the settle that eval() found pending. */
    void settle_pending();
    /** Interpret runs [first_run, end) of the tape. */
    void settle(size_t first_run);

    std::shared_ptr<const EvalTape> tape_;
    std::vector<uint64_t> planes_;   ///< per-slot lane planes
    std::vector<uint64_t> dff_next_; ///< edge-commit scratch
    bool settle_all_ = true;     ///< DFF outputs moved: settle everything
    bool settle_inputs_ = false; ///< only inputs moved: settle their fanout
    uint64_t cycle_ = 0;
};

} // namespace vega
