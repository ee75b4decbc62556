/**
 * @file
 * 64-lane gate-level functional-unit engine: the library's only way to
 * run an ISS against a gate-level ALU, MDU or FPU.
 *
 * The engine drives 64 *independent* module instances — one
 * BatchSimulator lane each, typically over a fault-bank netlist
 * (lift::build_fault_bank) with a different fault enabled per lane,
 * or a plain module tape — one shared tape pass per clock edge. Each
 * lane serves one ISS driven through Iss::peek_fu_issue/step_one, and
 * every ISS instruction costs its lane one module clock edge, so
 * consecutive instructions hit the module back-to-back exactly as the
 * formal traces assume.
 *
 * Per round, each active lane posts exactly one transaction (an op, an
 * idle tick, an fflags read, or a flags-clear pulse) and commit_round()
 * advances every lane together in three steps:
 *
 *   1. post every lane's inputs and this edge's fm_rand draws, and serve
 *      each ReadFflags lane from the flags registers' D planes of that
 *      settle (a read samples the sticky flags register one edge ahead
 *      of its idle tick, under that tick's inputs);
 *   2. commit the one real edge, with per-lane valid/clear pulses;
 *   3. drop valid/clear, apply each random lane's next fm_rand draw
 *      (from a copy of its RNG), and serve each Op lane from the D
 *      planes of its output registers (`r`, `flags`, `valid_out`,
 *      `ack`, `dbg_out`): an op's result is read one edge ahead, past
 *      those registers.
 *
 * Every ALU32/MDU32/FPU32 output is a register Q (checked at
 * construction), so a D plane is exactly what the scalar protocol's
 * speculative edge would show, and no plane or RNG is ever saved or
 * restored. The committed timeline — each lane's fm_rand draw sequence
 * and cycle count, each peek charged one module cycle like the
 * reference's speculative edge — is bit-identical to the scalar
 * one-netlist protocol kept as the test oracle (tests/reference_fu.h).
 * Lanes are independent by construction (bank fault muxes are exact
 * pass-throughs when disabled), so a lane's behaviour does not depend
 * on which other lanes share its wave.
 *
 * Observable fault behaviour, per lane:
 *  - wrong results (architecturally visible, checked by test blocks);
 *  - corrupted sticky flags (visible through csrr fflags);
 *  - a parked valid/ack handshake => FuResult::stalled (Table 6's "S");
 *  - transaction-tag (dbg_out) mismatches, counted as hardware-detected
 *    anomalies (a real core would raise a bus-error interrupt).
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "cpu/iss.h"
#include "rtl/module.h"
#include "sim/batch_sim.h"

namespace vega::cpu {

class BatchNetlistEngine
{
  public:
    static constexpr int kLanes = BatchSimulator::kLanes;

    /** @p tape: compiled fault-bank (or plain module) netlist tape. */
    BatchNetlistEngine(ModuleKind kind, std::shared_ptr<const EvalTape> tape);

    ModuleKind kind() const { return kind_; }

    /** Drive an input bus in one lane (fault-bank "fm_en" one-hots). */
    void set_lane_bus(const std::string &bus, int lane, const BitVec &value);

    /**
     * Seed lane @p lane's fm_rand stream; @p random says whether this
     * lane's enabled fault reads "fm_rand" at all (non-random lanes
     * never draw, exactly like a netlist without the input).
     */
    void configure_lane_random(int lane, bool random, uint64_t seed);

    /// @name Per-round transaction posting (at most one per lane)
    /// @{
    void post_op(int lane, uint8_t op, uint32_t a, uint32_t b);
    void post_idle(int lane);
    void post_read_fflags(int lane);
    void post_clear_fflags(int lane);
    /// @}

    /** True if any lane posted a transaction this round. */
    bool has_posts() const { return participant_mask_ != 0; }

    /** Advance every posted lane one protocol round (see file docs). */
    void commit_round();

    /** Lane @p lane's result from the last committed Op / ReadFflags. */
    const FuResult &result(int lane) const
    {
        return results_[size_t(lane)];
    }
    /** Module clock cycles lane @p lane consumed (each peek counts one). */
    uint64_t cycles(int lane) const { return cycles_[size_t(lane)]; }
    /** Lane-local dbg_out tag mismatches (FPU transaction protocol). */
    uint64_t tag_mismatches(int lane) const
    {
        return tag_mismatches_[size_t(lane)];
    }

  private:
    /**
     * Set each random lane's fm_rand bit in @p lanes_mask to its next
     * draw; a @p peek draw leaves the lane's stream where it was.
     */
    void draw_rand(uint64_t lanes_mask, bool peek);
    uint64_t bit_of(uint64_t plane, int lane) const
    {
        return (plane >> lane) & 1;
    }

    ModuleKind kind_;
    BatchSimulator sim_;
    bool has_random_input_ = false;

    // Value slots, resolved and checked at construction: the input
    // buses, and the D slots of the output registers (each output one
    // edge ahead).
    std::vector<SlotId> a_slots_, b_slots_, op_slots_;
    SlotId valid_slot_ = 0, clear_slot_ = 0, rand_slot_ = 0;
    std::vector<SlotId> r_next_, flags_next_;
    SlotId valid_out_next_ = 0, ack_next_ = 0, dbg_next_ = 0;

    // Held input planes (idle lanes keep their previous operands), each
    // lane's held operands, and the per-round pulse masks.
    std::vector<uint64_t> a_planes_, b_planes_, op_planes_;
    std::array<uint32_t, kLanes> held_a_{}, held_b_{}, held_op_{};
    uint64_t rand_plane_ = 0;
    uint64_t participant_mask_ = 0;
    uint64_t op_mask_ = 0;
    uint64_t read_mask_ = 0;
    uint64_t clear_mask_ = 0;
    uint64_t random_mask_ = 0;

    std::vector<Rng> rngs_;

    std::vector<FuResult> results_;
    std::vector<uint64_t> cycles_;
    std::vector<uint64_t> tag_mismatches_;
    uint64_t expected_tag_mask_ = 0; ///< bit L = lane L's predicted parity
};

} // namespace vega::cpu
