/**
 * @file
 * Compiled evaluation tape: a Netlist lowered once into a flat,
 * cache-friendly instruction stream.
 *
 * The pre-tape levelized simulator re-walked Netlist::topo_order() every
 * eval, chasing AoS Cell structs (each carrying a std::string name) and
 * re-deriving pin counts per cell per cycle. The EvalTape performs that
 * traversal exactly once per netlist and records its result as
 * structure-of-arrays vectors of primitive indices:
 *
 *  - a combinational instruction stream of dense input value-slot
 *    indices, in two parts: first the cells outside every
 *    primary input's fanout (fed only by DFF outputs and constants),
 *    then the input fanout. Within each part, cells are sorted by
 *    (level, opcode), so the stream is a sequence of *runs* of one
 *    opcode that an interpreter dispatches once per run;
 *  - a DFF commit list (D slot, Q slot, init bit) applied atomically
 *    at each clock edge;
 *  - a constant list (slot, value) applied on every full settle, so a
 *    restored state can never leave a constant driver corrupted;
 *  - slot maps for nets and named port buses.
 *
 * After new inputs only the input part can change, so an interpreter
 * may settle just that part as long as DFF outputs have not moved.
 *
 * Lowering canonicalizes nets in topological order, so a settle does not
 * recompute constants, buffers, double inversions or duplicate cells.
 * Each combinational net maps to one
 * representative: one of two shared constant slots; an earlier
 * equivalent net (a buffer's input, the x of ~~x, a gate or mux with a
 * constant, equal inputs or constant data that make it equal one of its
 * inputs); or itself. Gates that reduce to a complement become Nots.
 * The surviving cells are hash-consed on (opcode, representative
 * inputs, commutative inputs ordered), and the stream holds one
 * instruction per representative. Input parts, levels, DFF rules and
 * bus slots all read representatives.
 *
 * Value slots belong to representatives, ordered by evaluation phase
 * (primary inputs, the constants in use, DFF Qs, then combinational
 * outputs in stream order): instruction i writes slot first_out_slot() +
 * i, so a simulator's value plane is written front-to-back each settle
 * and the stream stores no output slots at all. slot() stays total: a
 * folded net reads its representative's slot, so every net's value is
 * still one load away. Nothing is dead-code eliminated, because SP
 * profiling reads every cell's output, including cells that drive no
 * port. One interpreter, the 64-lane BatchSimulator, runs the tape for
 * every simulation consumer — SP profiling, test replay, fuzz lifting
 * and the gate-level FU waves — so all of them share a single lowering
 * of eval_cell semantics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"

namespace vega {

/** Dense index into a simulator's value plane. */
using SlotId = uint32_t;

class EvalTape
{
  public:
    /**
     * Lower @p nl. Panics if the combinational subgraph is cyclic.
     * The netlist must outlive the tape; the tape is immutable
     * afterwards and safe to share across simulator instances and
     * threads.
     */
    explicit EvalTape(const Netlist &nl);

    const Netlist &netlist() const { return nl_; }

    /**
     * The value plane length of any interpreter: inputs, constants in
     * use, DFF Qs and one slot per instruction; at most num_nets().
     */
    size_t num_slots() const { return first_out_slot_ + in0_.size(); }

    /** Primary inputs hold slots [0, num_inputs()). */
    size_t num_inputs() const { return num_inputs_; }

    /**
     * Value slot holding the current value of @p net: its
     * representative's, which folded nets share.
     */
    SlotId slot(NetId net) const { return slot_of_net_[net]; }

    /// @name Combinational instruction stream (see file docs)
    /// @{
    size_t num_instrs() const { return in0_.size(); }
    const std::vector<SlotId> &in0() const { return in0_; }
    const std::vector<SlotId> &in1() const { return in1_; }
    const std::vector<SlotId> &in2() const { return in2_; }
    /** Instruction i writes slot first_out_slot() + i. */
    SlotId first_out_slot() const { return first_out_slot_; }

    /** Instructions [begin, end) all carry opcode @p op. */
    struct Run
    {
        uint32_t begin;
        uint32_t end;
        CellType op;
    };
    const std::vector<Run> &runs() const { return runs_; }
    /** Runs [first_input_run(), runs().size()) are the input fanout. */
    size_t first_input_run() const { return first_input_run_; }
    /// @}

    /** Clock-edge commit rule: Q slot takes the D slot's value. */
    struct DffRule
    {
        SlotId d;
        SlotId q;
        uint8_t init; ///< Q value at reset
    };
    const std::vector<DffRule> &dff_rules() const { return dff_rules_; }

    /** Constant driver: @p slot always holds @p value. */
    struct ConstRule
    {
        SlotId slot;
        uint8_t value;
    };
    const std::vector<ConstRule> &const_rules() const
    {
        return const_rules_;
    }

    /** Slots of bus @p name, LSB first (panics on unknown name). */
    const std::vector<SlotId> &bus_slots(const std::string &name) const;

    bool is_primary_input(NetId net) const
    {
        return nl_.net(net).is_primary_input;
    }

  private:
    const Netlist &nl_;

    std::vector<SlotId> slot_of_net_; ///< NetId -> representative's slot
    size_t num_inputs_ = 0;

    std::vector<SlotId> in0_, in1_, in2_;
    SlotId first_out_slot_ = 0;
    std::vector<Run> runs_;
    size_t first_input_run_ = 0;

    std::vector<DffRule> dff_rules_;
    std::vector<ConstRule> const_rules_;

    std::unordered_map<std::string, std::vector<SlotId>> bus_slots_;
};

} // namespace vega
