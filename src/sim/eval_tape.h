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
 *  - a combinational instruction stream in topological order: one
 *    opcode byte plus dense input/output value-slot indices per cell;
 *  - a DFF commit list (D slot, Q slot, init bit) applied atomically
 *    at each clock edge;
 *  - a constant list (slot, value) applied when inputs change, so a
 *    restored state can never leave a constant driver corrupted;
 *  - slot maps for nets, cell outputs, and named port buses.
 *
 * Value slots are a permutation of NetIds ordered by evaluation phase
 * (primary inputs, constants, DFF Qs, then combinational outputs in
 * topo order), so a simulator's value plane is written front-to-back
 * each settle. One interpreter, the 64-lane BatchSimulator, runs it for
 * every simulation consumer — SP profiling, test replay, fuzz lifting,
 * the ISS netlist backends and the campaign engine — so all of them
 * share a single lowering of eval_cell semantics.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
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

    /** One slot per net: the value plane length of any interpreter. */
    size_t num_slots() const { return slot_of_net_.size(); }

    /** Value slot holding the current value of @p net. */
    SlotId slot(NetId net) const { return slot_of_net_[net]; }

    /** Value slot holding the output of cell @p c (DFFs included). */
    SlotId cell_out_slot(CellId c) const { return cell_out_slot_[c]; }

    /// @name Combinational instruction stream (topological order)
    /// @{
    size_t num_instrs() const { return op_.size(); }
    const std::vector<uint8_t> &op() const { return op_; }
    const std::vector<SlotId> &in0() const { return in0_; }
    const std::vector<SlotId> &in1() const { return in1_; }
    const std::vector<SlotId> &in2() const { return in2_; }
    const std::vector<SlotId> &out() const { return out_; }
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

    std::vector<SlotId> slot_of_net_;   ///< NetId -> slot
    std::vector<SlotId> cell_out_slot_; ///< CellId -> slot

    std::vector<uint8_t> op_; ///< CellType as a byte
    std::vector<SlotId> in0_, in1_, in2_, out_;

    std::vector<DffRule> dff_rules_;
    std::vector<ConstRule> const_rules_;

    std::unordered_map<std::string, std::vector<SlotId>> bus_slots_;
};

} // namespace vega
