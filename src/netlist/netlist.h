/**
 * @file
 * Gate-level netlist graph.
 *
 * A Netlist is the artifact every Vega phase operates on: the simulator
 * evaluates it, the aging-aware STA times it, the failure-model
 * instrumentation rewrites it, and the BMC engine unrolls it. It is a
 * directed graph of single-output cells from the vega28 library connected
 * by nets, with named port buses describing the module-level interface.
 *
 * Clock distribution is modeled out-of-band (see rtl/clock_tree.h): every
 * DFF carries the index of the clock-tree leaf that feeds it, and the STA
 * combines per-leaf clock arrival times with the data-path analysis. The
 * logic graph itself sees an ideal clock, matching how the paper's example
 * omits clock buffers from the netlist figure while still analyzing the
 * clock network during STA.
 */
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "netlist/cell_library.h"

namespace vega {

using NetId = uint32_t;
using CellId = uint32_t;

/** Sentinel for "no net" / "no cell". */
constexpr uint32_t kInvalidId = 0xffffffffu;

/** A single-output library cell instance. */
struct Cell
{
    CellType type = CellType::Buf;
    std::string name;
    std::array<NetId, 3> in = {kInvalidId, kInvalidId, kInvalidId};
    NetId out = kInvalidId;
    /** DFF only: value Q takes at reset. */
    bool init = false;
    /** DFF only: index of the clock-tree leaf buffer driving this DFF. */
    uint32_t clock_leaf = 0;

    int num_inputs() const { return cell_num_inputs(type); }
};

/** A wire. Driven by exactly one cell or by a primary input. */
struct Net
{
    std::string name;
    CellId driver = kInvalidId;
    bool is_primary_input = false;
};

/**
 * The netlist graph plus its module-level port description.
 *
 * Invariants (checked by validate()): every net has exactly one driver
 * (a cell output or primary-input marking), cell pins reference valid
 * nets, and the combinational subgraph is acyclic.
 */
class Netlist
{
  public:
    explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    /// @name Construction
    /// @{
    NetId new_net(const std::string &name);
    CellId add_cell(CellType type, const std::string &name,
                    const std::vector<NetId> &inputs, NetId out);
    CellId add_dff(const std::string &name, NetId d, NetId q,
                   bool init = false, uint32_t clock_leaf = 0);

    /** Mark an undriven net as a primary input. */
    void mark_input(NetId net);

    /** Create @p width fresh nets named name[i] and mark them inputs. */
    std::vector<NetId> add_input_bus(const std::string &name, size_t width);

    /** Register existing nets as the output bus @p name (LSB first). */
    void add_output_bus(const std::string &name,
                        const std::vector<NetId> &nets);

    /** Register existing input nets under a bus name (LSB first). */
    void add_input_bus_alias(const std::string &name,
                             const std::vector<NetId> &nets);
    /// @}

    /// @name Inspection
    /// @{
    size_t num_nets() const { return nets_.size(); }
    size_t num_cells() const { return cells_.size(); }

    const Net &net(NetId id) const { return nets_[id]; }
    const Cell &cell(CellId id) const { return cells_[id]; }
    Cell &cell_mut(CellId id) { topo_dirty_ = true; return cells_[id]; }

    const std::vector<Cell> &cells() const { return cells_; }

    /** Input bus names in declaration order. */
    const std::vector<std::string> &input_bus_names() const
    {
        return input_bus_order_;
    }
    /** Output bus names in declaration order. */
    const std::vector<std::string> &output_bus_names() const
    {
        return output_bus_order_;
    }
    /** Nets of a bus, LSB first. */
    const std::vector<NetId> &bus(const std::string &name) const;
    bool has_bus(const std::string &name) const
    {
        return buses_.count(name) > 0;
    }

    /** All primary-input nets (flattened, declaration order). */
    std::vector<NetId> primary_inputs() const;
    /** All primary-output nets (flattened, declaration order). */
    std::vector<NetId> primary_outputs() const;

    /** All DFF cell ids. */
    std::vector<CellId> dffs() const;

    /** Count of cells per type (for Fig. 8-style statistics). */
    std::unordered_map<CellType, size_t> type_histogram() const;
    /// @}

    /// @name Graph algorithms
    /// @{
    /**
     * Combinational cells in topological order (inputs before outputs).
     * DFFs are excluded: their Q pins are sources, D pins are sinks.
     * Panics if the combinational subgraph has a cycle.
     */
    const std::vector<CellId> &topo_order() const;

    /**
     * Cells reading @p net, one entry per (cell, pin) in cell-id and pin
     * order, so a cell reading the net on two pins appears twice. A view
     * into a cache built with topo_order(): any edit of the netlist
     * invalidates it.
     */
    std::span<const CellId> readers(NetId net) const;

    /**
     * Transitive fanout cone of a cell, crossing DFF boundaries, as used
     * by the shadow-replica construction (§3.3.2). Includes @p root.
     */
    std::vector<CellId> fanout_cone(CellId root) const;

    /** Throw vega::panic on any structural invariant violation. */
    void validate() const;

    /**
     * Non-aborting validate(): reports the first structural invariant
     * violation (undriven net, dangling pin, combinational cycle) as a
     * ValidationError instead of panicking. This is the check untrusted
     * inputs (e.g. parsed Verilog) go through.
     */
    Expected<void> check_valid() const;
    /// @}

    /**
     * Timing scale factor applied to all combinational arcs by the STA.
     *
     * Emulates the synthesis tool optimizing the design to its target
     * frequency: rtl generators set this so the fresh critical path lands
     * just inside the clock period, as a timing-closed tapeout would.
     */
    double timing_scale() const { return timing_scale_; }
    void set_timing_scale(double s) { timing_scale_ = s; }

    /** Clock period this module targets, in ps (e.g. 6000 for 167 MHz). */
    double clock_period_ps() const { return clock_period_ps_; }
    void set_clock_period_ps(double p) { clock_period_ps_ = p; }

  private:
    std::string name_;
    std::vector<Net> nets_;
    std::vector<Cell> cells_;

    std::unordered_map<std::string, std::vector<NetId>> buses_;
    std::vector<std::string> input_bus_order_;
    std::vector<std::string> output_bus_order_;

    double timing_scale_ = 1.0;
    double clock_period_ps_ = 1000.0;

    /**
     * Fill the reader lists and order the combinational cells (Kahn's
     * algorithm). Returns {cells ordered, combinational cells}; the
     * caches are clean only when the two match, i.e. the combinational
     * subgraph is acyclic. Every pin must reference a valid net.
     */
    std::pair<size_t, size_t> build_order() const;

    mutable bool topo_dirty_ = true;
    mutable std::vector<CellId> topo_;
    /** Reader lists as one CSR array: net n's readers are
     *  reader_cells_[reader_begin_[n], reader_begin_[n + 1]). */
    mutable std::vector<uint32_t> reader_begin_;
    mutable std::vector<CellId> reader_cells_;
};

} // namespace vega
