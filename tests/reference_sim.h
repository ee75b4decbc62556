/**
 * @file
 * Reference gate-level interpreter for tests: the pre-tape levelized
 * simulator loop, kept verbatim (a topo_order() walk over AoS cells on
 * every eval, one byte per net). It shares nothing with EvalTape, so it
 * is the independent oracle BatchSimulator, the library's only tape
 * interpreter, must match lane by lane.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "netlist/netlist.h"

namespace vega {

struct ReferenceSim
{
    const Netlist &nl;
    std::vector<uint8_t> values; ///< per-NetId current value

    explicit ReferenceSim(const Netlist &n) : nl(n), values(n.num_nets(), 0)
    {
        reset();
    }

    /** Load DFF init values, zero all primary inputs, settle. */
    void reset()
    {
        std::fill(values.begin(), values.end(), 0);
        for (CellId c : nl.dffs())
            values[nl.cell(c).out] = nl.cell(c).init ? 1 : 0;
        eval();
    }

    /** Drive an input bus (LSB first); takes effect at the next eval. */
    void set_bus(const std::string &bus, const BitVec &value)
    {
        const std::vector<NetId> &nets = nl.bus(bus);
        for (size_t i = 0; i < nets.size(); ++i)
            values[nets[i]] = value.get(i) ? 1 : 0;
    }

    /** Bus value as of the last eval (LSB first). */
    BitVec bus_value(const std::string &bus) const
    {
        const std::vector<NetId> &nets = nl.bus(bus);
        BitVec v(nets.size());
        for (size_t i = 0; i < nets.size(); ++i)
            v.set(i, values[nets[i]] != 0);
        return v;
    }

    void eval()
    {
        for (CellId c : nl.topo_order()) {
            const Cell &cell = nl.cell(c);
            bool a = cell.num_inputs() > 0 ? values[cell.in[0]] : false;
            bool b = cell.num_inputs() > 1 ? values[cell.in[1]] : false;
            bool s = cell.num_inputs() > 2 ? values[cell.in[2]] : false;
            values[cell.out] = eval_cell(cell.type, a, b, s) ? 1 : 0;
        }
    }

    /** One clock edge: settle, commit all DFFs atomically, settle. */
    void step()
    {
        eval();
        auto dffs = nl.dffs();
        std::vector<uint8_t> next;
        next.reserve(dffs.size());
        for (CellId c : dffs)
            next.push_back(values[nl.cell(c).in[0]]);
        for (size_t i = 0; i < dffs.size(); ++i)
            values[nl.cell(dffs[i]).out] = next[i];
        eval();
    }
};

} // namespace vega
