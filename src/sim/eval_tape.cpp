#include "sim/eval_tape.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega {

namespace {

bool
is_const(CellType t)
{
    return t == CellType::Const0 || t == CellType::Const1;
}

} // namespace

EvalTape::EvalTape(const Netlist &nl) : nl_(nl)
{
    VEGA_SPAN("sim.tape_build");

    // Validates acyclicity and fixes a valid evaluation order. The
    // stream below re-sorts it without breaking dependencies.
    const std::vector<CellId> &topo = nl.topo_order();

    // Stream order: (part, level, opcode), stable over topo order. A
    // cell is in the input part when a pin reads a primary input or an
    // input-part cell. Its level counts only drivers in its own part,
    // so each part starts at level 0 and is self-contained once the
    // parts before it are settled.
    struct Key
    {
        bool input_part;
        uint32_t level;
        CellType op;
        CellId cell;
    };
    std::vector<uint8_t> input_part(nl.num_cells(), 0);
    std::vector<uint32_t> level(nl.num_cells(), 0);
    std::vector<Key> stream;
    stream.reserve(topo.size());
    for (CellId c : topo) {
        const Cell &cell = nl.cell(c);
        if (is_const(cell.type))
            continue; // hoisted out of the per-cycle stream
        bool part = false;
        for (int i = 0; i < cell.num_inputs(); ++i) {
            const Net &net = nl.net(cell.in[i]);
            part = part || net.is_primary_input ||
                   (net.driver != kInvalidId && input_part[net.driver]);
        }
        uint32_t lvl = 0;
        for (int i = 0; i < cell.num_inputs(); ++i) {
            CellId d = nl.net(cell.in[i]).driver;
            if (d == kInvalidId || nl.cell(d).type == CellType::Dff ||
                is_const(nl.cell(d).type) || bool(input_part[d]) != part)
                continue;
            lvl = std::max(lvl, level[d] + 1);
        }
        input_part[c] = part;
        level[c] = lvl;
        stream.push_back({part, lvl, cell.type, c});
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Key &x, const Key &y) {
                         return std::tie(x.input_part, x.level, x.op) <
                                std::tie(y.input_part, y.level, y.op);
                     });

    // Slot assignment by evaluation phase: inputs and constants first,
    // then DFF Qs (live across edges), then combinational outputs in
    // stream order, so each settle writes the plane front-to-back.
    slot_of_net_.assign(nl.num_nets(), 0);
    SlotId next = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        if (nl.net(n).is_primary_input)
            slot_of_net_[n] = next++;
    num_inputs_ = next;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        CellType t = nl.cell(c).type;
        if (is_const(t)) {
            slot_of_net_[nl.cell(c).out] = next++;
            const_rules_.push_back(
                {slot_of_net_[nl.cell(c).out],
                 uint8_t(t == CellType::Const1 ? 1 : 0)});
        }
    }
    for (CellId c = 0; c < nl.num_cells(); ++c)
        if (nl.cell(c).type == CellType::Dff)
            slot_of_net_[nl.cell(c).out] = next++;
    first_out_slot_ = next;
    for (const Key &k : stream)
        slot_of_net_[nl.cell(k.cell).out] = next++;
    VEGA_CHECK(next == nl.num_nets(),
               "tape lowering of ", nl.name(), " missed nets (", next,
               " slots for ", nl.num_nets(), " nets)");

    // Runs: maximal stretches of one opcode that stay inside one part.
    const size_t n_static = size_t(
        std::partition_point(stream.begin(), stream.end(),
                             [](const Key &k) { return !k.input_part; }) -
        stream.begin());
    in0_.reserve(stream.size());
    in1_.reserve(stream.size());
    in2_.reserve(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        const Cell &cell = nl.cell(stream[i].cell);
        if (i == n_static)
            first_input_run_ = runs_.size();
        if (i == n_static || runs_.empty() || runs_.back().op != cell.type)
            runs_.push_back({uint32_t(i), uint32_t(i), cell.type});
        ++runs_.back().end;
        int n_in = cell.num_inputs();
        in0_.push_back(n_in > 0 ? slot_of_net_[cell.in[0]] : 0);
        in1_.push_back(n_in > 1 ? slot_of_net_[cell.in[1]] : 0);
        in2_.push_back(n_in > 2 ? slot_of_net_[cell.in[2]] : 0);
    }
    if (n_static == stream.size())
        first_input_run_ = runs_.size();

    for (CellId c = 0; c < nl.num_cells(); ++c) {
        const Cell &cell = nl.cell(c);
        if (cell.type == CellType::Dff)
            dff_rules_.push_back({slot_of_net_[cell.in[0]],
                                  slot_of_net_[cell.out],
                                  uint8_t(cell.init ? 1 : 0)});
    }

    for (const std::string &name : nl.input_bus_names()) {
        std::vector<SlotId> slots;
        for (NetId n : nl.bus(name))
            slots.push_back(slot_of_net_[n]);
        bus_slots_[name] = std::move(slots);
    }
    for (const std::string &name : nl.output_bus_names()) {
        std::vector<SlotId> slots;
        for (NetId n : nl.bus(name))
            slots.push_back(slot_of_net_[n]);
        bus_slots_[name] = std::move(slots);
    }

    static obs::Counter &builds = obs::counter("sim.tape_builds");
    static obs::Counter &instrs = obs::counter("sim.tape_instrs");
    builds.inc();
    instrs.add(in0_.size());
}

const std::vector<SlotId> &
EvalTape::bus_slots(const std::string &name) const
{
    auto it = bus_slots_.find(name);
    VEGA_CHECK(it != bus_slots_.end(), "no bus named ", name);
    return it->second;
}

} // namespace vega
