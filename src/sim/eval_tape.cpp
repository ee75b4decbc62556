#include "sim/eval_tape.h"

#include <algorithm>
#include <array>
#include <bit>
#include <tuple>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega {

namespace {

/**
 * A combinational function over representatives. Op Buf means "equals
 * in[0]", an alias that never becomes an instruction; pins past the
 * op's input count hold 0.
 */
struct Gate
{
    CellType op = CellType::Buf;
    std::array<NetId, 3> in{};

    bool operator==(const Gate &) const = default;
};

/**
 * Fold cell type @p t over representatives @p a, @p b, @p s.
 * Representatives at or past @p zero are constants: zero stands for 0
 * and zero + 1 for 1. The result is a constant or an earlier net (op
 * Buf), the complement of a net (op Not), or the cell itself with its
 * commutative inputs ordered.
 */
Gate
fold(CellType t, NetId a, NetId b, NetId s, NetId zero)
{
    auto is_const = [&](NetId r) { return r >= zero; };
    // f(x) with f(0) = f0 and f(1) = f1: a constant, x or ~x.
    auto unary = [&](NetId x, bool f0, bool f1) -> Gate {
        if (is_const(x))
            f0 = f1 = x == zero ? f0 : f1;
        if (f0 == f1)
            return {CellType::Buf, {zero + NetId(f1)}};
        return {f1 ? CellType::Buf : CellType::Not, {x}};
    };
    switch (t) {
      case CellType::Const0:
      case CellType::Const1:
        return {CellType::Buf, {zero + NetId(t == CellType::Const1)}};
      case CellType::Buf:
        return {CellType::Buf, {a}};
      case CellType::Not:
        return unary(a, true, false);
      case CellType::Mux2:
        if (is_const(s))
            return {CellType::Buf, {s == zero ? a : b}};
        if (a == b)
            return {CellType::Buf, {a}};
        if (is_const(a) && is_const(b))
            return unary(s, a != zero, b != zero);
        return {CellType::Mux2, {a, b, s}};
      default: // the two-input gates, all commutative
        if (is_const(a))
            return unary(b, eval_cell(t, a != zero, false),
                         eval_cell(t, a != zero, true));
        if (is_const(b))
            return unary(a, eval_cell(t, false, b != zero),
                         eval_cell(t, true, b != zero));
        if (a == b)
            return unary(a, eval_cell(t, false, false),
                         eval_cell(t, true, true));
        return {t, {std::min(a, b), std::max(a, b)}};
    }
}

} // namespace

EvalTape::EvalTape(const Netlist &nl) : nl_(nl)
{
    VEGA_SPAN("sim.tape_build");

    // Validates acyclicity and fixes a valid evaluation order.
    const std::vector<CellId> &topo = nl.topo_order();

    // Canonicalize nets in topo order. rep[n] is net n's representative:
    // a primary input, a DFF Q, a kept gate's output, or one of the two
    // constant ids past the last net. Each kept gate is the first of its
    // (op, representative inputs), found by open addressing in `table`.
    const NetId zero = NetId(nl.num_nets()), one = zero + 1;
    std::vector<NetId> rep(nl.num_nets() + 2, kInvalidId);
    rep[zero] = zero;
    rep[one] = one;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        CellId d = nl.net(n).driver;
        if (nl.net(n).is_primary_input ||
            (d != kInvalidId && nl.cell(d).type == CellType::Dff))
            rep[n] = n;
    }
    std::vector<Gate> gates;         // kept gates, in topo order
    std::vector<NetId> gate_out;     // their output nets
    std::vector<NetId> not_in(nl.num_nets(), kInvalidId); // x of kept ~x
    std::vector<uint32_t> table(std::bit_ceil(2 * topo.size() + 1),
                                kInvalidId);
    const size_t mask = table.size() - 1;
    for (CellId c : topo) {
        const Cell &cell = nl.cell(c);
        auto in = [&](int i) {
            return i < cell.num_inputs() ? rep[cell.in[i]] : 0;
        };
        Gate g = fold(cell.type, in(0), in(1), in(2), zero);
        if (g.op == CellType::Not && not_in[g.in[0]] != kInvalidId)
            g = {CellType::Buf, {not_in[g.in[0]]}};
        if (g.op == CellType::Buf) {
            rep[cell.out] = g.in[0];
            continue;
        }
        uint64_t key = (uint64_t(g.in[0]) << 32 | g.in[1]) ^
                       (uint64_t(g.in[2]) << 8 | uint64_t(g.op)) *
                           0x9e3779b97f4a7c15ull;
        size_t i = splitmix64(key) & mask;
        while (table[i] != kInvalidId && !(gates[table[i]] == g))
            i = (i + 1) & mask;
        if (table[i] == kInvalidId) {
            table[i] = uint32_t(gates.size());
            gates.push_back(g);
            gate_out.push_back(cell.out);
            if (g.op == CellType::Not)
                not_in[cell.out] = g.in[0];
        }
        rep[cell.out] = gate_out[table[i]];
    }

    // Stream order: (part, level, opcode), stable over topo order. A
    // gate is in the input part when an input is a primary input or an
    // input-part gate. Its level counts only gate inputs in its own
    // part, so each part starts at level 0 and is self-contained once
    // the parts before it are settled.
    struct Key
    {
        bool input_part;
        uint32_t level;
        CellType op;
        uint32_t gate;
    };
    std::vector<uint8_t> input_part(rep.size(), 0);
    std::vector<uint32_t> level(rep.size(), 0);
    std::vector<uint8_t> is_gate(rep.size(), 0);
    for (NetId n = 0; n < nl.num_nets(); ++n)
        input_part[n] = nl.net(n).is_primary_input;
    std::vector<Key> stream;
    stream.reserve(gates.size());
    for (uint32_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        const int n_in = cell_num_inputs(g.op);
        bool part = false;
        for (int k = 0; k < n_in; ++k)
            part = part || input_part[g.in[k]];
        uint32_t lvl = 0;
        for (int k = 0; k < n_in; ++k)
            if (is_gate[g.in[k]] && bool(input_part[g.in[k]]) == part)
                lvl = std::max(lvl, level[g.in[k]] + 1);
        input_part[gate_out[i]] = part;
        level[gate_out[i]] = lvl;
        is_gate[gate_out[i]] = 1;
        stream.push_back({part, lvl, g.op, i});
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Key &x, const Key &y) {
                         return std::tie(x.input_part, x.level, x.op) <
                                std::tie(y.input_part, y.level, y.op);
                     });

    // Slot assignment by evaluation phase: inputs, the constants in
    // use, DFF Qs (live across edges), then one slot per instruction in
    // stream order, so each settle writes the plane front-to-back. A
    // folded net reads its representative's slot.
    std::vector<SlotId> rep_slot(rep.size(), 0);
    SlotId next = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        if (nl.net(n).is_primary_input)
            rep_slot[n] = next++;
    num_inputs_ = next;
    for (NetId k : {zero, one}) {
        if (std::find(rep.begin(), rep.begin() + zero, k) ==
            rep.begin() + zero)
            continue;
        const_rules_.push_back({next, uint8_t(k == one)});
        rep_slot[k] = next++;
    }
    for (CellId c = 0; c < nl.num_cells(); ++c)
        if (nl.cell(c).type == CellType::Dff)
            rep_slot[nl.cell(c).out] = next++;
    first_out_slot_ = next;
    for (const Key &k : stream)
        rep_slot[gate_out[k.gate]] = next++;
    slot_of_net_.resize(nl.num_nets());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        VEGA_CHECK(rep[n] != kInvalidId, "tape lowering of ", nl.name(),
                   " found no slot for undriven net ", nl.net(n).name);
        slot_of_net_[n] = rep_slot[rep[n]];
    }

    // Runs: maximal stretches of one opcode that stay inside one part.
    const size_t n_static = size_t(
        std::partition_point(stream.begin(), stream.end(),
                             [](const Key &k) { return !k.input_part; }) -
        stream.begin());
    in0_.reserve(stream.size());
    in1_.reserve(stream.size());
    in2_.reserve(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        const Gate &g = gates[stream[i].gate];
        if (i == n_static)
            first_input_run_ = runs_.size();
        if (i == n_static || runs_.empty() || runs_.back().op != g.op)
            runs_.push_back({uint32_t(i), uint32_t(i), g.op});
        ++runs_.back().end;
        int n_in = cell_num_inputs(g.op);
        in0_.push_back(n_in > 0 ? rep_slot[g.in[0]] : 0);
        in1_.push_back(n_in > 1 ? rep_slot[g.in[1]] : 0);
        in2_.push_back(n_in > 2 ? rep_slot[g.in[2]] : 0);
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
