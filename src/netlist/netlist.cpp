#include "netlist/netlist.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace vega {

NetId
Netlist::new_net(const std::string &name)
{
    nets_.push_back(Net{name, kInvalidId, false});
    topo_dirty_ = true;
    return static_cast<NetId>(nets_.size() - 1);
}

CellId
Netlist::add_cell(CellType type, const std::string &name,
                  const std::vector<NetId> &inputs, NetId out)
{
    VEGA_CHECK(static_cast<int>(inputs.size()) == cell_num_inputs(type),
               "cell ", name, " pin count");
    VEGA_CHECK(out < nets_.size(), "cell ", name, " output net");
    VEGA_CHECK(nets_[out].driver == kInvalidId && !nets_[out].is_primary_input,
               "net ", nets_[out].name, " multiply driven");

    Cell c;
    c.type = type;
    c.name = name;
    for (size_t i = 0; i < inputs.size(); ++i) {
        VEGA_CHECK(inputs[i] < nets_.size(), "cell ", name, " input net");
        c.in[i] = inputs[i];
    }
    c.out = out;
    cells_.push_back(c);
    CellId id = static_cast<CellId>(cells_.size() - 1);
    nets_[out].driver = id;
    topo_dirty_ = true;
    return id;
}

CellId
Netlist::add_dff(const std::string &name, NetId d, NetId q, bool init,
                 uint32_t clock_leaf)
{
    CellId id = add_cell(CellType::Dff, name, {d}, q);
    cells_[id].init = init;
    cells_[id].clock_leaf = clock_leaf;
    return id;
}

void
Netlist::mark_input(NetId net)
{
    VEGA_CHECK(nets_[net].driver == kInvalidId,
               "net ", nets_[net].name, " already driven");
    nets_[net].is_primary_input = true;
    topo_dirty_ = true;
}

std::vector<NetId>
Netlist::add_input_bus(const std::string &name, size_t width)
{
    std::vector<NetId> nets;
    nets.reserve(width);
    for (size_t i = 0; i < width; ++i) {
        NetId n = new_net(name + "[" + std::to_string(i) + "]");
        mark_input(n);
        nets.push_back(n);
    }
    add_input_bus_alias(name, nets);
    return nets;
}

void
Netlist::add_input_bus_alias(const std::string &name,
                             const std::vector<NetId> &nets)
{
    VEGA_CHECK(!buses_.count(name), "duplicate bus ", name);
    buses_[name] = nets;
    input_bus_order_.push_back(name);
}

void
Netlist::add_output_bus(const std::string &name,
                        const std::vector<NetId> &nets)
{
    VEGA_CHECK(!buses_.count(name), "duplicate bus ", name);
    buses_[name] = nets;
    output_bus_order_.push_back(name);
}

const std::vector<NetId> &
Netlist::bus(const std::string &name) const
{
    auto it = buses_.find(name);
    VEGA_CHECK(it != buses_.end(), "no bus named ", name);
    return it->second;
}

std::vector<NetId>
Netlist::primary_inputs() const
{
    std::vector<NetId> out;
    for (const auto &name : input_bus_order_)
        for (NetId n : buses_.at(name))
            out.push_back(n);
    return out;
}

std::vector<NetId>
Netlist::primary_outputs() const
{
    std::vector<NetId> out;
    for (const auto &name : output_bus_order_)
        for (NetId n : buses_.at(name))
            out.push_back(n);
    return out;
}

std::vector<CellId>
Netlist::dffs() const
{
    std::vector<CellId> out;
    for (CellId i = 0; i < cells_.size(); ++i)
        if (cells_[i].type == CellType::Dff)
            out.push_back(i);
    return out;
}

std::unordered_map<CellType, size_t>
Netlist::type_histogram() const
{
    std::unordered_map<CellType, size_t> h;
    for (const Cell &c : cells_)
        ++h[c.type];
    return h;
}

std::pair<size_t, size_t>
Netlist::build_order() const
{
    // Reader CSR: count each net's readers, prefix-sum the counts into
    // offsets, then place (cell, pin) entries in cell-id and pin order.
    reader_begin_.assign(nets_.size() + 1, 0);
    for (const Cell &cell : cells_)
        for (int i = 0; i < cell.num_inputs(); ++i)
            ++reader_begin_[cell.in[i] + 1];
    for (size_t n = 0; n < nets_.size(); ++n)
        reader_begin_[n + 1] += reader_begin_[n];
    reader_cells_.resize(reader_begin_.back());
    std::vector<uint32_t> next(reader_begin_.begin(),
                               reader_begin_.end() - 1);
    for (CellId c = 0; c < cells_.size(); ++c)
        for (int i = 0; i < cells_[c].num_inputs(); ++i)
            reader_cells_[next[cells_[c].in[i]]++] = c;

    // Kahn's algorithm over the combinational subgraph. A combinational
    // cell becomes ready once all its input nets are resolved; primary
    // inputs, constants, and DFF Q outputs are resolved from the start.
    // topo_ is the FIFO ready queue: cells leave it in the order they
    // join it.
    std::vector<bool> net_ready(nets_.size(), false);
    for (NetId n = 0; n < nets_.size(); ++n) {
        const Net &net = nets_[n];
        if (net.is_primary_input ||
            (net.driver != kInvalidId &&
             cells_[net.driver].type == CellType::Dff))
            net_ready[n] = true;
    }
    std::vector<int> missing(cells_.size(), 0);
    topo_.clear();
    size_t num_comb = 0;
    for (CellId c = 0; c < cells_.size(); ++c) {
        const Cell &cell = cells_[c];
        if (cell.type == CellType::Dff)
            continue;
        ++num_comb;
        int need = 0;
        for (int i = 0; i < cell.num_inputs(); ++i)
            if (!net_ready[cell.in[i]])
                ++need;
        missing[c] = need;
        if (need == 0)
            topo_.push_back(c);
    }
    for (size_t head = 0; head < topo_.size(); ++head) {
        NetId out = cells_[topo_[head]].out;
        if (net_ready[out])
            continue;
        net_ready[out] = true;
        // One reader entry per (cell, pin), so a cell reading this net
        // on several pins is decremented once per occurrence.
        for (uint32_t k = reader_begin_[out]; k < reader_begin_[out + 1];
             ++k) {
            CellId r = reader_cells_[k];
            if (cells_[r].type != CellType::Dff && --missing[r] == 0)
                topo_.push_back(r);
        }
    }
    topo_dirty_ = topo_.size() != num_comb;
    return {topo_.size(), num_comb};
}

const std::vector<CellId> &
Netlist::topo_order() const
{
    if (topo_dirty_) {
        auto [ordered, num_comb] = build_order();
        VEGA_CHECK(ordered == num_comb, "combinational cycle in netlist ",
                   name_, " (", ordered, " of ", num_comb,
                   " cells ordered)");
    }
    return topo_;
}

std::span<const CellId>
Netlist::readers(NetId net) const
{
    topo_order(); // refreshes the reader lists if dirty
    return std::span<const CellId>(reader_cells_)
        .subspan(reader_begin_[net],
                 reader_begin_[net + 1] - reader_begin_[net]);
}

std::vector<CellId>
Netlist::fanout_cone(CellId root) const
{
    std::vector<bool> seen(cells_.size(), false);
    std::deque<CellId> work{root};
    seen[root] = true;
    std::vector<CellId> cone;
    while (!work.empty()) {
        CellId c = work.front();
        work.pop_front();
        cone.push_back(c);
        for (CellId r : readers(cells_[c].out)) {
            if (!seen[r]) {
                seen[r] = true;
                work.push_back(r);
            }
        }
    }
    return cone;
}

void
Netlist::validate() const
{
    Expected<void> ok = check_valid();
    VEGA_CHECK(ok.ok(), "netlist ", name_, ": ", ok.error().context);
}

Expected<void>
Netlist::check_valid() const
{
    for (NetId n = 0; n < nets_.size(); ++n) {
        const Net &net = nets_[n];
        bool driven = net.driver != kInvalidId || net.is_primary_input;
        if (!driven)
            return make_error(ErrorCode::ValidationError,
                              "net " + net.name + " undriven");
        if (net.driver != kInvalidId && cells_[net.driver].out != n)
            return make_error(ErrorCode::ValidationError,
                              "net " + net.name + " driver mismatch");
    }
    for (CellId c = 0; c < cells_.size(); ++c) {
        const Cell &cell = cells_[c];
        for (int i = 0; i < cell.num_inputs(); ++i)
            if (cell.in[i] >= nets_.size())
                return make_error(ErrorCode::ValidationError,
                                  "cell " + cell.name + " dangling pin");
        if (cell.out >= nets_.size())
            return make_error(ErrorCode::ValidationError,
                              "cell " + cell.name + " dangling output");
    }

    // Acyclicity of the combinational subgraph: with every pin in
    // range, order the cells; a clean cache was ordered already.
    if (topo_dirty_) {
        auto [ordered, num_comb] = build_order();
        if (ordered != num_comb)
            return make_error(
                ErrorCode::ValidationError,
                "combinational cycle (" + std::to_string(ordered) + " of " +
                    std::to_string(num_comb) + " cells ordered)");
    }
    return {};
}

} // namespace vega
