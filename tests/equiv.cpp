#include "equiv.h"

#include "common/logging.h"
#include "netlist/builder.h"

namespace vega::formal {

const char *
equiv_status_name(EquivStatus status)
{
    switch (status) {
      case EquivStatus::Equivalent: return "equivalent";
      case EquivStatus::Different:  return "different";
      case EquivStatus::Timeout:    return "timeout";
    }
    return "?";
}

std::vector<NetId>
splice_netlist(Netlist &dst, const Netlist &src,
               const std::vector<std::pair<NetId, NetId>> &input_binding,
               const std::string &suffix)
{
    std::vector<NetId> map(src.num_nets(), kInvalidId);
    for (const auto &[src_net, dst_net] : input_binding)
        map[src_net] = dst_net;

    // Fresh nets for everything not bound to an input.
    for (NetId n = 0; n < src.num_nets(); ++n) {
        if (map[n] != kInvalidId)
            continue;
        VEGA_CHECK(!src.net(n).is_primary_input,
                   "splice_netlist: unbound primary input ",
                   src.net(n).name);
        map[n] = dst.new_net(src.net(n).name + suffix);
    }

    for (CellId c = 0; c < src.num_cells(); ++c) {
        const Cell &cell = src.cell(c);
        std::vector<NetId> ins;
        for (int i = 0; i < cell.num_inputs(); ++i)
            ins.push_back(map[cell.in[i]]);
        if (cell.type == CellType::Dff) {
            dst.add_dff(cell.name + suffix, ins[0], map[cell.out],
                        cell.init, cell.clock_leaf);
        } else {
            dst.add_cell(cell.type, cell.name + suffix, ins,
                         map[cell.out]);
        }
    }
    return map;
}

EquivResult
check_equivalence(const Netlist &a, const Netlist &b,
                  const BmcOptions &opts)
{
    // Interface compatibility.
    VEGA_CHECK(a.input_bus_names() == b.input_bus_names(),
               "equiv: input interfaces differ");
    VEGA_CHECK(a.output_bus_names() == b.output_bus_names(),
               "equiv: output interfaces differ");

    Netlist miter("miter_" + a.name() + "_" + b.name());

    // Shared inputs.
    std::vector<std::pair<NetId, NetId>> bind_a, bind_b;
    for (const auto &bus : a.input_bus_names()) {
        const auto &na = a.bus(bus);
        const auto &nb = b.bus(bus);
        VEGA_CHECK(na.size() == nb.size(), "equiv: width of ", bus);
        auto shared = miter.add_input_bus(bus, na.size());
        for (size_t i = 0; i < na.size(); ++i) {
            bind_a.emplace_back(na[i], shared[i]);
            bind_b.emplace_back(nb[i], shared[i]);
        }
    }

    auto map_a = splice_netlist(miter, a, bind_a, "@a");
    auto map_b = splice_netlist(miter, b, bind_b, "@b");

    // XOR-compared outputs, published for counterexample display.
    Builder bld(miter, "miter");
    std::vector<NetId> diffs;
    for (const auto &bus : a.output_bus_names()) {
        const auto &na = a.bus(bus);
        const auto &nb = b.bus(bus);
        VEGA_CHECK(na.size() == nb.size(), "equiv: width of ", bus);
        std::vector<NetId> out_a, out_b;
        for (size_t i = 0; i < na.size(); ++i) {
            out_a.push_back(map_a[na[i]]);
            out_b.push_back(map_b[nb[i]]);
            diffs.push_back(bld.xor_(map_a[na[i]], map_b[nb[i]]));
        }
        miter.add_output_bus(bus + "@a", out_a);
        miter.add_output_bus(bus + "@b", out_b);
    }
    NetId diff = bld.or_n(diffs);
    miter.add_output_bus("miter_diff", {diff});
    miter.validate();

    BmcOptions bopts = opts;
    bopts.assumes.clear();
    bopts.state_equalities.clear();

    BmcResult bmc = check_cover(miter, diff, bopts);

    EquivResult result;
    result.frames = bmc.frames;
    switch (bmc.status) {
      case BmcStatus::Covered:
        result.status = EquivStatus::Different;
        result.counterexample = std::move(bmc.trace);
        break;
      case BmcStatus::Unreachable:
        result.status = EquivStatus::Equivalent;
        result.proven_by_induction = bmc.proven_by_induction;
        break;
      case BmcStatus::Timeout:
        result.status = EquivStatus::Timeout;
        break;
    }
    return result;
}

} // namespace vega::formal
