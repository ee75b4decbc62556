#include "lift/failure_model.h"

#include <unordered_map>

#include "common/logging.h"
#include "netlist/builder.h"

namespace vega::lift {

const char *
fault_constant_name(FaultConstant c)
{
    switch (c) {
      case FaultConstant::Zero:        return "C=0";
      case FaultConstant::One:         return "C=1";
      case FaultConstant::RandomInput: return "C=rand";
    }
    return "?";
}

const char *
mitigation_name(Mitigation m)
{
    switch (m) {
      case Mitigation::None:        return "none";
      case Mitigation::RisingEdge:  return "rise";
      case Mitigation::FallingEdge: return "fall";
    }
    return "?";
}

namespace {

/** Eq. 2 / Eq. 3's wrong value C; @p rand is the "fm_rand" input bit. */
NetId
build_c_source(Builder &b, FaultConstant c, NetId rand)
{
    switch (c) {
      case FaultConstant::Zero:        return b.const0();
      case FaultConstant::One:         return b.const1();
      case FaultConstant::RandomInput: return rand;
    }
    panic("bad fault constant");
}

/**
 * Eq. 2 / Eq. 3 activation: 1 on cycles where @p spec's violation
 * corrupts Y. @p x is the launch flop, copied because the history flop
 * reallocates the cell vector; @p x_next is X's original next-state
 * net. A same-flop path leaves Y metastable, so it always samples C
 * (§3.3.1).
 */
NetId
build_activation(Builder &b, const Cell x, NetId x_next,
                 const FailureModelSpec &spec)
{
    if (spec.launch == spec.capture)
        return b.const1();
    NetId x_now = x.out;
    // X(t-1) for setup: the history flop, cell $12 in Figure 5. X(t+1)
    // for hold: X's own D pin (Figure 6).
    NetId x_other =
        spec.is_setup ? b.dff(x_now, x.init, x.clock_leaf) : x_next;
    switch (spec.mitigation) {
      case Mitigation::None:
        return b.xor_(x_now, x_other);
      case Mitigation::RisingEdge:
        // Setup: rising edge means X(t-1)=0, X(t)=1. Hold: X(t)=0 and
        // X(t+1)=1. Either way: "now" side low for hold, high for setup.
        return spec.is_setup ? b.and_(x_now, b.not_(x_other))
                             : b.and_(b.not_(x_now), x_other);
      case Mitigation::FallingEdge:
        return spec.is_setup ? b.and_(b.not_(x_now), x_other)
                             : b.and_(x_now, b.not_(x_other));
    }
    panic("bad mitigation");
}

/** Both endpoints of a modeled path are flops. */
void
check_endpoints(const Netlist &nl, const FailureModelSpec &spec)
{
    VEGA_CHECK(nl.cell(spec.launch).type == CellType::Dff &&
                   nl.cell(spec.capture).type == CellType::Dff,
               "failure model endpoints must be DFFs");
}

/**
 * Build the Eq. 2 / Eq. 3 structure into @p nl (a fresh copy of the
 * module): C source, history flop, activation comparator, and the MUX
 * producing Y's corrupted next-state, which is returned. Y itself is
 * left wired to its original D.
 */
NetId
build_fault_logic(Netlist &nl, const FailureModelSpec &spec)
{
    check_endpoints(nl, spec);
    Builder b(nl, "vegafm");
    NetId rand = spec.constant == FaultConstant::RandomInput
                     ? nl.add_input_bus("fm_rand", 1)[0]
                     : kInvalidId;
    NetId c_net = build_c_source(b, spec.constant, rand);
    NetId x_next = nl.cell(spec.launch).in[0];
    NetId active = build_activation(b, nl.cell(spec.launch), x_next, spec);
    return b.mux(nl.cell(spec.capture).in[0], c_net, active);
}

} // namespace

FailingNetlist
build_failing_netlist(const Netlist &nl, const FailureModelSpec &spec)
{
    FailingNetlist out;
    out.netlist = nl; // deep copy
    out.netlist.set_name(nl.name() + "_failing");
    NetId faulty_d = build_fault_logic(out.netlist, spec);
    out.netlist.cell_mut(spec.capture).in[0] = faulty_d;
    out.has_random_input = spec.constant == FaultConstant::RandomInput;
    out.netlist.validate();
    return out;
}

FaultBank
build_fault_bank(const Netlist &nl,
                 const std::vector<FailureModelSpec> &specs)
{
    VEGA_CHECK(!specs.empty(), "fault bank needs at least one spec");
    FaultBank out;
    out.netlist = nl; // deep copy
    out.netlist.set_name(nl.name() + "_bank");
    out.num_faults = specs.size();
    out.fault_random.resize(specs.size(), 0);
    Netlist &bnl = out.netlist;

    // Activation logic must read each launch flop's *original* D net:
    // once an earlier fault splices a MUX chain in front of a shared
    // capture flop, cell().in[0] points at the chain, not the module's
    // own next-state function. With one-hot enables the chain is an
    // exact pass-through, so the original net carries the same value —
    // reading it keeps every fault's activation cone identical to its
    // standalone build_failing_netlist() form.
    std::vector<NetId> launch_d;
    for (const FailureModelSpec &spec : specs) {
        check_endpoints(bnl, spec);
        launch_d.push_back(bnl.cell(spec.launch).in[0]);
    }

    Builder b(bnl, "vegafm");
    std::vector<NetId> enables = bnl.add_input_bus("fm_en", specs.size());
    NetId rand_net = kInvalidId;
    for (const FailureModelSpec &spec : specs) {
        if (spec.constant == FaultConstant::RandomInput) {
            rand_net = bnl.add_input_bus("fm_rand", 1)[0];
            out.has_random_input = true;
            break;
        }
    }

    for (size_t i = 0; i < specs.size(); ++i) {
        const FailureModelSpec &spec = specs[i];
        NetId c_net = build_c_source(b, spec.constant, rand_net);
        out.fault_random[i] = spec.constant == FaultConstant::RandomInput;
        // A same-flop path's standalone activation is constant 1, so
        // its gated form is the enable itself.
        NetId gated =
            spec.launch == spec.capture
                ? enables[i]
                : b.and_(build_activation(b, bnl.cell(spec.launch),
                                          launch_d[i], spec),
                         enables[i]);

        // Chain onto whatever currently drives Y's D — the original
        // next-state net, or an earlier fault's (pass-through when
        // disabled) MUX.
        NetId cur_d = bnl.cell(spec.capture).in[0];
        NetId faulty = b.mux(cur_d, c_net, gated);
        bnl.cell_mut(spec.capture).in[0] = faulty;
    }

    bnl.validate();
    return out;
}

namespace {

/** The per-spec product of one shadow-replica construction. */
struct ShadowCone
{
    NetId mismatch = kInvalidId;
    std::vector<std::pair<NetId, NetId>> state_pairs;
    std::vector<std::string> shadowed_buses;
};

/**
 * Core of both shadow builders: build spec's fault logic into @p snl
 * (already a copy of @p nl, possibly carrying earlier cones), duplicate
 * Y's fanout cone under @p suffix with the shadow Y sampling the
 * corrupted next-state, and build the observability-gated
 * mismatch bit. @p add_shadow_buses registers the "<bus><suffix>"
 * output buses (the single-spec instrumentation publishes them per
 * Table 2; the bank keeps only the mismatch bits as outputs).
 */
ShadowCone
build_shadow_cone(Netlist &snl, const Netlist &nl,
                  const FailureModelSpec &spec, const std::string &suffix,
                  bool add_shadow_buses)
{
    VEGA_CHECK(spec.constant != FaultConstant::RandomInput,
               "formal trace generation uses constant C only");

    ShadowCone out;
    NetId faulty_d = build_fault_logic(snl, spec);

    // Cells influenced by Y, including Y itself (§3.3.2).
    std::vector<CellId> cone = nl.fanout_cone(spec.capture);

    // Shadow output net per cone cell, created up front so shadow cells
    // can be wired in any order.
    std::unordered_map<NetId, NetId> shadow_net; // orig out -> shadow out
    for (CellId c : cone) {
        NetId orig = snl.cell(c).out;
        shadow_net[orig] = snl.new_net(nl.net(orig).name + suffix);
    }

    for (CellId c : cone) {
        const Cell orig = snl.cell(c); // copy: adding cells reallocates
        std::vector<NetId> ins;
        for (int i = 0; i < orig.num_inputs(); ++i) {
            NetId in = orig.in[i];
            auto it = shadow_net.find(in);
            ins.push_back(it == shadow_net.end() ? in : it->second);
        }
        if (c == spec.capture) {
            // The shadow Y samples the corrupted D (Figure 7's $10S);
            // Y itself keeps its original D.
            ins[0] = faulty_d;
        }
        if (orig.type == CellType::Dff) {
            snl.add_dff(orig.name + suffix, ins[0], shadow_net.at(orig.out),
                        orig.init, orig.clock_leaf);
            out.state_pairs.emplace_back(orig.out,
                                         shadow_net.at(orig.out));
        } else {
            snl.add_cell(orig.type, orig.name + suffix, ins,
                         shadow_net.at(orig.out));
        }
    }

    // Cover target: OR over shadowed primary-output bits of
    // (orig != shadow); also publish "<bus>_s" shadow buses (Table 2).
    //
    // Observability gating (§3.3.3 microarchitectural knowledge): when
    // the module has a result-valid handshake, a result-bus mismatch
    // only matters on cycles where the handshake presents the result —
    // software never reads "r" otherwise. Mismatches on the handshake
    // and flag buses themselves stay ungated.
    Builder b(snl, "vegacov");
    NetId r_observable = kInvalidId;
    if (nl.has_bus("valid_out"))
        r_observable = nl.bus("valid_out")[0];

    std::vector<NetId> diffs;
    for (const auto &bus_name : nl.output_bus_names()) {
        const auto &nets = nl.bus(bus_name);
        bool gate_bus = bus_name == "r" && r_observable != kInvalidId;
        bool any_shadowed = false;
        std::vector<NetId> shadow_bus;
        for (NetId n : nets) {
            auto it = shadow_net.find(n);
            if (it != shadow_net.end()) {
                any_shadowed = true;
                shadow_bus.push_back(it->second);
                NetId diff = b.xor_(n, it->second);
                if (gate_bus)
                    diff = b.and_(diff, r_observable);
                diffs.push_back(diff);
            } else {
                shadow_bus.push_back(n);
            }
        }
        if (any_shadowed) {
            if (add_shadow_buses)
                snl.add_output_bus(bus_name + suffix, shadow_bus);
            out.shadowed_buses.push_back(bus_name);
        }
    }
    VEGA_CHECK(!diffs.empty(),
               "shadow cone of ", nl.cell(spec.capture).name,
               " reaches no primary output");
    out.mismatch = b.or_n(diffs);
    return out;
}

} // namespace

ShadowInstrumentation
build_shadow_instrumentation(const Netlist &nl, const FailureModelSpec &spec)
{
    ShadowInstrumentation out;
    out.netlist = nl; // deep copy
    Netlist &snl = out.netlist;
    snl.set_name(nl.name() + "_shadow");

    ShadowCone cone = build_shadow_cone(snl, nl, spec, "_s",
                                        /*add_shadow_buses=*/true);
    out.mismatch = cone.mismatch;
    out.state_pairs = std::move(cone.state_pairs);
    out.shadowed_buses = std::move(cone.shadowed_buses);
    snl.add_output_bus("mismatch", {out.mismatch});

    snl.validate();
    return out;
}

ShadowBank
build_shadow_bank(const Netlist &nl,
                  const std::vector<FailureModelSpec> &specs)
{
    VEGA_CHECK(!specs.empty(), "shadow bank needs at least one spec");
    ShadowBank out;
    out.netlist = nl; // deep copy
    Netlist &bnl = out.netlist;
    bnl.set_name(nl.name() + "_shadowbank");

    // Cones are built strictly one after another; build_shadow_cone
    // only adds cells and never rewires an original one, so cone i+1
    // reads the pristine module and the cones stay mutually
    // independent.
    std::vector<NetId> mismatches;
    mismatches.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        ShadowCone cone =
            build_shadow_cone(bnl, nl, specs[i],
                              "_s" + std::to_string(i),
                              /*add_shadow_buses=*/false);
        mismatches.push_back(cone.mismatch);
        out.cones.push_back({cone.mismatch, std::move(cone.state_pairs)});
    }
    bnl.add_output_bus("mismatch", mismatches);

    bnl.validate();
    return out;
}

} // namespace vega::lift
