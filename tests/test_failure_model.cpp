#include "lift/failure_model.h"

#include <gtest/gtest.h>

#include "formal/bmc.h"
#include "netlist/builder.h"
#include "netlist/verilog_writer.h"
#include "rtl/adder2.h"
#include "sim/batch_sim.h"

namespace vega::lift {
namespace {

using rtl::make_adder2;

/** Cell id by name. */
CellId
find_cell(const Netlist &nl, const std::string &name)
{
    for (CellId c = 0; c < nl.num_cells(); ++c)
        if (nl.cell(c).name == name)
            return c;
    return kInvalidId;
}

/** The paper's running setup violation: $4 -> $7 -> $8 -> $10. */
FailureModelSpec
paper_setup_spec(const Netlist &nl, FaultConstant c,
                 Mitigation m = Mitigation::None)
{
    FailureModelSpec spec;
    spec.launch = find_cell(nl, "$4");
    spec.capture = find_cell(nl, "$10");
    spec.is_setup = true;
    spec.constant = c;
    spec.mitigation = m;
    return spec;
}

/** The paper's hold violation: $1 -> $5 -> $9. */
FailureModelSpec
paper_hold_spec(const Netlist &nl, FaultConstant c)
{
    FailureModelSpec spec;
    spec.launch = find_cell(nl, "$1");
    spec.capture = find_cell(nl, "$9");
    spec.is_setup = false;
    spec.constant = c;
    return spec;
}

/** Run one (a, b) pair per cycle and return o two cycles later. */
std::vector<unsigned>
run_pipeline(BatchSimulator &sim,
             const std::vector<std::pair<unsigned, unsigned>> &in)
{
    std::vector<unsigned> out;
    for (size_t t = 0; t < in.size() + 2; ++t) {
        if (t < in.size()) {
            sim.set_bus_all("a", BitVec(2, in[t].first));
            sim.set_bus_all("b", BitVec(2, in[t].second));
        }
        if (t >= 2)
            out.push_back(unsigned(sim.bus_value("o", 0).to_u64()));
        sim.step();
    }
    return out;
}

TEST(FailureModel, SetupFaultTriggersOnlyWhenLaunchChanges)
{
    HwModule m = make_adder2();
    // Eq. 2 with C = 0: o[1] samples 0 whenever bq[1] ($4) changed.
    FailingNetlist failing =
        build_failing_netlist(m.netlist, paper_setup_spec(m.netlist,
                                                          FaultConstant::Zero));
    BatchSimulator sim(failing.netlist);

    // b = 2 constantly: bq[1] stable after warmup, sums correct.
    auto stable = run_pipeline(sim, {{1, 2}, {2, 2}, {3, 2}});
    // First result may see the reset transition of bq[1]; later ones are
    // clean.
    EXPECT_EQ(stable[1], (2u + 2u) & 3u);
    EXPECT_EQ(stable[2], (3u + 2u) & 3u);

    // Toggling b[1] every cycle activates the fault each cycle: o[1]
    // forced to 0.
    sim.reset();
    auto toggling = run_pipeline(sim, {{0, 2}, {0, 0}, {0, 2}, {0, 0}});
    // golden sums: 2, 0, 2, 0 -> with o[1] forced 0 on change cycles: 0.
    EXPECT_EQ(toggling[0] & 2u, 0u);
    EXPECT_EQ(toggling[2] & 2u, 0u);
}

TEST(FailureModel, SetupFaultWithCOneForcesBitHigh)
{
    HwModule m = make_adder2();
    FailingNetlist failing =
        build_failing_netlist(m.netlist, paper_setup_spec(m.netlist,
                                                          FaultConstant::One));
    BatchSimulator sim(failing.netlist);
    // a=b=0 but b[1] toggles: sum should be 0, fault forces o[1]=1 -> 2.
    auto out = run_pipeline(sim, {{0, 2}, {0, 0}, {0, 2}, {0, 0}});
    EXPECT_EQ(out[1] & 2u, 2u); // golden 2+0=2? no: a=0,b=0 -> 0, fault -> 2
}

TEST(FailureModel, HoldFaultTriggersWhenLaunchAboutToChange)
{
    HwModule m = make_adder2();
    // Hold on $1 (aq[0]) -> $9 (o[0]), C = 1: o[0] corrupts whenever
    // aq[0] is about to change (Eq. 3 uses X(t+1) = D of $1).
    FailingNetlist failing =
        build_failing_netlist(m.netlist, paper_hold_spec(m.netlist,
                                                         FaultConstant::One));
    BatchSimulator sim(failing.netlist);

    // Hold a constant: no corruption after warmup.
    auto stable = run_pipeline(sim, {{1, 0}, {1, 0}, {1, 0}});
    EXPECT_EQ(stable[1], 1u);
    EXPECT_EQ(stable[2], 1u);

    // Toggle a[0] per cycle: corrupt every cycle; with golden o[0]
    // alternating 0/1, the forced-1 shows on the 0 cycles.
    sim.reset();
    auto toggling = run_pipeline(sim, {{0, 0}, {1, 0}, {0, 0}, {1, 0}});
    EXPECT_EQ(toggling[0] & 1u, 1u); // golden 0, fault -> 1
}

TEST(FailureModel, RandomInputModeAddsInputBus)
{
    HwModule m = make_adder2();
    FailingNetlist failing = build_failing_netlist(
        m.netlist, paper_setup_spec(m.netlist, FaultConstant::RandomInput));
    EXPECT_TRUE(failing.has_random_input);
    EXPECT_TRUE(failing.netlist.has_bus("fm_rand"));

    // With fm_rand driven to the golden value, behaviour can be correct;
    // driven wrong on an activation cycle, it corrupts. Spot check: the
    // bus exists and is simulable.
    BatchSimulator sim(failing.netlist);
    sim.set_bus_all("fm_rand", BitVec(1, 0));
    sim.run(4);
}

TEST(FailureModel, MitigationNarrowsActivation)
{
    HwModule m = make_adder2();
    // Rising-edge-only fault on $4 -> $10 with C = 0.
    FailingNetlist rise = build_failing_netlist(
        m.netlist,
        paper_setup_spec(m.netlist, FaultConstant::Zero,
                         Mitigation::RisingEdge));
    BatchSimulator sim(rise.netlist);
    // b[1]: 0 -> 1 (rising into bq at cycle 2): corrupts that result;
    // 1 -> 0 (falling): does not corrupt.
    auto out = run_pipeline(sim, {{0, 0}, {0, 2}, {0, 0}, {0, 0}});
    // Step 1 (b=2): bq[1] rises -> o[1] forced 0 while golden is 1.
    EXPECT_EQ(out[1] & 2u, 0u);
    // Step 2 (b=0): bq[1] falls -> golden 0 stays 0 either way, but more
    // to the point step 3 (stable 0) is clean.
    EXPECT_EQ(out[3], 0u);
}

TEST(FailureModel, FailingNetlistExportsAsVerilog)
{
    HwModule m = make_adder2();
    FailingNetlist failing =
        build_failing_netlist(m.netlist, paper_setup_spec(m.netlist,
                                                          FaultConstant::Zero));
    std::string v = to_verilog(failing.netlist);
    EXPECT_NE(v.find("module adder2_failing"), std::string::npos);
    EXPECT_NE(v.find("vegafm"), std::string::npos); // fault cells present
}

TEST(ShadowReplica, BuildsFigure7Structure)
{
    HwModule m = make_adder2();
    ShadowInstrumentation shadow = build_shadow_instrumentation(
        m.netlist, paper_setup_spec(m.netlist, FaultConstant::One));

    // The cone of $10 is just $10 itself; shadow adds $10_s plus the
    // fault logic, and publishes o_s.
    EXPECT_TRUE(shadow.netlist.has_bus("o_s"));
    EXPECT_TRUE(shadow.netlist.has_bus("mismatch"));
    ASSERT_EQ(shadow.state_pairs.size(), 1u);
    EXPECT_NE(find_cell(shadow.netlist, "$10_s"), kInvalidId);

    // Original outputs must be untouched: healthy sums on the o bus.
    BatchSimulator sim(shadow.netlist);
    sim.set_bus_all("a", BitVec(2, 1));
    sim.set_bus_all("b", BitVec(2, 2));
    sim.step();
    sim.step();
    EXPECT_EQ(sim.bus_value("o", 0).to_u64(), 3u);
}

TEST(ShadowReplica, CoverTraceMatchesTable2Semantics)
{
    // The paper's Table 2: with C = 1, the tool finds a 3-cycle trace
    // where o[1] != o_s[1] in the final cycle. Verify our BMC finds a
    // trace of exactly that depth and that it replays.
    HwModule m = make_adder2();
    ShadowInstrumentation shadow = build_shadow_instrumentation(
        m.netlist, paper_setup_spec(m.netlist, FaultConstant::One));

    formal::BmcOptions opts;
    opts.max_frames = 6;
    opts.state_equalities = shadow.state_pairs;
    formal::BmcResult r =
        formal::check_cover(shadow.netlist, shadow.mismatch, opts);
    ASSERT_EQ(r.status, formal::BmcStatus::Covered);
    EXPECT_EQ(r.frames, 3); // same depth as the paper's example trace

    // Replay: drive the recorded inputs; the mismatch must reproduce.
    BatchSimulator sim(shadow.netlist);
    for (int f = 0; f < r.frames; ++f) {
        sim.set_bus_all("a", r.trace.at("a", f));
        sim.set_bus_all("b", r.trace.at("b", f));
        if (f + 1 < r.frames)
            sim.step();
    }
    EXPECT_EQ(sim.bus_value("mismatch", 0).to_u64(), 1u);
    EXPECT_NE(sim.bus_value("o", 0).to_u64(),
              sim.bus_value("o_s", 0).to_u64());
}

TEST(ShadowReplica, HoldFaultCoverable)
{
    HwModule m = make_adder2();
    ShadowInstrumentation shadow = build_shadow_instrumentation(
        m.netlist, paper_hold_spec(m.netlist, FaultConstant::One));
    formal::BmcOptions opts;
    opts.max_frames = 6;
    opts.state_equalities = shadow.state_pairs;
    formal::BmcResult r =
        formal::check_cover(shadow.netlist, shadow.mismatch, opts);
    EXPECT_EQ(r.status, formal::BmcStatus::Covered);
}

TEST(ShadowReplica, SameFlopMetastableModel)
{
    // A path that starts and ends at the same flop: Y always samples C.
    HwModule m = make_adder2();
    FailureModelSpec spec;
    spec.launch = spec.capture = find_cell(m.netlist, "$9");
    spec.is_setup = false;
    spec.constant = FaultConstant::One;
    FailingNetlist failing = build_failing_netlist(m.netlist, spec);
    BatchSimulator sim(failing.netlist);
    auto out = run_pipeline(sim, {{0, 0}, {0, 0}, {0, 0}});
    for (unsigned o : out)
        EXPECT_EQ(o & 1u, 1u); // o[0] stuck at C = 1
}

TEST(ShadowReplica, UnreachableWhenFaultMasked)
{
    // C = 0 on a capture flop whose data is always 0 (a = b = 0 is
    // allowed, but the formal tool considers all inputs, so this uses a
    // crafted module where o is constant 0).
    Netlist nl("masked");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 1);
    NetId aq = b.dff(a[0]);
    NetId z = b.and_(aq, b.not_(aq)); // constant 0 through logic
    NetId o = b.dff(z);
    nl.add_output_bus("o", {o});

    FailureModelSpec spec;
    spec.launch = nl.net(aq).driver;
    spec.capture = nl.net(o).driver;
    spec.is_setup = true;
    spec.constant = FaultConstant::Zero; // C equals the only possible value
    ShadowInstrumentation shadow = build_shadow_instrumentation(nl, spec);

    formal::BmcOptions opts;
    opts.max_frames = 5;
    opts.state_equalities = shadow.state_pairs;
    formal::BmcResult r =
        formal::check_cover(shadow.netlist, shadow.mismatch, opts);
    EXPECT_EQ(r.status, formal::BmcStatus::Unreachable);
    EXPECT_TRUE(r.proven_by_induction);
}

} // namespace
} // namespace vega::lift
