#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "rtl/adder2.h"
#include "sim/sp_profiler.h"
#include "sim/waveform.h"
#include "sta/sta.h"

namespace vega {
namespace {

TEST(SpActivity, TogglingCellHasFullActivity)
{
    // q <= !q toggles every cycle; a constant never moves.
    Netlist nl("t");
    Builder b(nl);
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    CellId inv = nl.add_cell(CellType::Not, "inv", {q}, d);
    CellId ff = nl.add_dff("ff", d, q, false);
    NetId one = b.const1();
    nl.add_output_bus("o", {q, one});

    BatchSimulator sim(nl);
    SpProfile p = profile_signal_probability(
        sim, 512, [](BatchSimulator &, uint64_t) {});
    EXPECT_NEAR(p.activity(ff), 1.0, 0.01);
    EXPECT_NEAR(p.activity(inv), 1.0, 0.01);
    EXPECT_DOUBLE_EQ(p.activity(nl.net(one).driver), 0.0);
}

TEST(SpActivity, DividerChainHalvesActivity)
{
    // Two-bit counter: bit0 toggles every cycle, bit1 every other.
    Netlist nl("ctr");
    Builder b(nl);
    NetId q0 = nl.new_net("q0");
    NetId q1 = nl.new_net("q1");
    NetId d0 = b.not_(q0);
    NetId d1 = b.xor_(q1, q0);
    CellId f0 = nl.add_dff("f0", d0, q0, false);
    CellId f1 = nl.add_dff("f1", d1, q1, false);
    nl.add_output_bus("o", {q0, q1});

    BatchSimulator sim(nl);
    SpProfile p = profile_signal_probability(
        sim, 1024, [](BatchSimulator &, uint64_t) {});
    EXPECT_NEAR(p.activity(f0), 1.0, 0.01);
    EXPECT_NEAR(p.activity(f1), 0.5, 0.01);
}

TEST(SpActivity, MergedProfilesAccumulateTransitions)
{
    Netlist nl("t");
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    nl.add_cell(CellType::Not, "inv", {q}, d);
    CellId ff = nl.add_dff("ff", d, q, false);
    nl.add_output_bus("o", {q});

    BatchSimulator sim(nl);
    SpProfile p1 = profile_signal_probability(
        sim, 100, [](BatchSimulator &, uint64_t) {});
    SpProfile p2 = profile_signal_probability(
        sim, 100, [](BatchSimulator &, uint64_t) {});
    p1.merge(p2);
    EXPECT_GT(p1.activity(ff), 0.9);
}

TEST(IrDrop, DerateOnlySlowsActiveCells)
{
    HwModule m = rtl::make_adder2();
    BatchSimulator sim(m.netlist);
    // Toggle everything to build up activity.
    SpProfile p = profile_signal_probability(
        sim, 256, [](BatchSimulator &s, uint64_t t) {
            s.set_bus_all("a", BitVec(2, t % 4));
            s.set_bus_all("b", BitVec(2, (t / 2) % 4));
        });
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});

    sta::IrDropParams off;
    sta::IrDropParams on;
    on.enable = true;
    on.sensitivity = 0.05;
    sta::AgedTiming base =
        sta::compute_aged_timing(m, p, lib, 10.0, off);
    sta::AgedTiming derated =
        sta::compute_aged_timing(m, p, lib, 10.0, on);

    bool some_slower = false;
    for (CellId c = 0; c < m.netlist.num_cells(); ++c) {
        EXPECT_GE(derated.delay_max[c] + derated.clk_to_q_max[c],
                  base.delay_max[c] + base.clk_to_q_max[c] - 1e-12);
        if (derated.delay_max[c] > base.delay_max[c] + 1e-12)
            some_slower = true;
        // Min arcs are untouched: pessimistic for setup only.
        EXPECT_DOUBLE_EQ(derated.delay_min[c], base.delay_min[c]);
    }
    EXPECT_TRUE(some_slower);
}

TEST(EndpointSlacks, ReportsEveryDff)
{
    HwModule m = rtl::make_adder2();
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    sta::calibrate_timing_scale(m, lib, 0.9);
    SpProfile neutral(m.netlist.num_cells());
    sta::AgedTiming t = sta::compute_aged_timing(m, neutral, lib, 0.0);
    auto slacks = sta::endpoint_slacks(m, t);
    EXPECT_EQ(slacks.size(), m.netlist.dffs().size());
    double wns = 1e30;
    for (const auto &s : slacks)
        wns = std::min(wns, s.setup_slack);
    EXPECT_NEAR(wns, sta::run_sta(m, t).wns_setup, 1e-9);
}

TEST(Waveform, TableRendersAllSignalsAndCycles)
{
    Waveform w;
    w.record("a", BitVec(2, 1));
    w.record("o", BitVec(2, 0));
    w.record("a", BitVec(2, 3));
    w.record("o", BitVec(2, 2));
    std::string table = w.to_table();
    EXPECT_NE(table.find("cyc1"), std::string::npos);
    EXPECT_NE(table.find("cyc2"), std::string::npos);
    EXPECT_NE(table.find("'b01"), std::string::npos);
    EXPECT_NE(table.find("'b11"), std::string::npos);
    EXPECT_NE(table.find("'b10"), std::string::npos);
}

TEST(Waveform, AtChecksBounds)
{
    Waveform w;
    w.record("a", BitVec(1, 1));
    EXPECT_DEATH(w.at("missing", 0), "no signal");
    EXPECT_DEATH(w.at("a", 5), "out of range");
}

} // namespace
} // namespace vega
