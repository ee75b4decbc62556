#include "sta/sta.h"

#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "rtl/adder2.h"
#include "sim/batch_sim.h"
#include "sta/clock_analysis.h"

namespace vega::sta {
namespace {

using aging::AgingTimingLibrary;
using aging::RdModelParams;

const AgingTimingLibrary &
lib()
{
    static AgingTimingLibrary l = AgingTimingLibrary::build(RdModelParams{});
    return l;
}

/** a -> NOT -> AND(a, .) -> DFF: two paths of delay 24 and 35 ps. */
HwModule
make_two_path_module(double period)
{
    HwModule m;
    Netlist &nl = m.netlist;
    nl.set_name("twopath");
    nl.set_clock_period_ps(period);
    Builder b(nl);
    auto a = nl.add_input_bus("a", 1);
    NetId n1 = b.not_(a[0]);
    NetId d = b.and_(n1, a[0]);
    NetId q = b.dff(d);
    nl.add_output_bus("q", {q});
    return m;
}

TEST(Sta, FreshArrivalHandComputed)
{
    HwModule m = make_two_path_module(1000.0);
    SpProfile neutral(m.netlist.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    // Longest path: NOT (11) + AND (24) + DFF setup (38) = 73.
    EXPECT_NEAR(critical_path_delay(m, t), 73.0, 1e-9);
}

TEST(Sta, CleanModuleHasNoViolations)
{
    HwModule m = make_two_path_module(1000.0);
    SpProfile neutral(m.netlist.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    StaResult r = run_sta(m, t);
    EXPECT_EQ(r.num_setup_violations, 0u);
    EXPECT_EQ(r.num_hold_violations, 0u);
    EXPECT_GT(r.wns_setup, 0.0);
    EXPECT_GT(r.wns_hold, 0.0);
    EXPECT_TRUE(r.pairs.empty());
}

TEST(Sta, TightPeriodFlagsExactlyTheLongPath)
{
    // limit = period - setup = 70 - 38 = 32; only the 35 ps path fails.
    HwModule m = make_two_path_module(70.0);
    SpProfile neutral(m.netlist.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    StaResult r = run_sta(m, t);
    EXPECT_EQ(r.num_setup_violations, 1u);
    EXPECT_NEAR(r.wns_setup, -3.0, 1e-9);
    ASSERT_EQ(r.pairs.size(), 1u);
    EXPECT_EQ(r.pairs[0].launch, kInvalidId); // primary-input start
    EXPECT_EQ(r.pairs[0].worst.cells.size(), 2u); // NOT then AND
}

TEST(Sta, TighterPeriodFlagsBothPaths)
{
    // limit = 60 - 38 = 22: both the 24 and 35 ps paths fail, sharing
    // one endpoint pair.
    HwModule m = make_two_path_module(60.0);
    SpProfile neutral(m.netlist.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    StaResult r = run_sta(m, t);
    EXPECT_EQ(r.num_setup_violations, 2u);
    ASSERT_EQ(r.pairs.size(), 1u);
    EXPECT_EQ(r.pairs[0].path_count, 2u);
    EXPECT_NEAR(r.pairs[0].worst.slack, 22.0 - 35.0, 1e-9);
}

TEST(Sta, HoldViolationFromClockSkew)
{
    // Direct DFF->DFF wire; the capture flop's clock leaf is 50 ps later.
    HwModule m;
    Netlist &nl = m.netlist;
    nl.set_clock_period_ps(1000.0);
    uint32_t leaf_a = m.clock.add_buffer(0, "a", 0.0, 0.0, 0.5);
    uint32_t leaf_b = m.clock.add_buffer(0, "b", 50.0, 50.0, 0.5);
    Builder b(nl);
    auto d = nl.add_input_bus("d", 1);
    NetId q1 = b.dff(d[0], false, leaf_a);
    NetId q2 = b.dff(q1, false, leaf_b);
    nl.add_output_bus("q", {q2});

    SpProfile neutral(nl.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    StaResult r = run_sta(m, t);
    // slack = launch(0) + clk2q_min(26) - capture(50) - hold(16) = -40.
    EXPECT_EQ(r.num_hold_violations, 1u);
    EXPECT_NEAR(r.wns_hold, -40.0, 1e-9);
    ASSERT_EQ(r.pairs.size(), 1u);
    EXPECT_FALSE(r.pairs[0].is_setup);
    EXPECT_EQ(r.pairs[0].launch, nl.net(q1).driver);
}

TEST(Sta, BalancedTreeHasNoFreshSkew)
{
    ClockTree tree;
    auto leaves = tree.grow_balanced(3, 20.0, 12.0);
    ClockTiming ct = analyze_clock_tree(tree, lib(), 0.0);
    for (uint32_t l : leaves)
        EXPECT_DOUBLE_EQ(ct.arrival_max[l], 60.0);
    EXPECT_NEAR(worst_skew(ct), 60.0, 1e-9); // root-to-leaf spread only
}

TEST(Sta, GatedSubtreeAgesLate)
{
    ClockTree tree;
    auto leaves = tree.grow_balanced(2, 100.0, 60.0);
    tree.set_gated_region(2, 0.02); // right half parks at 0
    ClockTiming fresh = analyze_clock_tree(tree, lib(), 0.0);
    EXPECT_DOUBLE_EQ(fresh.arrival_max[leaves[0]],
                     fresh.arrival_max[leaves[3]]);
    ClockTiming aged = analyze_clock_tree(tree, lib(), 10.0);
    double free_arrival = aged.arrival_max[leaves[0]];
    double gated_arrival = aged.arrival_max[leaves[3]];
    EXPECT_GT(gated_arrival, free_arrival);
    EXPECT_GT(gated_arrival - free_arrival, 0.5); // material skew, ps
}

TEST(Sta, CalibrationHitsUtilizationTarget)
{
    // Timing closure is on slack: the fresh worst setup slack must land
    // exactly on the (1 - utilization) margin.
    HwModule m = rtl::make_adder2();
    calibrate_timing_scale(m, lib(), 0.95);
    SpProfile neutral(m.netlist.num_cells());
    AgedTiming t = compute_aged_timing(m, neutral, lib(), 0.0);
    EXPECT_NEAR(run_sta(m, t).wns_setup,
                0.05 * m.netlist.clock_period_ps(), 1e-6);
}

TEST(Sta, AgedAdderViolatesWhenParkedAtZero)
{
    // §3.2.2's story on the example adder: a tight design plus ten years
    // of parked-at-0 stress breaks setup.
    HwModule m = rtl::make_adder2();
    calibrate_timing_scale(m, lib(), 0.99);

    BatchSimulator sim(m.netlist);
    auto profile = profile_signal_probability(
        sim, 200, [](BatchSimulator &, uint64_t) {}); // inputs held at 0

    AgedTiming fresh = compute_aged_timing(m, profile, lib(), 0.0);
    EXPECT_GE(run_sta(m, fresh).wns_setup, 0.0);

    AgedTiming aged = compute_aged_timing(m, profile, lib(), 10.0);
    StaResult r = run_sta(m, aged);
    EXPECT_LT(r.wns_setup, 0.0);
    EXPECT_GT(r.num_setup_violations, 0u);
    // The worst path ends at $10 through $8 (the o[1] cone), the same
    // path the paper's walkthrough flags.
    ASSERT_FALSE(r.pairs.empty());
    EXPECT_EQ(m.netlist.cell(r.pairs[0].capture).name, "$10");
}

TEST(Sta, AgingOnlyWorsensSlack)
{
    HwModule m = rtl::make_adder2();
    calibrate_timing_scale(m, lib(), 0.9);
    SpProfile neutral(m.netlist.num_cells());
    double prev = 1e30;
    for (double y : {0.0, 1.0, 5.0, 10.0}) {
        AgedTiming t = compute_aged_timing(m, neutral, lib(), y);
        StaResult r = run_sta(m, t);
        EXPECT_LE(r.wns_setup, prev + 1e-9);
        prev = r.wns_setup;
    }
}

} // namespace
} // namespace vega::sta
