#include "rtl/adder2.h"

#include <gtest/gtest.h>

#include "sim/batch_sim.h"
#include "sim/sp_profiler.h"

namespace vega::rtl {
namespace {

TEST(Adder2, MatchesFigure3Structure)
{
    HwModule m = make_adder2();
    const Netlist &nl = m.netlist;
    auto hist = nl.type_histogram();
    EXPECT_EQ(hist[CellType::Dff], 6u);  // $1..$4, $9, $10
    EXPECT_EQ(hist[CellType::Xor2], 3u); // $5, $7, $8
    EXPECT_EQ(hist[CellType::And2], 1u); // $6
    EXPECT_EQ(nl.num_cells(), 10u);
    EXPECT_DOUBLE_EQ(nl.clock_period_ps(), 1000.0);
}

TEST(Adder2, TwoCyclePipelinedSum)
{
    HwModule m = make_adder2();
    BatchSimulator sim(m.netlist);

    // Drive (a, b) pairs back to back; o shows a+b two cycles later.
    struct Step { unsigned a, b; };
    std::vector<Step> steps{{1, 3}, {3, 0}, {3, 1}, {2, 2}, {0, 0}};
    std::vector<unsigned> results;
    for (size_t t = 0; t < steps.size() + 2; ++t) {
        if (t < steps.size()) {
            sim.set_bus_all("a", BitVec(2, steps[t].a));
            sim.set_bus_all("b", BitVec(2, steps[t].b));
        }
        if (t >= 2)
            results.push_back(unsigned(sim.bus_value("o", 0).to_u64()));
        sim.step();
    }
    ASSERT_EQ(results.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i)
        EXPECT_EQ(results[i], (steps[i].a + steps[i].b) & 3u) << i;
}

TEST(Adder2, ExhaustiveSingleOp)
{
    HwModule m = make_adder2();
    BatchSimulator sim(m.netlist);
    for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = 0; b < 4; ++b) {
            sim.reset();
            sim.set_bus_all("a", BitVec(2, a));
            sim.set_bus_all("b", BitVec(2, b));
            sim.step();
            sim.step();
            EXPECT_EQ(sim.bus_value("o", 0).to_u64(), (a + b) & 3u);
        }
    }
}

TEST(Adder2, SpProfileReflectsStimulus)
{
    // Hold a = b = 0: every non-constant signal rests at 0 => SP 0.
    HwModule m = make_adder2();
    BatchSimulator sim(m.netlist);
    auto p0 = profile_signal_probability(
        sim, 100, [](BatchSimulator &, uint64_t) {});
    for (CellId c = 0; c < m.netlist.num_cells(); ++c)
        EXPECT_DOUBLE_EQ(p0.sp(c), 0.0);

    // Hold a = b = 3: aq/bq rest at 1, carry at 1, sums at 2 -> o = 2.
    sim.reset();
    auto p1 = profile_signal_probability(
        sim, 100, [](BatchSimulator &s, uint64_t) {
            s.set_bus_all("a", BitVec(2, 3));
            s.set_bus_all("b", BitVec(2, 3));
        });
    // XOR $5 output: aq0^bq0 = 0 steady state.
    // AND $6 (carry): 1.
    double carry_sp = 0.0, dff_sp = 0.0;
    for (CellId c = 0; c < m.netlist.num_cells(); ++c) {
        const Cell &cell = m.netlist.cell(c);
        if (cell.name == "$6")
            carry_sp = p1.sp(c);
        if (cell.name == "$1")
            dff_sp = p1.sp(c);
    }
    EXPECT_GT(carry_sp, 0.95);
    EXPECT_GT(dff_sp, 0.95);
}

TEST(Adder2, ClockTreeHasTwoLeaves)
{
    HwModule m = make_adder2();
    EXPECT_GE(m.clock.size(), 3u); // root + 2 leaves
    // $1..$4 and $9/$10 sit on different leaves.
    auto dffs = m.netlist.dffs();
    ASSERT_EQ(dffs.size(), 6u);
    EXPECT_NE(m.netlist.cell(dffs[0]).clock_leaf,
              m.netlist.cell(dffs[4]).clock_leaf);
}

} // namespace
} // namespace vega::rtl
