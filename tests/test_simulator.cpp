/**
 * @file
 * Simulation semantics (combinational settle, atomic DFF commit, reset,
 * buses, shared tapes) and SP profiling, exercised the way
 * single-stream consumers use BatchSimulator: every lane driven alike,
 * lane 0 read.
 */
#include "sim/batch_sim.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "netlist/builder.h"
#include "rtl/alu32.h"
#include "sim/sp_profiler.h"

namespace vega {
namespace {

TEST(BatchSimulator, CombinationalEval)
{
    Netlist nl("t");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 2);
    NetId y = b.xor_(a[0], a[1]);
    nl.add_output_bus("y", {y});

    BatchSimulator sim(nl);
    for (int va = 0; va < 2; ++va) {
        for (int vb = 0; vb < 2; ++vb) {
            sim.set_input_all(a[0], va);
            sim.set_input_all(a[1], vb);
            EXPECT_EQ(sim.value_lane(y, 0), va != vb);
        }
    }
}

TEST(BatchSimulator, DffDelaysOneCycle)
{
    Netlist nl("t");
    Builder b(nl);
    auto d = nl.add_input_bus("d", 1);
    NetId q = b.dff(d[0], false);
    nl.add_output_bus("q", {q});

    BatchSimulator sim(nl);
    EXPECT_FALSE(sim.value_lane(q, 0)); // init value
    sim.set_input_all(d[0], true);
    EXPECT_FALSE(sim.value_lane(q, 0)); // not clocked yet
    sim.step();
    EXPECT_TRUE(sim.value_lane(q, 0));
    sim.set_input_all(d[0], false);
    sim.step();
    EXPECT_FALSE(sim.value_lane(q, 0));
}

TEST(BatchSimulator, DffInitValueAppliesAtReset)
{
    Netlist nl("t");
    Builder b(nl);
    auto d = nl.add_input_bus("d", 1);
    NetId q = b.dff(d[0], true);
    nl.add_output_bus("q", {q});

    BatchSimulator sim(nl);
    EXPECT_TRUE(sim.value_lane(q, 0));
    sim.step(); // d = 0 -> q drops
    EXPECT_FALSE(sim.value_lane(q, 0));
    sim.reset();
    EXPECT_TRUE(sim.value_lane(q, 0));
    EXPECT_EQ(sim.cycle(), 0u);
}

TEST(BatchSimulator, ToggleCounterChain)
{
    // q <= !q : a 1-bit divider.
    Netlist nl("t");
    Builder b(nl);
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    nl.add_cell(CellType::Not, "inv", {q}, d);
    nl.add_dff("ff", d, q, false);
    nl.add_output_bus("q", {q});

    BatchSimulator sim(nl);
    bool expected = false;
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(sim.value_lane(q, 0), expected);
        sim.step();
        expected = !expected;
    }
    EXPECT_EQ(sim.cycle(), 10u);
}

TEST(BatchSimulator, AtomicDffCommit)
{
    // Shift register: q2 must get q1's *old* value on the same edge.
    Netlist nl("t");
    Builder b(nl);
    auto d = nl.add_input_bus("d", 1);
    NetId q1 = b.dff(d[0]);
    NetId q2 = b.dff(q1);
    nl.add_output_bus("q", {q1, q2});

    BatchSimulator sim(nl);
    sim.set_input_all(d[0], true);
    sim.step();
    EXPECT_TRUE(sim.value_lane(q1, 0));
    EXPECT_FALSE(sim.value_lane(q2, 0)); // not yet
    sim.step();
    EXPECT_TRUE(sim.value_lane(q2, 0));
}

TEST(BatchSimulator, BusRoundTrip)
{
    Netlist nl("t");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 8);
    Bus q;
    for (NetId n : a)
        q.push_back(b.dff(n));
    nl.add_output_bus("q", q);

    BatchSimulator sim(nl);
    sim.set_bus_all("a", BitVec(8, 0x5a));
    sim.step();
    EXPECT_EQ(sim.bus_value("q", 0).to_u64(), 0x5au);
}

TEST(BatchSimulator, SharedTapeMatchesPrivateTape)
{
    // Two simulators over one compiled tape are fully independent and
    // agree with a simulator that lowered the netlist itself.
    Netlist nl("t");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 4);
    Bus q;
    for (NetId n : a)
        q.push_back(b.dff(b.not_(n)));
    nl.add_output_bus("q", q);

    auto tape = std::make_shared<const EvalTape>(nl);
    BatchSimulator s1(tape), s2(tape), owned(nl);
    s1.set_bus_all("a", BitVec(4, 0x5));
    s2.set_bus_all("a", BitVec(4, 0xa));
    owned.set_bus_all("a", BitVec(4, 0x5));
    s1.step();
    s2.step();
    owned.step();
    EXPECT_EQ(s1.bus_value("q", 0).to_u64(), 0xau);
    EXPECT_EQ(s2.bus_value("q", 0).to_u64(), 0x5u);
    EXPECT_EQ(s1.bus_value("q", 0), owned.bus_value("q", 0));
}

TEST(SpProfiler, CountsOnesFraction)
{
    // A constant-1 cell should profile SP = 1, constant-0 SP = 0, and a
    // toggling divider SP = 0.5.
    Netlist nl("t");
    Builder b(nl);
    NetId one = b.const1();
    NetId zero = b.const0();
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    CellId inv = nl.add_cell(CellType::Not, "inv", {q}, d);
    CellId ff = nl.add_dff("ff", d, q, false);
    nl.add_output_bus("o", {one, zero, q});

    BatchSimulator sim(nl);
    auto profile = profile_signal_probability(
        sim, 1000, [](BatchSimulator &, uint64_t) {});

    EXPECT_EQ(profile.samples(), 1000u);
    EXPECT_DOUBLE_EQ(profile.sp(nl.net(one).driver), 1.0);
    EXPECT_DOUBLE_EQ(profile.sp(nl.net(zero).driver), 0.0);
    EXPECT_NEAR(profile.sp(ff), 0.5, 0.01);
    EXPECT_NEAR(profile.sp(inv), 0.5, 0.01);
}

TEST(SpProfiler, MergeAccumulates)
{
    Netlist nl("t");
    Builder b(nl);
    NetId one = b.const1();
    nl.add_output_bus("o", {one});
    BatchSimulator sim(nl);

    auto p1 = profile_signal_probability(
        sim, 10, [](BatchSimulator &, uint64_t) {});
    auto p2 = profile_signal_probability(
        sim, 30, [](BatchSimulator &, uint64_t) {});
    p1.merge(p2);
    EXPECT_EQ(p1.samples(), 40u);
    EXPECT_DOUBLE_EQ(p1.sp(0), 1.0);
}

/**
 * The per-cycle sampler profile_signal_probability's packed counts
 * replaced: reads every cell's output in lane 0 once per cycle.
 */
SpProfile
per_cycle_profile(BatchSimulator &sim, uint64_t cycles,
                  const SpDriveFn &drive)
{
    const Netlist &nl = sim.netlist();
    std::vector<uint64_t> ones(nl.num_cells(), 0);
    std::vector<uint64_t> toggles(nl.num_cells(), 0);
    std::vector<uint8_t> prev(nl.num_cells(), 0);
    for (uint64_t t = 0; t < cycles; ++t) {
        drive(sim, t);
        sim.eval();
        for (CellId c = 0; c < nl.num_cells(); ++c) {
            uint8_t v = sim.value_lane(nl.cell(c).out, 0) ? 1 : 0;
            ones[c] += v;
            if (t > 0 && v != prev[c])
                ++toggles[c];
            prev[c] = v;
        }
        sim.step();
    }
    return SpProfile(std::move(ones), std::move(toggles), cycles);
}

/** Random ALU operands and op, a pure function of (seed, cycle). */
SpDriveFn
random_alu_stimulus(uint64_t seed)
{
    return [seed](BatchSimulator &s, uint64_t t) {
        uint64_t x = seed * 0x100000001b3ull + t;
        uint64_t ab = splitmix64(x);
        size_t op_width = s.netlist().bus("op").size();
        s.set_bus_all("a", BitVec(32, ab & 0xffffffffu));
        s.set_bus_all("b", BitVec(32, ab >> 32));
        s.set_bus_all("op", BitVec(op_width, splitmix64(x)));
    };
}

void
expect_same_profile(const SpProfile &packed, const SpProfile &oracle,
                    const Netlist &nl, uint64_t cycles)
{
    ASSERT_EQ(packed.samples(), oracle.samples()) << cycles << " cycles";
    ASSERT_EQ(packed.num_cells(), nl.num_cells());
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        ASSERT_EQ(packed.sp(c), oracle.sp(c))
            << cycles << " cycles, cell " << nl.cell(c).name;
        ASSERT_EQ(packed.activity(c), oracle.activity(c))
            << cycles << " cycles, cell " << nl.cell(c).name;
    }
}

TEST(SpProfiler, PackedCountsMatchPerCycleOracle)
{
    // Window edges: one sample, a partial window, exactly one, one past
    // it, and several windows with a partial tail.
    HwModule alu = rtl::make_alu32();
    const Netlist &nl = alu.netlist;
    SpProfile packed_merged(nl.num_cells()), oracle_merged(nl.num_cells());
    for (uint64_t cycles : {1, 63, 64, 65, 200}) {
        BatchSimulator packed_sim(nl), oracle_sim(nl);
        SpProfile packed = profile_signal_probability(
            packed_sim, cycles, random_alu_stimulus(cycles));
        SpProfile oracle = per_cycle_profile(oracle_sim, cycles,
                                             random_alu_stimulus(cycles));
        expect_same_profile(packed, oracle, nl, cycles);
        if (cycles == 65 || cycles == 200) {
            packed_merged.merge(packed);
            oracle_merged.merge(oracle);
        }
    }
    expect_same_profile(packed_merged, oracle_merged, nl, 265);
}

} // namespace
} // namespace vega
