#include "formal/bmc.h"

#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "rtl/blocks.h"
#include "sim/simulator.h"

namespace vega::formal {
namespace {

/** 3-bit counter; target fires when the count reaches @p goal. */
Netlist
make_counter(unsigned goal, NetId *target_out)
{
    Netlist nl("counter");
    Builder b(nl);
    // count <= count + 1 every cycle.
    std::vector<NetId> q_nets;
    for (int i = 0; i < 3; ++i)
        q_nets.push_back(nl.new_net("q" + std::to_string(i)));
    NetId carry = b.const1();
    for (int i = 0; i < 3; ++i) {
        NetId d = b.xor_(q_nets[i], carry);
        carry = b.and_(q_nets[i], carry);
        nl.add_dff("ff" + std::to_string(i), d, q_nets[i], false);
    }
    // target = (count == goal)
    std::vector<NetId> bits;
    for (int i = 0; i < 3; ++i)
        bits.push_back((goal >> i) & 1 ? q_nets[i] : b.not_(q_nets[i]));
    NetId target = b.and_n(bits);
    nl.add_output_bus("count", {q_nets[0], q_nets[1], q_nets[2]});
    nl.add_output_bus("hit", {target});
    *target_out = target;
    return nl;
}

TEST(Bmc, CounterReachesValueAtExactDepth)
{
    // From reset (0), count == 3 first holds in frame 4 (values 0,1,2,3).
    NetId target;
    Netlist nl = make_counter(3, &target);
    BmcOptions opts;
    opts.max_frames = 8;
    BmcResult r = check_cover(nl, target, opts);
    ASSERT_EQ(r.status, BmcStatus::Covered);
    EXPECT_EQ(r.frames, 4);
    // The trace's recorded output bus confirms the hit in its last cycle.
    EXPECT_EQ(r.trace.at("hit", r.frames - 1).to_u64(), 1u);
    EXPECT_EQ(r.trace.at("count", r.frames - 1).to_u64(), 3u);
}

TEST(Bmc, BoundTooShallowTimesOutIntoUnreachable)
{
    // count == 5 needs 6 frames; with max_frames = 3 the reset-bounded
    // search fails but the free-state check finds it reachable from some
    // state, so the bounded-exhaustion fallback reports unreachable with
    // proven_by_induction = false.
    NetId target;
    Netlist nl = make_counter(5, &target);
    BmcOptions opts;
    opts.max_frames = 3;
    BmcResult r = check_cover(nl, target, opts);
    EXPECT_EQ(r.status, BmcStatus::Unreachable);
    EXPECT_FALSE(r.proven_by_induction);
}

TEST(Bmc, ImpossibleCoverProvenUnreachable)
{
    // target = q & !q is structurally false: the free-state check proves
    // it, yielding a by-induction unreachability verdict — also with no
    // bound to search at all.
    Netlist nl("t");
    Builder b(nl);
    auto d = nl.add_input_bus("d", 1);
    NetId q = b.dff(d[0]);
    NetId target = b.and_(q, b.not_(q));
    nl.add_output_bus("o", {target});

    for (int frames : {4, 0}) {
        BmcOptions opts;
        opts.max_frames = frames;
        BmcResult r = check_cover(nl, target, opts);
        EXPECT_EQ(r.status, BmcStatus::Unreachable) << frames;
        EXPECT_TRUE(r.proven_by_induction) << frames;
    }
}

TEST(Bmc, AssumesConstrainInputs)
{
    // target = !a; with assume(a) it can never fire.
    Netlist nl("t");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 1);
    NetId q = b.dff(a[0]);
    NetId target = b.not_(q);
    nl.add_output_bus("o", {q});

    // Unconstrained: trivially coverable.
    {
        BmcOptions opts;
        opts.max_frames = 3;
        BmcResult r = check_cover(nl, target, opts);
        EXPECT_EQ(r.status, BmcStatus::Covered);
    }
    // Assumed a == 1 every cycle: q is 1 from frame 1 on; frame 0 has
    // the reset value 0, so the cover still fires at frame 1... unless
    // the reset value already blocks it. q resets to 0 => target = 1 at
    // frame 0. Use init = 1 to close that hole.
    Netlist nl2("t2");
    Builder b2(nl2);
    auto a2 = nl2.add_input_bus("a", 1);
    NetId q2 = nl2.new_net("q2");
    nl2.add_dff("ff", a2[0], q2, /*init=*/true);
    NetId target2 = b2.not_(q2);
    nl2.add_output_bus("o", {q2});
    {
        BmcOptions opts;
        opts.max_frames = 4;
        opts.assumes = {a2[0]};
        BmcResult r = check_cover(nl2, target2, opts);
        EXPECT_EQ(r.status, BmcStatus::Unreachable);
    }
}

TEST(Bmc, TraceReplaysOnSimulator)
{
    // Whatever input trace BMC returns must reproduce the cover when
    // replayed cycle-by-cycle on the simulator.
    Netlist nl("replay");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 4);
    // q captures a; target = q == 0b1010 (requires specific inputs).
    Bus q;
    for (int i = 0; i < 4; ++i)
        q.push_back(b.dff(a[size_t(i)]));
    std::vector<NetId> bits{b.not_(q[0]), q[1], b.not_(q[2]), q[3]};
    NetId target = b.and_n(bits);
    nl.add_output_bus("q", q);
    nl.add_output_bus("hit", {target});

    BmcOptions opts;
    opts.max_frames = 4;
    BmcResult r = check_cover(nl, target, opts);
    ASSERT_EQ(r.status, BmcStatus::Covered);

    Simulator sim(nl);
    for (int f = 0; f < r.frames; ++f) {
        sim.set_bus("a", r.trace.at("a", f));
        if (f + 1 < r.frames)
            sim.step();
    }
    EXPECT_EQ(sim.value(target), true);
}

TEST(Bmc, ConflictBudgetYieldsTimeout)
{
    // target = (a * b == 143): needs search (11 * 13), and the solver's
    // default all-false phase guesses conflict before finding it, so a
    // zero conflict budget must surface as Timeout ("FF" in Table 4).
    Netlist nl("mul");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 4);
    auto bb = nl.add_input_bus("b", 4);
    Bus aq, bq;
    for (int i = 0; i < 4; ++i) {
        aq.push_back(b.dff(a[size_t(i)]));
        bq.push_back(b.dff(bb[size_t(i)]));
    }
    Bus p = rtl::multiply(b, aq, bq);
    NetId target = rtl::bus_eq(b, p, b.const_bus(8, 143));
    nl.add_output_bus("p", p);

    BmcOptions opts;
    opts.max_frames = 4;
    {
        BmcOptions tight = opts;
        tight.conflict_budget = 0;
        BmcResult r = check_cover(nl, target, tight);
        EXPECT_EQ(r.status, BmcStatus::Timeout);
    }
    {
        BmcResult r = check_cover(nl, target, opts);
        ASSERT_EQ(r.status, BmcStatus::Covered);
        uint64_t va = r.trace.at("a", 0).to_u64();
        uint64_t vb = r.trace.at("b", 0).to_u64();
        EXPECT_EQ(va * vb, 143u);
    }
}

TEST(Bmc, StateEqualitiesRestrictFreeStart)
{
    // Two free-running toggles with different inits; target = (q1 != q2).
    // From reset they differ every cycle => covered quickly. With a
    // shallow bound of 0... instead check the free-state path: tie q1=q2
    // at start, and make the target require q1 != q2 while inputs cannot
    // break the tie => unreachable by induction.
    Netlist nl("ties");
    Builder b(nl);
    NetId q1 = nl.new_net("q1");
    NetId q2 = nl.new_net("q2");
    NetId d1 = b.not_(q1);
    NetId d2 = b.not_(q2);
    nl.add_dff("f1", d1, q1, false);
    nl.add_dff("f2", d2, q2, false);
    NetId target = b.xor_(q1, q2);
    nl.add_output_bus("o", {target});

    BmcOptions opts;
    opts.max_frames = 4;
    opts.state_equalities = {{q1, q2}};
    BmcResult r = check_cover(nl, target, opts);
    EXPECT_EQ(r.status, BmcStatus::Unreachable);
    EXPECT_TRUE(r.proven_by_induction);
}

TEST(Bmc, ShortestTraceFirst)
{
    // Cover reachable at frames 2 and later; BMC must return frame 2.
    Netlist nl("short");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 1);
    NetId q1 = b.dff(a[0]);
    NetId q2 = b.dff(q1);
    nl.add_output_bus("o", {q2});

    BmcOptions opts;
    opts.max_frames = 6;
    BmcResult r = check_cover(nl, q2, opts);
    ASSERT_EQ(r.status, BmcStatus::Covered);
    EXPECT_EQ(r.frames, 3); // a=1 at frame 0 propagates to q2 by frame 2
}

} // namespace
} // namespace vega::formal
