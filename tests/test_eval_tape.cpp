/**
 * @file
 * The compiled-tape contract: BatchSimulator, the only EvalTape
 * interpreter, must behave exactly like the pre-tape levelized
 * simulator (ReferenceSim, tests/reference_sim.h). Every lane is
 * checked against its own ReferenceSim in lockstep, on random
 * sequential netlists (full settles after each edge and input-only
 * settles after re-driven inputs), on the real ALU32/FPU32/MDU32
 * blocks and on an ALU32 fault bank, reading every net, and lanes
 * driven alike must all match it (single-stream consumers read lane
 * 0). The folded lowering's slot layout, save/restore round-trips and
 * the input-only bus writes are pinned here too.
 */
#include "sim/eval_tape.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "lift/failure_model.h"
#include "netlist/builder.h"
#include "reference_sim.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "rtl/mdu32.h"
#include "runtime/test_case.h"
#include "sim/batch_sim.h"

namespace vega {
namespace {

/**
 * Random sequential netlist: a soup of gates over the inputs plus
 * DFF-driven feedback nets, so batches exercise state commit as well
 * as combinational settling.
 */
Netlist
random_netlist(uint64_t seed, size_t n_inputs, size_t n_cells,
               size_t n_ffs)
{
    Rng rng(seed);
    Netlist nl("rand" + std::to_string(seed));
    Builder b(nl);
    auto ins = nl.add_input_bus("a", n_inputs);
    std::vector<NetId> pool(ins.begin(), ins.end());

    std::vector<NetId> fb;
    for (size_t i = 0; i < n_ffs; ++i) {
        NetId q = nl.new_net("fb" + std::to_string(i));
        fb.push_back(q);
        pool.push_back(q);
    }

    for (size_t i = 0; i < n_cells; ++i) {
        NetId x = pool[rng.below(pool.size())];
        NetId y = pool[rng.below(pool.size())];
        NetId s = pool[rng.below(pool.size())];
        NetId o = kInvalidId;
        switch (rng.below(11)) {
          case 0: o = b.buf(x); break;
          case 1: o = b.not_(x); break;
          case 2: o = b.and_(x, y); break;
          case 3: o = b.or_(x, y); break;
          case 4: o = b.xor_(x, y); break;
          case 5: o = b.nand_(x, y); break;
          case 6: o = b.nor_(x, y); break;
          case 7: o = b.xnor_(x, y); break;
          case 8: o = b.mux(x, y, s); break;
          case 9: o = b.const0(); break;
          case 10: o = b.const1(); break;
        }
        pool.push_back(o);
    }

    for (size_t i = 0; i < n_ffs; ++i)
        nl.add_dff("ff" + std::to_string(i),
                   pool[rng.below(pool.size())], fb[i], rng.chance(0.5));

    Bus outs;
    for (size_t i = 0; i < 8 && i < pool.size(); ++i)
        outs.push_back(pool[pool.size() - 1 - i]);
    nl.add_output_bus("r", outs);
    return nl;
}

TEST(EvalTape, LowersEveryNetToASlot)
{
    Netlist nl = random_netlist(11, 8, 200, 6);
    EvalTape tape(nl);
    // slot() is total, and every slot holds some net's value.
    std::vector<bool> read(tape.num_slots(), false);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_LT(tape.slot(n), tape.num_slots()) << nl.net(n).name;
        read[tape.slot(n)] = true;
    }
    EXPECT_EQ(std::count(read.begin(), read.end(), false), 0);
    // Primary inputs and DFF Qs keep distinct slots of their own: inputs
    // in [0, num_inputs()), Qs after them and before the stream.
    std::vector<bool> owned(tape.num_slots(), false);
    for (NetId in : nl.primary_inputs()) {
        SlotId s = tape.slot(in);
        EXPECT_LT(s, tape.num_inputs());
        EXPECT_FALSE(owned[s]) << "slot " << s << " owned twice";
        owned[s] = true;
    }
    size_t n_comb = 0, n_dff = 0;
    for (const Cell &c : nl.cells()) {
        if (c.type == CellType::Dff) {
            ++n_dff;
            SlotId s = tape.slot(c.out);
            EXPECT_GE(s, tape.num_inputs());
            EXPECT_LT(s, tape.first_out_slot());
            EXPECT_FALSE(owned[s]) << "slot " << s << " owned twice";
            owned[s] = true;
        } else if (c.type != CellType::Const0 &&
                   c.type != CellType::Const1) {
            ++n_comb;
        }
    }
    EXPECT_EQ(tape.num_inputs(), nl.primary_inputs().size());
    EXPECT_EQ(tape.dff_rules().size(), n_dff);
    // Instruction i writes slot first_out_slot() + i, so the stream's
    // outputs are the last slots. Folding keeps at most two constant
    // slots and at most one instruction per non-constant cell.
    EXPECT_EQ(tape.first_out_slot() + tape.num_instrs(), tape.num_slots());
    EXPECT_LE(tape.const_rules().size(), 2u);
    EXPECT_LE(tape.num_instrs(), n_comb);
}

TEST(EvalTape, FoldsConstantsAliasesAndDuplicates)
{
    // One instance of each fold rule, plus duplicate gates, around a
    // DFF so that edges drive full settles.
    Netlist nl("folds");
    Builder b(nl);
    auto in = nl.add_input_bus("a", 3);
    const NetId x = in[0], y = in[1], s = in[2];
    const NetId k0 = b.const0(), k1 = b.const1(), k0b = b.const0();
    const NetId bx = b.buf(x);
    const NetId nx = b.not_(x);               // kept
    const NetId nnx = b.not_(nx);             // ~~x = x
    const NetId and0 = b.and_(x, k0);         // absorbing constant
    const NetId and1 = b.and_(y, k1);         // identity constant
    const NetId or1 = b.or_(x, k1);
    const NetId or0 = b.or_(k0b, y);
    const NetId andxx = b.and_(x, bx);        // equal inputs
    const NetId xorxx = b.xor_(y, y);
    const NetId xnor1 = b.xnor_(x, k1);
    const NetId nand0 = b.nand_(k0, y);
    const NetId nor1 = b.nor_(x, k1);
    const NetId nandyy = b.nand_(y, y);       // ~y: kept as a Not
    const NetId norx0 = b.nor_(x, k0);        // ~x: a duplicate of nx
    const NetId xornx1 = b.xor_(nx, k1);      // ~~x = x
    const NetId mux_ks = b.mux(x, y, k1);     // constant select
    const NetId mux_eq = b.mux(y, y, s);      // equal data
    const NetId mux_01 = b.mux(k0, k1, s);    // data (0, 1): s
    const NetId mux_10 = b.mux(k1, k0b, s);   // data (1, 0): ~s, kept
    const NetId g1 = b.and_(x, y);            // kept
    const NetId g2 = b.and_(y, bx);           // duplicate of g1
    const NetId m1 = b.mux(x, y, s);          // kept
    const NetId m2 = b.mux(nnx, and1, s);     // duplicate of m1
    const NetId m3 = b.mux(x, y, g1);         // another select: kept
    const NetId fb = nl.new_net("fb");
    const NetId d = b.xor_(g1, fb);           // kept
    nl.add_dff("ff", d, fb, true);
    nl.add_output_bus("r", {and0, or1, nandyy, mux_10, g2, m2, m3, d, fb});

    EvalTape tape(nl);
    EXPECT_EQ(tape.num_instrs(), 7u); // nx, nandyy, mux_10, g1, m1, m3, d
    EXPECT_EQ(tape.const_rules().size(), 2u);
    EXPECT_EQ(tape.num_slots(), 3u + 2u + 1u + 7u);
    auto shares = [&](NetId folded, NetId rep) {
        EXPECT_EQ(tape.slot(folded), tape.slot(rep))
            << nl.net(folded).name << " should read "
            << nl.net(rep).name << "'s slot";
    };
    for (NetId n : {bx, nnx, andxx, xnor1, xornx1})
        shares(n, x);
    for (NetId n : {and1, or0, mux_ks, mux_eq})
        shares(n, y);
    for (NetId n : {k0b, and0, xorxx, nor1})
        shares(n, k0);
    shares(nand0, k1);
    shares(mux_01, s);
    shares(norx0, nx);
    shares(g2, g1);
    shares(m2, m1);
    std::vector<bool> seen(tape.num_slots(), false);
    for (NetId n :
         {x, y, s, k0, k1, fb, nx, nandyy, mux_10, g1, m1, m3, d}) {
        EXPECT_FALSE(seen[tape.slot(n)]) << nl.net(n).name;
        seen[tape.slot(n)] = true;
    }

    // Every net against the reference, after each edge (a full settle)
    // and after re-driven inputs (an input-only settle).
    BatchSimulator sim(nl);
    ReferenceSim ref(nl);
    auto expect_nets = [&](int t, const char *when) {
        ref.eval();
        for (NetId n = 0; n < nl.num_nets(); ++n)
            ASSERT_EQ(sim.value(n), ref.values[n] ? ~uint64_t(0) : 0)
                << "cycle " << t << " " << when << " net "
                << nl.net(n).name;
    };
    for (int t = 0; t < 16; ++t) {
        sim.set_bus_all("a", BitVec(3, uint64_t(t)));
        ref.set_bus("a", BitVec(3, uint64_t(t)));
        expect_nets(t, "after the edge");
        sim.set_bus_all("a", BitVec(3, uint64_t(t * 5 + 3)));
        ref.set_bus("a", BitVec(3, uint64_t(t * 5 + 3)));
        expect_nets(t, "after re-driven inputs");
        sim.step();
        ref.step();
    }
}

TEST(EvalTape, MatchesPreTapeReferenceOnRandomNetlists)
{
    // Inputs driven alike in every lane: every lane of every net must
    // equal the reference, the contract single-stream consumers rely on.
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Netlist nl = random_netlist(seed, 10, 300, 8);
        BatchSimulator sim(nl);
        ReferenceSim ref(nl);
        Rng stim(seed * 977);
        auto inputs = nl.primary_inputs();
        for (int t = 0; t < 20; ++t) {
            for (NetId in : inputs) {
                bool v = stim.chance(0.5);
                sim.set_input_all(in, v);
                ref.values[in] = v ? 1 : 0;
            }
            ref.eval();
            for (NetId n = 0; n < nl.num_nets(); ++n)
                ASSERT_EQ(sim.value(n), ref.values[n] ? ~uint64_t(0) : 0)
                    << "seed " << seed << " cycle " << t << " net "
                    << nl.net(n).name;
            sim.step();
            ref.step();
        }
    }
}

/**
 * A BatchSimulator beside one scalar ReferenceSim per lane, each lane
 * with its own stimulus.
 */
struct Lockstep
{
    BatchSimulator batch;
    std::vector<ReferenceSim> lanes;

    explicit Lockstep(const Netlist &nl) : batch(nl)
    {
        lanes.reserve(BatchSimulator::kLanes);
        for (int l = 0; l < BatchSimulator::kLanes; ++l)
            lanes.emplace_back(nl);
    }

    /** Drive primary input @p in with @p plane (bit L to lane L). */
    void drive(NetId in, uint64_t plane)
    {
        batch.set_input(in, plane);
        for (int l = 0; l < BatchSimulator::kLanes; ++l)
            lanes[l].values[in] = (plane >> l) & 1;
    }

    /** Drive input bus @p bus in lane @p lane only. */
    void drive(const std::string &bus, int lane, const BitVec &value)
    {
        batch.set_bus_lane(bus, lane, value);
        lanes[lane].set_bus(bus, value);
    }

    /** Settle, then require every net to match in every lane. */
    void expect_every_net(const std::string &when)
    {
        const Netlist &nl = batch.netlist();
        for (ReferenceSim &lane : lanes)
            lane.eval();
        for (NetId n = 0; n < nl.num_nets(); ++n) {
            uint64_t plane = batch.value(n);
            for (int l = 0; l < BatchSimulator::kLanes; ++l)
                ASSERT_EQ((plane >> l) & 1, uint64_t(lanes[l].values[n]))
                    << when << " lane " << l << " net " << nl.net(n).name;
        }
    }

    /** One clock edge in the batch and in every lane. */
    void step()
    {
        batch.step();
        for (ReferenceSim &lane : lanes)
            lane.step();
    }
};

TEST(BatchSimulator, LockstepWithScalarOnRandomNetlists)
{
    // Each lane carries its own stimulus and is checked against its
    // own scalar ReferenceSim. Every cycle reads all nets twice: after
    // driving every input right after the edge (a full settle), then
    // after re-driving a random subset of inputs (an input-only settle).
    for (uint64_t seed : {21u, 22u, 23u}) {
        Netlist nl = random_netlist(seed, 6, 250, 10);
        Lockstep ls(nl);
        Rng stim(seed * 1319);
        auto inputs = nl.primary_inputs();
        auto drive = [&](double share) {
            for (NetId in : inputs)
                if (stim.chance(share))
                    ls.drive(in, stim.next());
        };
        for (int t = 0; t < 12; ++t) {
            const std::string at = "seed " + std::to_string(seed) +
                                   " cycle " + std::to_string(t);
            drive(1.0);
            ASSERT_NO_FATAL_FAILURE(ls.expect_every_net(at + " after the edge"));
            drive(0.5);
            ASSERT_NO_FATAL_FAILURE(
                ls.expect_every_net(at + " after re-driven inputs"));
            ls.step();
        }
    }
}

/**
 * All 64 lanes vs 64 scalar ReferenceSim runs on a functional unit of
 * kind @p kind (its own netlist or a fault bank over it), every net
 * compared: random operands and ops on its port buses, plus whatever
 * @p drive_extra drives in each lane.
 */
void
lockstep_module(
    const Netlist &nl, ModuleKind kind, uint64_t seed,
    const std::function<void(Lockstep &, int, Rng &)> &drive_extra = {})
{
    Lockstep ls(nl);
    Rng stim(seed);
    const size_t op_width = nl.bus("op").size();
    const uint32_t num_ops = runtime::fu_num_ops(kind);
    for (int t = 0; t < 6; ++t) {
        for (int l = 0; l < BatchSimulator::kLanes; ++l) {
            ls.drive("a", l, BitVec(32, stim.next()));
            ls.drive("b", l, BitVec(32, stim.next()));
            ls.drive("op", l, BitVec(op_width, stim.below(num_ops)));
            if (kind == ModuleKind::Fpu32) {
                ls.drive("valid", l, BitVec(1, stim.chance(0.8) ? 1 : 0));
                ls.drive("clear", l, BitVec(1, 0));
            }
            if (drive_extra)
                drive_extra(ls, l, stim);
        }
        ASSERT_NO_FATAL_FAILURE(
            ls.expect_every_net("cycle " + std::to_string(t)));
        ls.step();
    }
}

TEST(BatchSimulator, LockstepWithScalarOnAlu32)
{
    static HwModule m = rtl::make_alu32();
    lockstep_module(m.netlist, m.kind, 4242);
}

TEST(BatchSimulator, LockstepWithScalarOnFpu32)
{
    static HwModule m = rtl::make_fpu32();
    lockstep_module(m.netlist, m.kind, 2424);
}

TEST(BatchSimulator, LockstepWithScalarOnMdu32)
{
    static HwModule m = rtl::make_mdu32();
    lockstep_module(m.netlist, m.kind, 2442);
}

TEST(BatchSimulator, LockstepWithScalarOnFaultBank)
{
    // The netlist campaign waves run: every lane enables its own fault
    // and draws its own fm_rand bits, and must match a scalar run of
    // the same bank netlist, net for net.
    static HwModule m = rtl::make_alu32();
    const std::vector<CellId> regs = m.netlist.dffs();
    Rng pick(31);
    std::vector<lift::FailureModelSpec> specs;
    for (int i = 0; i < 6; ++i) {
        lift::FailureModelSpec fm;
        fm.launch = regs[pick.below(regs.size())];
        fm.capture = regs[pick.below(regs.size())];
        fm.is_setup = i % 3 != 2;
        fm.constant = i == 5    ? lift::FaultConstant::RandomInput
                      : i % 2 ? lift::FaultConstant::One
                              : lift::FaultConstant::Zero;
        fm.mitigation = lift::Mitigation(i % 3);
        specs.push_back(fm);
    }
    const lift::FaultBank bank = lift::build_fault_bank(m.netlist, specs);
    ASSERT_TRUE(bank.has_random_input);
    lockstep_module(bank.netlist, m.kind, 4343,
                    [&](Lockstep &ls, int lane, Rng &stim) {
                        BitVec en(bank.num_faults);
                        en.set(size_t(lane) % bank.num_faults, true);
                        ls.drive("fm_en", lane, en);
                        ls.drive("fm_rand", lane,
                                 BitVec(1, stim.chance(0.5) ? 1 : 0));
                    });
}

TEST(BatchSimulator, SaveRestoreRoundTrip)
{
    Netlist nl = random_netlist(77, 6, 150, 8);
    BatchSimulator sim(nl);
    Rng stim(99);
    auto inputs = nl.primary_inputs();
    auto drive = [&](Rng &r) {
        for (NetId in : inputs)
            sim.set_input(in, r.next());
    };
    Rng first(5);
    drive(first);
    sim.run(4);
    auto saved = sim.save_state();

    Rng cont(6);
    drive(cont);
    sim.run(3);
    std::vector<uint64_t> after;
    for (NetId n = 0; n < nl.num_nets(); ++n)
        after.push_back(sim.value(n));

    sim.restore_state(saved);
    Rng replay(6);
    drive(replay);
    sim.run(3);
    for (NetId n = 0; n < nl.num_nets(); ++n)
        EXPECT_EQ(sim.value(n), after[n]) << nl.net(n).name;
}

TEST(BatchSimulator, SetBusRejectsOutputBus)
{
    // An input-only settle never recomputes an output bus, so a write
    // to one would silently stick: only primary-input buses are
    // drivable.
    Netlist nl = random_netlist(79, 4, 40, 2);
    BatchSimulator sim(nl);
    sim.set_bus_all("a", BitVec(4, 0x5));
    sim.set_bus_lane("a", 3, BitVec(4, 0xa));
    EXPECT_DEATH(sim.set_bus_all("r", BitVec(8, 0xff)),
                 "not a primary input bus");
    EXPECT_DEATH(sim.set_bus_lane("r", 0, BitVec(8, 1)),
                 "not a primary input bus");
    sim.set_input_slot(sim.tape().bus_slots("a")[0], 1);
    EXPECT_DEATH(sim.set_input_slot(sim.tape().bus_slots("r")[0], 1),
                 "not a primary input");
}

TEST(BatchSimulator, RestoreStateRejectsWrongSize)
{
    Netlist nl = random_netlist(78, 4, 40, 2);
    BatchSimulator sim(nl);
    std::vector<uint64_t> wrong(nl.num_nets() + 3, 0);
    EXPECT_DEATH(sim.restore_state(wrong), "restore_state plane count");
}

} // namespace
} // namespace vega
