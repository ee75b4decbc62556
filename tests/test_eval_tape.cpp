/**
 * @file
 * The compiled-tape contract: BatchSimulator, the only EvalTape
 * interpreter, must behave exactly like the pre-tape levelized
 * simulator (ReferenceSim, tests/reference_sim.h). Every lane is
 * checked against its own ReferenceSim in lockstep, on random
 * sequential netlists (full settles after each edge and input-only
 * settles after re-driven inputs) and on the real ALU32/FPU32 blocks,
 * and lanes driven alike must all match it (single-stream consumers
 * read lane 0). Save/restore round-trips and the input-only bus
 * writes are pinned here too.
 */
#include "sim/eval_tape.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "netlist/builder.h"
#include "reference_sim.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
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

TEST(EvalTape, LowersEveryNetToExactlyOneSlot)
{
    Netlist nl = random_netlist(11, 8, 200, 6);
    EvalTape tape(nl);
    EXPECT_EQ(tape.num_slots(), nl.num_nets());
    std::vector<bool> seen(tape.num_slots(), false);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        SlotId s = tape.slot(n);
        ASSERT_LT(s, tape.num_slots());
        EXPECT_FALSE(seen[s]) << "slot " << s << " assigned twice";
        seen[s] = true;
    }
    // Constants are hoisted out of the per-cycle stream; everything
    // combinational and non-constant is in it, in some order.
    size_t n_comb = 0, n_const = 0, n_dff = 0;
    for (const Cell &c : nl.cells()) {
        if (c.type == CellType::Dff)
            ++n_dff;
        else if (c.type == CellType::Const0 || c.type == CellType::Const1)
            ++n_const;
        else
            ++n_comb;
    }
    EXPECT_EQ(tape.num_instrs(), n_comb);
    EXPECT_EQ(tape.const_rules().size(), n_const);
    EXPECT_EQ(tape.dff_rules().size(), n_dff);
    // Instruction i writes slot first_out_slot() + i: the stream's
    // outputs are the last n_comb slots, after inputs, constants and
    // DFF Qs.
    EXPECT_EQ(tape.first_out_slot(),
              tape.num_inputs() + n_const + n_dff);
    EXPECT_EQ(tape.first_out_slot() + tape.num_instrs(), tape.num_slots());
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

TEST(BatchSimulator, LockstepWithScalarOnRandomNetlists)
{
    // Each lane carries its own stimulus and is checked against its
    // own scalar ReferenceSim. Every cycle reads all nets twice: after
    // driving every input right after the edge (a full settle), then
    // after re-driving a random subset of inputs (an input-only settle).
    for (uint64_t seed : {21u, 22u, 23u}) {
        Netlist nl = random_netlist(seed, 6, 250, 10);
        BatchSimulator batch(nl);
        std::vector<ReferenceSim> lanes;
        lanes.reserve(BatchSimulator::kLanes);
        for (int l = 0; l < BatchSimulator::kLanes; ++l)
            lanes.emplace_back(nl);

        Rng stim(seed * 1319);
        auto inputs = nl.primary_inputs();
        auto drive = [&](double share) {
            for (NetId in : inputs) {
                if (!stim.chance(share))
                    continue;
                uint64_t plane = stim.next();
                batch.set_input(in, plane);
                for (int l = 0; l < BatchSimulator::kLanes; ++l)
                    lanes[l].values[in] = (plane >> l) & 1;
            }
            for (ReferenceSim &lane : lanes)
                lane.eval();
        };
        auto expect_lanes = [&](int t, const char *when) {
            for (NetId n = 0; n < nl.num_nets(); ++n) {
                uint64_t plane = batch.value(n);
                for (int l = 0; l < BatchSimulator::kLanes; ++l)
                    ASSERT_EQ((plane >> l) & 1, uint64_t(lanes[l].values[n]))
                        << "seed " << seed << " cycle " << t << " " << when
                        << " lane " << l << " net " << nl.net(n).name;
            }
        };
        for (int t = 0; t < 12; ++t) {
            drive(1.0);
            expect_lanes(t, "after the edge");
            drive(0.5);
            expect_lanes(t, "after re-driven inputs");
            batch.step();
            for (ReferenceSim &lane : lanes)
                lane.step();
        }
    }
}

/**
 * All 64 lanes vs 64 scalar ReferenceSim runs on a real block, via its
 * port buses.
 */
void
lockstep_module(const Netlist &nl, bool is_fpu, uint64_t seed)
{
    BatchSimulator batch(nl);
    std::vector<ReferenceSim> lanes;
    lanes.reserve(BatchSimulator::kLanes);
    for (int l = 0; l < BatchSimulator::kLanes; ++l)
        lanes.emplace_back(nl);

    Rng stim(seed);
    std::vector<std::string> outs(nl.output_bus_names());
    for (int t = 0; t < 6; ++t) {
        for (int l = 0; l < BatchSimulator::kLanes; ++l) {
            BitVec a(32, stim.next());
            BitVec b(32, stim.next());
            BitVec op(is_fpu ? 3 : 4, stim.below(is_fpu ? 8 : 10));
            batch.set_bus_lane("a", l, a);
            batch.set_bus_lane("b", l, b);
            batch.set_bus_lane("op", l, op);
            lanes[l].set_bus("a", a);
            lanes[l].set_bus("b", b);
            lanes[l].set_bus("op", op);
            if (is_fpu) {
                BitVec valid(1, stim.chance(0.8) ? 1 : 0);
                batch.set_bus_lane("valid", l, valid);
                batch.set_bus_lane("clear", l, BitVec(1, 0));
                lanes[l].set_bus("valid", valid);
                lanes[l].set_bus("clear", BitVec(1, 0));
            }
            lanes[l].eval();
        }
        for (const std::string &bus : outs)
            for (int l = 0; l < BatchSimulator::kLanes; ++l)
                ASSERT_EQ(batch.bus_value(bus, l), lanes[l].bus_value(bus))
                    << "cycle " << t << " lane " << l << " bus " << bus;
        batch.step();
        for (ReferenceSim &lane : lanes)
            lane.step();
    }
}

TEST(BatchSimulator, LockstepWithScalarOnAlu32)
{
    static HwModule m = rtl::make_alu32();
    lockstep_module(m.netlist, false, 4242);
}

TEST(BatchSimulator, LockstepWithScalarOnFpu32)
{
    static HwModule m = rtl::make_fpu32();
    lockstep_module(m.netlist, true, 2424);
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
