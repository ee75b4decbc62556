#include "rtl/mdu32.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpu/assembler.h"
#include "cpu/mdu_ops.h"
#include "lift/fuzz_lifting.h"
#include "reference_fu.h"
#include "sim/batch_sim.h"
#include "vega/workflow.h"

namespace vega::rtl {
namespace {

uint32_t
run_op(BatchSimulator &sim, MduOp op, uint32_t a, uint32_t b)
{
    sim.reset();
    sim.set_bus_all("a", BitVec(32, a));
    sim.set_bus_all("b", BitVec(32, b));
    sim.set_bus_all("op", BitVec(2, uint64_t(op)));
    sim.step();
    sim.step();
    return uint32_t(sim.bus_value("r", 0).to_u64());
}

class MduOpTest : public ::testing::TestWithParam<MduOp>
{
  protected:
    static HwModule &module()
    {
        static HwModule m = make_mdu32();
        return m;
    }
};

TEST_P(MduOpTest, MatchesGoldenOnRandomInputs)
{
    MduOp op = GetParam();
    BatchSimulator sim(module().netlist);
    Rng rng(uint64_t(op) * 31 + 3);
    for (int i = 0; i < 60; ++i) {
        uint32_t a = uint32_t(rng.next()), b = uint32_t(rng.next());
        EXPECT_EQ(run_op(sim, op, a, b), mdu_compute(op, a, b))
            << mdu_op_name(op) << " a=" << a << " b=" << b;
    }
}

TEST_P(MduOpTest, MatchesGoldenOnCorners)
{
    MduOp op = GetParam();
    BatchSimulator sim(module().netlist);
    const uint32_t corners[] = {0u,          1u,          0x7fffffffu,
                                0x80000000u, 0xffffffffu, 0x00010001u,
                                0xaaaaaaaau, 0x55555555u};
    for (uint32_t a : corners)
        for (uint32_t b : corners)
            EXPECT_EQ(run_op(sim, op, a, b), mdu_compute(op, a, b))
                << mdu_op_name(op) << " a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(AllOps, MduOpTest,
                         ::testing::Values(MduOp::Mul, MduOp::Mulh,
                                           MduOp::Mulhu),
                         [](const ::testing::TestParamInfo<MduOp> &info) {
                             return mdu_op_name(info.param);
                         });

TEST(Mdu32, IssBackendMatchesGolden)
{
    static HwModule m = make_mdu32();
    ReferenceFu fu(ModuleKind::Mdu32, m.netlist);

    cpu::Asm a;
    a.li(5, 0x12345678);
    a.li(6, 0x9abcdef0);
    a.mul(7, 5, 6);
    a.mulh(8, 5, 6);
    a.mulhu(9, 5, 6);
    a.halt();
    auto prog = a.finish();

    cpu::Iss golden(prog);
    golden.run();
    cpu::Iss hw(prog);
    ASSERT_EQ(run_reference(hw, fu), cpu::Iss::Status::Halted);
    for (int r = 7; r <= 9; ++r)
        EXPECT_EQ(hw.reg(cpu::Reg(r)), golden.reg(cpu::Reg(r))) << r;
}

TEST(Mdu32, FullWorkflowGeneratesValidatedTests)
{
    // The whole point of the third module: the unchanged workflow runs
    // end to end on a different microarchitecture.
    HwModule mdu = make_mdu32();
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    WorkflowConfig cfg;
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 3000;
    cfg.lift.max_pairs = 4;
    cfg.lift.bmc.max_frames = 4;

    WorkflowResult r = run_workflow(mdu, lib, minver_trace(), cfg);
    EXPECT_GE(r.aging.fresh_sta.wns_setup, 0.0);
    EXPECT_LT(r.aging.sta.wns_setup, 0.0);
    ASSERT_FALSE(r.suite.empty());

    // Tests pass on healthy hardware and are all mdu blocks.
    runtime::GoldenEngine engine;
    runtime::AgingLibrary library(r.suite, {});
    EXPECT_EQ(library.run_all(engine), runtime::Detection::None);
    for (const auto &t : r.suite)
        EXPECT_EQ(t.module, ModuleKind::Mdu32);
}

TEST(Mdu32, FuzzCoverDrivesOnlyMduOps)
{
    // The fuzzer must drive the MDU's own 2-bit op bus and draw only
    // the encodings the MDU defines.
    HwModule mdu = make_mdu32();
    auto dffs = mdu.netlist.dffs();
    lift::FailureModelSpec spec;
    spec.launch = dffs[0];
    spec.capture = dffs.back();
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    lift::ShadowInstrumentation shadow =
        lift::build_shadow_instrumentation(mdu.netlist, spec);

    lift::FuzzConfig cfg;
    cfg.max_episodes = 2000;
    lift::FuzzResult r = lift::fuzz_cover(shadow, ModuleKind::Mdu32, cfg);
    ASSERT_TRUE(r.found);
    for (size_t t = 0; t < r.trace.num_cycles(); ++t)
        EXPECT_LT(r.trace.at("op", t).to_u64(), uint64_t(kNumMduOps)) << t;
}

TEST(Mdu32, DegradedLadderFallsBackToFuzzing)
{
    // The MDU twin of AluLift.DegradedLadderFallsBackToFuzzing: a
    // starved formal budget sends every configuration to the fuzz
    // fallback, whose traces become tests like formal ones.
    HwModule mdu = make_mdu32();
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    WorkflowConfig cfg;
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 3000;
    cfg.lift.max_pairs = 4;
    cfg.lift.bmc.max_frames = 4;
    cfg.lift.bmc.conflict_budget = 1;
    cfg.lift.formal_attempts = 1;
    cfg.lift.degrade_to_fuzz = true;

    WorkflowResult r = run_workflow(mdu, lib, minver_trace(), cfg);
    ASSERT_EQ(r.lift.pairs.size(), 4u);
    size_t configs = 0;
    for (const lift::PairResult &pr : r.lift.pairs)
        for (const lift::ConfigOutcome &co : pr.configs) {
            ++configs;
            EXPECT_TRUE(co.degraded_to_fuzz) << co.name;
            EXPECT_EQ(co.bmc, formal::BmcStatus::Covered) << co.name;
        }
    EXPECT_EQ(configs, 8u);
    EXPECT_EQ(r.suite.size(), 8u);
    for (const runtime::TestCase &t : r.suite)
        for (const runtime::ModuleStep &s : t.stimulus)
            EXPECT_LT(s.op, uint32_t(kNumMduOps)) << t.name;
}

TEST(Mdu32, MinverTraceContainsMduOps)
{
    size_t mdu_ops = 0;
    for (const auto &e : minver_trace())
        if (e.unit == ModuleKind::Mdu32)
            ++mdu_ops;
    // minver's checksum mixing uses mul.
    EXPECT_GT(mdu_ops, 10u);
}

} // namespace
} // namespace vega::rtl
