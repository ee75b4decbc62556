#include "rtl/alu32.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "sim/batch_sim.h"

namespace vega::rtl {
namespace {

/** Issue one op through the 2-stage pipeline from reset. */
uint32_t
run_op(BatchSimulator &sim, AluOp op, uint32_t a, uint32_t b)
{
    sim.reset();
    sim.set_bus_all("a", BitVec(32, a));
    sim.set_bus_all("b", BitVec(32, b));
    sim.set_bus_all("op", BitVec(4, uint64_t(op)));
    sim.step();
    sim.step();
    return uint32_t(sim.bus_value("r", 0).to_u64());
}

class AluOpTest : public ::testing::TestWithParam<AluOp>
{
  protected:
    HwModule m = make_alu32();
};

TEST_P(AluOpTest, MatchesGoldenOnRandomInputs)
{
    AluOp op = GetParam();
    BatchSimulator sim(m.netlist);
    Rng rng(uint64_t(op) * 977 + 5);
    for (int i = 0; i < 60; ++i) {
        uint32_t a = uint32_t(rng.next());
        uint32_t b = uint32_t(rng.next());
        EXPECT_EQ(run_op(sim, op, a, b), alu_compute(op, a, b))
            << alu_op_name(op) << " a=" << a << " b=" << b;
    }
}

TEST_P(AluOpTest, MatchesGoldenOnCorners)
{
    AluOp op = GetParam();
    BatchSimulator sim(m.netlist);
    const uint32_t corners[] = {0u,         1u,          0x7fffffffu,
                                0x80000000u, 0xffffffffu, 31u,
                                32u,        0xaaaaaaaau, 0x55555555u};
    for (uint32_t a : corners)
        for (uint32_t b : corners)
            EXPECT_EQ(run_op(sim, op, a, b), alu_compute(op, a, b))
                << alu_op_name(op) << " a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluOpTest,
    ::testing::Values(AluOp::Add, AluOp::Sub, AluOp::Sll, AluOp::Slt,
                      AluOp::Sltu, AluOp::Xor, AluOp::Srl, AluOp::Sra,
                      AluOp::Or, AluOp::And),
    [](const ::testing::TestParamInfo<AluOp> &info) {
        return alu_op_name(info.param);
    });

TEST(Alu32, PipelinesBackToBack)
{
    HwModule m = make_alu32();
    BatchSimulator sim(m.netlist);

    struct Step { AluOp op; uint32_t a, b; };
    std::vector<Step> steps{{AluOp::Add, 10, 20},
                            {AluOp::Sub, 7, 9},
                            {AluOp::Xor, 0xff00, 0x0ff0},
                            {AluOp::Sll, 1, 31}};
    std::vector<uint32_t> results;
    for (size_t t = 0; t < steps.size() + 2; ++t) {
        if (t < steps.size()) {
            sim.set_bus_all("a", BitVec(32, steps[t].a));
            sim.set_bus_all("b", BitVec(32, steps[t].b));
            sim.set_bus_all("op", BitVec(4, uint64_t(steps[t].op)));
        }
        if (t >= 2)
            results.push_back(uint32_t(sim.bus_value("r", 0).to_u64()));
        sim.step();
    }
    ASSERT_EQ(results.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i)
        EXPECT_EQ(results[i],
                  alu_compute(steps[i].op, steps[i].a, steps[i].b))
            << i;
}

TEST(Alu32, UndefinedOpcodesAliasAnd)
{
    HwModule m = make_alu32();
    BatchSimulator sim(m.netlist);
    for (uint64_t op = 10; op < 16; ++op) {
        sim.reset();
        sim.set_bus_all("a", BitVec(32, 0xdeadbeef));
        sim.set_bus_all("b", BitVec(32, 0x0f0f0f0f));
        sim.set_bus_all("op", BitVec(4, op));
        sim.step();
        sim.step();
        EXPECT_EQ(sim.bus_value("r", 0).to_u64(), 0xdeadbeefu & 0x0f0f0f0fu);
    }
}

TEST(Alu32, ModuleShape)
{
    HwModule m = make_alu32();
    EXPECT_EQ(m.kind, ModuleKind::Alu32);
    EXPECT_EQ(m.latency, 2);
    EXPECT_DOUBLE_EQ(m.netlist.clock_period_ps(), 6000.0);
    EXPECT_GT(m.netlist.num_cells(), 1000u);
    EXPECT_EQ(m.netlist.dffs().size(), 32u + 32u + 4u + 32u);
}

} // namespace
} // namespace vega::rtl
