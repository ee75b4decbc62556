#include "rtl/fpu32.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpu/softfp.h"
#include "sim/batch_sim.h"

namespace vega::rtl {
namespace {

using fp::FpuOp;

/** Drive one op through the 2-stage pipeline from a cleared state. */
fp::FpResult
run_op(BatchSimulator &sim, FpuOp op, uint32_t a, uint32_t b)
{
    sim.reset();
    sim.set_bus_all("a", BitVec(32, a));
    sim.set_bus_all("b", BitVec(32, b));
    sim.set_bus_all("op", BitVec(3, uint64_t(op)));
    sim.set_bus_all("valid", BitVec(1, 1));
    sim.set_bus_all("clear", BitVec(1, 0));
    sim.step();
    sim.set_bus_all("valid", BitVec(1, 0));
    sim.step();
    fp::FpResult r;
    r.bits = uint32_t(sim.bus_value("r", 0).to_u64());
    r.flags = uint8_t(sim.bus_value("flags", 0).to_u64());
    return r;
}

class FpuOpTest : public ::testing::TestWithParam<FpuOp>
{
  protected:
    static HwModule &module()
    {
        static HwModule m = make_fpu32();
        return m;
    }
};

uint32_t
random_any(vega::Rng &rng)
{
    // Mix of fully random words (hits NaN/inf/subnormal patterns) and
    // guaranteed normals.
    if (rng.chance(0.3))
        return uint32_t(rng.next());
    uint32_t sign = uint32_t(rng.next() & 1) << 31;
    uint32_t exp = 1 + uint32_t(rng.below(254));
    uint32_t man = uint32_t(rng.next()) & 0x7fffff;
    return sign | (exp << 23) | man;
}

TEST_P(FpuOpTest, MatchesSoftFpOnRandomInputs)
{
    FpuOp op = GetParam();
    BatchSimulator sim(module().netlist);
    vega::Rng rng(uint64_t(op) * 131 + 17);
    for (int i = 0; i < 40; ++i) {
        uint32_t a = random_any(rng), b = random_any(rng);
        fp::FpResult got = run_op(sim, op, a, b);
        fp::FpResult want = fp::fpu_compute(op, a, b);
        EXPECT_EQ(got.bits, want.bits)
            << fp::fpu_op_name(op) << std::hex << " a=" << a << " b=" << b;
        EXPECT_EQ(got.flags, want.flags)
            << fp::fpu_op_name(op) << std::hex << " a=" << a << " b=" << b;
    }
}

TEST_P(FpuOpTest, MatchesSoftFpOnCorners)
{
    FpuOp op = GetParam();
    BatchSimulator sim(module().netlist);
    const uint32_t corners[] = {
        0x00000000, 0x80000000, // +-0
        0x3f800000, 0xbf800000, // +-1
        0x7f800000, 0xff800000, // +-inf
        0x7fc00000, 0x7f800001, // qNaN, sNaN
        0x00000001, 0x807fffff, // subnormals (flushed)
        0x7f7fffff, 0x00800000, // max normal, min normal
        0x3f800001, 0x40490fdb, // 1+ulp, pi
    };
    for (uint32_t a : corners) {
        for (uint32_t b : corners) {
            fp::FpResult got = run_op(sim, op, a, b);
            fp::FpResult want = fp::fpu_compute(op, a, b);
            EXPECT_EQ(got.bits, want.bits)
                << fp::fpu_op_name(op) << std::hex << " a=" << a
                << " b=" << b;
            EXPECT_EQ(got.flags, want.flags)
                << fp::fpu_op_name(op) << std::hex << " a=" << a
                << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, FpuOpTest,
    ::testing::Values(FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Eq,
                      FpuOp::Lt, FpuOp::Le, FpuOp::Min, FpuOp::Max),
    [](const ::testing::TestParamInfo<FpuOp> &info) {
        std::string n = fp::fpu_op_name(info.param);
        return n.substr(0, n.find('.'));
    });

TEST(Fpu32, ValidHandshakePipelines)
{
    HwModule &m = []() -> HwModule & {
        static HwModule mod = make_fpu32();
        return mod;
    }();
    BatchSimulator sim(m.netlist);
    sim.set_bus_all("valid", BitVec(1, 1));
    sim.set_bus_all("clear", BitVec(1, 0));
    sim.set_bus_all("a", BitVec(32, 0x3f800000));
    sim.set_bus_all("b", BitVec(32, 0x3f800000));
    sim.set_bus_all("op", BitVec(3, 0));

    EXPECT_EQ(sim.bus_value("valid_out", 0).to_u64(), 0u);
    sim.step();
    sim.set_bus_all("valid", BitVec(1, 0));
    EXPECT_EQ(sim.bus_value("valid_out", 0).to_u64(), 0u);
    sim.step();
    EXPECT_EQ(sim.bus_value("valid_out", 0).to_u64(), 1u);
    EXPECT_EQ(sim.bus_value("ack", 0).to_u64(), 1u);
    EXPECT_EQ(sim.bus_value("r", 0).to_u64(), 0x40000000u); // 1+1
    // The transaction tag toggles once for the single accepted op and
    // reaches dbg_out one cycle later.
    EXPECT_EQ(sim.bus_value("dbg_out", 0).to_u64(), 0u);
    sim.step();
    EXPECT_EQ(sim.bus_value("dbg_out", 0).to_u64(), 1u);
}

TEST(Fpu32, FlagsAreStickyUntilCleared)
{
    static HwModule m = make_fpu32();
    BatchSimulator sim(m.netlist);
    sim.set_bus_all("clear", BitVec(1, 0));

    // Raise NX via 1 + tiny.
    sim.set_bus_all("a", BitVec(32, 0x3f800000));
    sim.set_bus_all("b", BitVec(32, 0x20000000));
    sim.set_bus_all("op", BitVec(3, 0));
    sim.set_bus_all("valid", BitVec(1, 1));
    sim.step();
    sim.set_bus_all("valid", BitVec(1, 0));
    sim.step();
    EXPECT_TRUE(sim.bus_value("flags", 0).to_u64() & fp::kNX);

    // An exact op afterwards must not clear NX.
    sim.set_bus_all("a", BitVec(32, 0x3f800000));
    sim.set_bus_all("b", BitVec(32, 0x3f800000));
    sim.set_bus_all("valid", BitVec(1, 1));
    sim.step();
    sim.set_bus_all("valid", BitVec(1, 0));
    sim.step();
    EXPECT_TRUE(sim.bus_value("flags", 0).to_u64() & fp::kNX);

    // clear wipes the register.
    sim.set_bus_all("clear", BitVec(1, 1));
    sim.step();
    sim.step();
    EXPECT_EQ(sim.bus_value("flags", 0).to_u64(), 0u);
}

TEST(Fpu32, InvalidOpsDoNotRaiseFlagsWithoutValid)
{
    static HwModule m = make_fpu32();
    BatchSimulator sim(m.netlist);
    sim.set_bus_all("a", BitVec(32, 0x7f800001)); // sNaN
    sim.set_bus_all("b", BitVec(32, 0x3f800000));
    sim.set_bus_all("op", BitVec(3, 0));
    sim.set_bus_all("valid", BitVec(1, 0)); // not a real op
    sim.set_bus_all("clear", BitVec(1, 0));
    sim.run(4);
    EXPECT_EQ(sim.bus_value("flags", 0).to_u64(), 0u);
}

TEST(Fpu32, ModuleShape)
{
    static HwModule m = make_fpu32();
    EXPECT_EQ(m.kind, ModuleKind::Fpu32);
    EXPECT_DOUBLE_EQ(m.netlist.clock_period_ps(), 4000.0);
    EXPECT_GT(m.netlist.num_cells(), 5000u);
    // Clock tree: 4-level spine + 16 chains of 44.
    EXPECT_EQ(m.clock.size(), 1u + 2 + 4 + 8 + 16 + 16 * 44);
}

} // namespace
} // namespace vega::rtl
