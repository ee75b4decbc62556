#include "workloads/kernels.h"

#include <gtest/gtest.h>

#include "cpu/iss.h"
#include "reference_fu.h"
#include "rtl/fpu32.h"

namespace vega::workloads {
namespace {

class KernelTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(KernelTest, ChecksumMatchesMirror)
{
    const Kernel &k = embench_suite()[GetParam()];
    cpu::Iss iss(k.program);
    ASSERT_EQ(iss.run(), cpu::Iss::Status::Halted) << k.name;
    EXPECT_EQ(iss.read_u32(kChecksumAddr), k.expected_checksum) << k.name;
}

TEST_P(KernelTest, DeterministicAcrossRuns)
{
    const Kernel &k = embench_suite()[GetParam()];
    cpu::Iss a(k.program), b(k.program);
    a.run();
    b.run();
    EXPECT_EQ(a.read_u32(kChecksumAddr), b.read_u32(kChecksumAddr));
    EXPECT_EQ(a.cycles(), b.cycles());
}

TEST_P(KernelTest, RunsLongEnoughToProfile)
{
    const Kernel &k = embench_suite()[GetParam()];
    cpu::Iss iss(k.program);
    iss.run();
    EXPECT_GT(iss.cycles(), 100u) << k.name;
}

INSTANTIATE_TEST_SUITE_P(
    All, KernelTest, ::testing::Range(size_t(0), size_t(8)),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return embench_suite()[info.param].name;
    });

TEST(Workloads, SuiteHasEightKernelsMinverFirst)
{
    const auto &suite = embench_suite();
    ASSERT_EQ(suite.size(), 8u);
    EXPECT_EQ(suite[0].name, "minver");
}

TEST(Workloads, MinverExercisesTheFpu)
{
    cpu::IssConfig cfg;
    cfg.record_fu_trace = true;
    cpu::Iss iss(make_minver().program, cfg);
    iss.run();
    size_t fpu_ops = 0;
    for (const auto &e : iss.fu_trace())
        fpu_ops += e.unit == ModuleKind::Fpu32 ? 1 : 0;
    EXPECT_GT(fpu_ops, 50u);
}

TEST(Workloads, FpKernelsMatchOnGateLevelFpu)
{
    // End-to-end cross-check: the FP kernels produce identical checksums
    // when every FPU op runs through the gate-level netlist.
    static HwModule m = rtl::make_fpu32();
    for (const char *name : {"minver", "nbody", "st"}) {
        const Kernel *k = nullptr;
        for (const auto &kernel : embench_suite())
            if (kernel.name == name)
                k = &kernel;
        ASSERT_NE(k, nullptr);
        ReferenceFu fu(ModuleKind::Fpu32, m.netlist);
        cpu::Iss iss(k->program);
        ASSERT_EQ(run_reference(iss, fu), cpu::Iss::Status::Halted) << name;
        EXPECT_EQ(iss.read_u32(kChecksumAddr), k->expected_checksum)
            << name;
        EXPECT_EQ(fu.tag_mismatches(), 0u) << name;
    }
}

} // namespace
} // namespace vega::workloads
