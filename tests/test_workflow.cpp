#include "vega/workflow.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "reference_sim.h"
#include "rtl/alu32.h"
#include "rtl/memdec.h"

namespace vega {
namespace {

using aging::AgingTimingLibrary;
using aging::RdModelParams;

const AgingTimingLibrary &
lib()
{
    static AgingTimingLibrary l = AgingTimingLibrary::build(RdModelParams{});
    return l;
}

TEST(MinverTrace, HasBothUnitActivity)
{
    const auto &trace = minver_trace();
    size_t alu = 0, fpu = 0;
    for (const auto &e : trace)
        (e.unit == ModuleKind::Fpu32 ? fpu : alu)++;
    EXPECT_GT(alu, 10u);
    EXPECT_GT(fpu, 50u);
}

TEST(RecordWorkloadTrace, ConcatenatesPrograms)
{
    auto t1 = record_workload_trace({workloads::make_ud().program});
    auto t2 = record_workload_trace({workloads::make_prime().program});
    auto both = record_workload_trace(
        {workloads::make_ud().program, workloads::make_prime().program});
    EXPECT_EQ(both.size(), t1.size() + t2.size());
}

TEST(AgingAnalysis, FreshCleanAgedViolating)
{
    HwModule module = rtl::make_alu32();
    AgingAnalysisConfig cfg;
    cfg.utilization = 0.99;
    cfg.max_trace = 1500;
    AgingAnalysisResult r =
        run_aging_analysis(module, lib(), minver_trace(), cfg);

    // Timing closure holds when fresh, breaks after ten years.
    EXPECT_GE(r.fresh_sta.wns_setup, 0.0);
    EXPECT_GE(r.fresh_sta.wns_hold, 0.0);
    EXPECT_LT(r.sta.wns_setup, 0.0);
    EXPECT_GT(r.sta.num_setup_violations, 0u);
    EXPECT_FALSE(r.liftable_pairs().empty());

    // The SP profile reflects real stimulus: not every cell parks.
    size_t mid = 0;
    for (CellId c = 0; c < module.netlist.num_cells(); ++c) {
        double sp = r.profile.sp(c);
        if (sp > 0.05 && sp < 0.95)
            ++mid;
    }
    EXPECT_GT(mid, module.netlist.num_cells() / 20);
}

/**
 * Drive one trace entry into @p ref the way run_aging_analysis drives
 * its simulator: memory entries set the decoder ports, FU entries of
 * the profiled unit set the ALU operands, and anything else (nullptr)
 * is an idle cycle.
 */
void
apply_reference_entry(ReferenceSim &ref, ModuleKind kind,
                      const cpu::FuTraceEntry *e)
{
    if (kind == ModuleKind::MemDec16) {
        if (e) {
            ref.set_bus("addr", BitVec(4, (e->a >> 2) & 0xf));
            ref.set_bus("we", BitVec(1, e->op ? 1 : 0));
            ref.set_bus("din", BitVec(8, e->b & 0xff));
        } else {
            ref.set_bus("we", BitVec(1, 0));
        }
        return;
    }
    ASSERT_EQ(kind, ModuleKind::Alu32);
    if (e) {
        ref.set_bus("a", BitVec(32, e->a));
        ref.set_bus("b", BitVec(32, e->b));
        ref.set_bus("op", BitVec(4, e->op));
    }
}

/**
 * run_aging_analysis's SP profile must equal, cell for cell and bit for
 * bit, the SP and activity of the same trace replayed on the pre-tape
 * reference interpreter.
 */
void
expect_profile_matches_reference(HwModule module,
                                 const std::vector<cpu::FuTraceEntry> &trace,
                                 size_t max_trace)
{
    AgingAnalysisConfig cfg;
    cfg.max_trace = max_trace;
    AgingAnalysisResult r = run_aging_analysis(module, lib(), trace, cfg);

    const Netlist &nl = module.netlist;
    ReferenceSim ref(nl);
    std::vector<uint64_t> ones(nl.num_cells(), 0);
    std::vector<uint64_t> toggles(nl.num_cells(), 0);
    std::vector<uint8_t> prev(nl.num_cells(), 0);
    size_t n = max_trace == 0 ? trace.size()
                              : std::min(trace.size(), max_trace);
    for (size_t i = 0; i < n; ++i) {
        const cpu::FuTraceEntry &e = trace[i];
        apply_reference_entry(ref, module.kind,
                              e.unit == module.kind ? &e : nullptr);
        ref.eval();
        for (CellId c = 0; c < nl.num_cells(); ++c) {
            uint8_t v = ref.values[nl.cell(c).out];
            ones[c] += v;
            if (i > 0 && v != prev[c])
                ++toggles[c];
            prev[c] = v;
        }
        ref.step();
    }

    ASSERT_GT(n, 1u);
    ASSERT_EQ(r.profile.samples(), n);
    for (CellId c = 0; c < nl.num_cells(); ++c) {
        ASSERT_EQ(r.profile.sp(c), double(ones[c]) / double(n))
            << nl.name() << " cell " << nl.cell(c).name;
        ASSERT_EQ(r.profile.activity(c), double(toggles[c]) / double(n - 1))
            << nl.name() << " cell " << nl.cell(c).name;
    }
}

TEST(AgingAnalysis, ProfileMatchesPreTapeReference)
{
    expect_profile_matches_reference(rtl::make_alu32(), minver_trace(),
                                     4000);
    expect_profile_matches_reference(rtl::make_memdec16(),
                                     mem_workload_trace(), 0);
}

TEST(Workflow, EndToEndOnAluProducesArtifacts)
{
    HwModule module = rtl::make_alu32();
    WorkflowConfig cfg;
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 1500;
    cfg.lift.max_pairs = 3;
    cfg.lift.bmc.max_frames = 4;

    WorkflowResult r = run_workflow(module, lib(), minver_trace(), cfg);
    EXPECT_FALSE(r.lift.pairs.empty());

    size_t classified = r.lift.n_success + r.lift.n_unreachable +
                        r.lift.n_timeout + r.lift.n_conversion_failed;
    EXPECT_EQ(classified, r.lift.pairs.size());

    if (!r.suite.empty()) {
        runtime::AgingLibraryOptions opt;
        runtime::AgingLibrary library = r.make_library(opt);
        runtime::GoldenEngine engine;
        EXPECT_EQ(library.run_all(engine), runtime::Detection::None);
        EXPECT_EQ(library.suite_cycles(), r.lift.suite_cycles());
    }
}

} // namespace
} // namespace vega
