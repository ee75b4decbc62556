/**
 * @file
 * Extension — the Vega workflow on a third functional unit.
 *
 * The paper evaluates the ALU and FPU and states the workflow applies
 * to other microarchitectures (§4). This bench runs the identical
 * pipeline on the RV32M multiply unit and prints the same rows Tables
 * 3–5 report, plus a Table-6-style detection check against its failing
 * netlists.
 */
#include <cstdio>

#include "bench/quality.h"
#include "rtl/mdu32.h"

int
main()
{
    using namespace vega;
    bench::banner("Extension: the Vega workflow on mdu32 (RV32M "
                  "multiply unit)");

    HwModule mdu = rtl::make_mdu32();
    AgingAnalysisConfig acfg;
    acfg.utilization = 0.985;
    acfg.max_trace = 4000;
    AgingAnalysisResult aging = run_aging_analysis(
        mdu, bench::timing_library(), minver_trace(), acfg);

    std::printf("Table-3 row:  setup %.0fps / %zu paths, hold %s, %zu "
                "unique pairs (fresh WNS %.0fps)\n",
                aging.sta.wns_setup, aging.sta.num_setup_violations,
                aging.sta.num_hold_violations == 0 ? "- / 0" : "!",
                aging.sta.pairs.size(), aging.fresh_sta.wns_setup);

    lift::LiftConfig lcfg;
    lcfg.bmc.max_frames = 4;
    lcfg.bmc.conflict_budget = 400000;
    auto pairs = aging.liftable_pairs();
    if (pairs.size() > 16 && !bench::full_mode())
        pairs.resize(16);
    lift::LiftResult lifted = lift::run_error_lifting(mdu, pairs, lcfg);

    double n = double(lifted.pairs.size());
    std::printf("Table-4 row:  S %.1f%% / UR %.1f%% / FF %.1f%% / FC "
                "%.1f%%  (%zu pairs)\n",
                100.0 * lifted.n_success / n,
                100.0 * lifted.n_unreachable / n,
                100.0 * lifted.n_timeout / n,
                100.0 * lifted.n_conversion_failed / n,
                lifted.pairs.size());
    std::printf("Table-5 row:  %zu test cases, %lu cycles per pass\n",
                lifted.suite().size(),
                (unsigned long)lifted.suite_cycles());

    // Table-6-style detection against the C = 0/1/R failing netlists.
    auto suite = lifted.suite();
    for (lift::FaultConstant c : bench::kFailureModes) {
        bench::FailingBank bank = bench::make_failing_bank(mdu, lifted, c);
        size_t detected = 0;
        for (const campaign::JobResult &out :
             bench::run_suite_on_bank(bank, suite, 7))
            if (out.detected)
                ++detected;
        std::printf("Table-6 row:  FM=%s detected %zu / %zu failing "
                    "netlists\n",
                    bench::failure_mode_label(c), detected,
                    bank.pair_index.size());
    }

    std::printf("\nTakeaway: nothing in the workflow is ALU/FPU-"
                "specific — a new unit needs only a\nnetlist generator "
                "and the §3.3.5 instruction-construction mapping.\n");
    return 0;
}
