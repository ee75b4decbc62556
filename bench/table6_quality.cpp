/**
 * @file
 * Table 6 — quality of the generated test cases, measured by their
 * ability to detect the modeled failures when the whole suite runs on
 * the CPU with a failing netlist as the functional unit.
 *
 * Per failure mode C in {0, 1, random}:
 *   Det. failures detectable by some test in the suite
 *   B    failures caught by a test that runs *before* their own test
 *   L    failures missed by their own test but caught by a later one
 *   S    failures that manifest as a CPU stall (handshake corruption)
 */
#include <cstdio>

#include "bench/quality.h"

namespace {

using namespace vega;

void
evaluate(const char *unit, const bench::AnalyzedModule &m,
         const lift::LiftResult &lifted, bool mitigated)
{
    auto suite = lifted.suite();
    if (suite.empty()) {
        std::printf("%-4s: no tests generated\n", unit);
        return;
    }

    for (lift::FaultConstant c : bench::kFailureModes) {
        bench::FailingBank bank = bench::make_failing_bank(m.module, lifted, c);
        size_t n = bank.pair_index.size();
        size_t detected = 0, before = 0, later = 0, stall = 0;
        for (const campaign::JobResult &out :
             bench::run_suite_on_bank(bank, suite, 17)) {
            if (!out.detected)
                continue;
            ++detected;
            if (out.kind == runtime::Detection::Stall)
                ++stall;
            // Where do this pair's own tests sit in the suite?
            size_t own_first = SIZE_MAX, own_last = 0;
            for (size_t s = 0; s < suite.size(); ++s) {
                if (suite[s].pair_index == int(out.pair_index)) {
                    own_first = std::min(own_first, s);
                    own_last = std::max(own_last, s);
                }
            }
            size_t position = out.slots_to_detect - 1;
            if (position < own_first)
                ++before;
            else if (position > own_last)
                ++later;
        }
        double dn = double(n);
        std::printf("%-4s |  %s  | %5.1f | %5.1f | %5.1f | %5.1f |  "
                    "(%zu failing netlists)%s\n",
                    unit, bench::failure_mode_label(c),
                    100.0 * detected / dn, 100.0 * before / dn,
                    100.0 * later / dn, 100.0 * stall / dn, n,
                    mitigated ? "" : "");
    }
}

} // namespace

int
main()
{
    using namespace vega;
    bench::banner("Table 6: quality of generated tests vs failing "
                  "netlists (percent of failures)");
    std::printf("%-4s | FM | %5s | %5s | %5s | %5s |\n", "Unit", "Det.",
                "B", "L", "S");

    for (bool mitigated : {false, true}) {
        std::printf("--- %s mitigation ---\n",
                    mitigated ? "with" : "without");
        for (ModuleKind kind : {ModuleKind::Alu32, ModuleKind::Fpu32}) {
            bench::AnalyzedModule m = bench::analyze(kind);
            lift::LiftResult lifted = bench::lift_module(m, mitigated);
            evaluate(kind == ModuleKind::Alu32 ? "ALU" : "FPU", m, lifted,
                     mitigated);
        }
    }

    std::printf("\nPaper shape check (their Table 6): detection is at or "
                "near 100%%, many failures\nare caught by a test that "
                "runs before their own (B), occasional misses are\n"
                "picked up later (L), and a small number of handshake "
                "faults stall the CPU (S).\n");
    return 0;
}
