/**
 * @file
 * Table 7 — effectiveness of Vega-generated vs randomly-generated test
 * suites, measured by the fraction of failing netlists each detects.
 * Random suites mirror Vega's style and quantity: each test checks one
 * random instruction with random inputs (§5.2.3). The paper averages 10
 * random experiments; we default to 3 (VEGA_FULL=1 restores 10).
 */
#include <cstdio>

#include "bench/quality.h"

namespace {

using namespace vega;

double
detection_rate(const bench::FailingBank &bank,
               const std::vector<runtime::TestCase> &suite, uint64_t seed)
{
    size_t n = bank.pair_index.size(), detected = 0;
    for (const campaign::JobResult &out :
         bench::run_suite_on_bank(bank, suite, seed))
        if (out.detected)
            ++detected;
    return n == 0 ? 0.0 : 100.0 * double(detected) / double(n);
}

} // namespace

int
main()
{
    using namespace vega;
    bench::banner("Table 7: Vega-generated vs random test suites "
                  "(percent of failures detected)");
    std::printf("%-4s | FM | %7s | %7s |\n", "Unit", "Vega", "Random");

    int experiments = bench::full_mode() ? 10 : 3;

    for (ModuleKind kind : {ModuleKind::Alu32, ModuleKind::Fpu32}) {
        bench::AnalyzedModule m = bench::analyze(kind);
        lift::LiftResult lifted = bench::lift_module(m, false);
        auto vega_suite = lifted.suite();
        const char *unit = kind == ModuleKind::Alu32 ? "ALU" : "FPU";

        for (lift::FaultConstant c : bench::kFailureModes) {
            bench::FailingBank bank =
                bench::make_failing_bank(m.module, lifted, c);
            double vega_rate = detection_rate(bank, vega_suite, 1000);

            double random_sum = 0.0;
            for (int e = 0; e < experiments; ++e) {
                Rng rng(7777 + 131 * e);
                std::vector<runtime::TestCase> random_suite;
                for (size_t i = 0; i < vega_suite.size(); ++i)
                    random_suite.push_back(
                        bench::make_random_test(kind, rng, i));
                random_sum +=
                    detection_rate(bank, random_suite, 2000 + 31 * e);
            }
            std::printf("%-4s |  %s | %6.1f%% | %6.1f%% |  (%d random "
                        "experiments)\n",
                        unit, bench::failure_mode_label(c), vega_rate,
                        random_sum / experiments, experiments);
        }
    }

    std::printf("\nPaper shape check (their Table 7): Vega detects "
                "~100%% everywhere; random suites\ntrail badly on the "
                "ALU and on FPU C=0, but can be competitive on FPU "
                "C=1/random\n— and random testing cannot prove any "
                "failure impossible.\n");
    return 0;
}
