/**
 * @file
 * Memory-path substrate study: ages the 16-row SRAM address decoder
 * under the crc32 data-memory workload, lifts every violating pair
 * through the decoder-aware pass, and measures what the march-test
 * escalation ladder buys over random read/write traffic.
 *
 * Reported (all deterministic — no wall-clock fields):
 *  - lift coverage: Success / Unreachable / ConversionFailed split and
 *    the fault-class histogram of the lifted (victim, aggressor) pairs;
 *  - detection latency: ISS cycles from dispatch to the WrongAddress
 *    flag, per lifted class, under the minimized suite;
 *  - suite economy: cycle cost of the greedy set-cover suite vs the
 *    random-rung baseline, with each side's pair coverage;
 *  - campaign slice: detection/escape totals of a fixed-seed Monte
 *    Carlo campaign over the lifted working set.
 *
 * Results land in BENCH_mem.json (or the .smoke.json sibling under
 * --smoke, which never clobbers the pinned file).
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "campaign/campaign.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "rtl/memdec.h"
#include "vega/aging_analysis.h"
#include "vega/workflow.h"
#include "workloads/march.h"

using namespace vega;

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;

    bench::banner(std::string("Memory-path substrate: decoder aging -> "
                              "march detection") +
                  (smoke ? " [smoke]" : ""));

    HwModule module = rtl::make_memdec16();
    AgingAnalysisConfig acfg;
    acfg.utilization = 0.99;
    acfg.max_trace = smoke ? 1500 : 4000;
    AgingAnalysisResult aging = run_aging_analysis(
        module, bench::timing_library(), mem_workload_trace(), acfg);
    auto pairs = aging.liftable_pairs();
    std::printf("aged 10y: wns=%.1fps, %zu liftable pairs\n",
                aging.sta.wns_setup, pairs.size());

    mem::MemLiftConfig mcfg;
    if (smoke)
        mcfg.max_pairs = 6;
    mem::MemLiftResult lift =
        mem::run_decoder_lifting(module, pairs, mcfg);
    std::printf("lift: %zu success, %zu unreachable, %zu failed "
                "(of %zu analyzed)\n",
                lift.n_success, lift.n_unreachable,
                lift.n_conversion_failed, lift.pairs.size());

    // Fault-class and escalation histograms over the lifted pairs.
    size_t kind_count[5] = {0, 0, 0, 0, 0};
    size_t esc_random = 0, esc_mats = 0, esc_cminus = 0;
    for (const auto &pr : lift.pairs) {
        if (pr.status != ::vega::lift::PairStatus::Success)
            continue;
        kind_count[size_t(pr.cls.kind)]++;
        if (pr.escalation == "random")
            ++esc_random;
        else if (pr.escalation == "mats+")
            ++esc_mats;
        else
            ++esc_cminus;
    }
    std::printf("classes: wrong_row_read=%zu wrong_row_write=%zu "
                "multi_select=%zu no_select=%zu\n",
                kind_count[1], kind_count[2], kind_count[3],
                kind_count[4]);

    // Suite economy: minimized set-cover suite vs the random rung.
    uint64_t suite_cycles = 0, random_cycles = 0;
    for (const auto &tc : lift.suite)
        suite_cycles += tc.cycle_cost;
    size_t random_covered = 0, suite_covered = 0, successes = 0;
    std::vector<runtime::TestCase> random_rung;
    for (const auto &tc : lift.candidates)
        if (tc.config == "random") {
            random_rung.push_back(tc);
            random_cycles += tc.cycle_cost;
        }
    uint64_t latency_sum = 0;
    for (const auto &pr : lift.pairs) {
        if (pr.status != ::vega::lift::PairStatus::Success)
            continue;
        ++successes;
        bool rnd = false;
        for (const auto &tc : random_rung) {
            mem::MarchEngine e(pr.cls);
            rnd |= e.run(tc) != runtime::Detection::None;
        }
        random_covered += rnd ? 1 : 0;
        // Detection latency under the minimized suite: ISS cycles from
        // dispatch of the first test to the WrongAddress flag.
        mem::MarchEngine engine(pr.cls);
        bool det = false;
        for (const auto &tc : lift.suite)
            if (engine.run(tc) != runtime::Detection::None) {
                det = true;
                break;
            }
        if (det) {
            ++suite_covered;
            latency_sum += engine.cycles();
        }
    }
    double mean_latency =
        suite_covered ? double(latency_sum) / double(suite_covered) : 0.0;
    std::printf("suite: %zu tests / %llu cycles cover %zu/%zu; random "
                "rung: %zu tests / %llu cycles cover %zu/%zu\n",
                lift.suite.size(), (unsigned long long)suite_cycles,
                suite_covered, successes, random_rung.size(),
                (unsigned long long)random_cycles, random_covered,
                successes);
    std::printf("mean detection latency: %.0f ISS cycles\n",
                mean_latency);

    // Campaign slice over the lifted working set (fixed seed; the
    // report is deterministic at any thread count).
    std::vector<sta::EndpointPair> working;
    for (const auto &pr : lift.pairs)
        if (pr.status == ::vega::lift::PairStatus::Success)
            working.push_back(pr.pair);
    campaign::CampaignConfig ccfg;
    ccfg.seed = 7;
    ccfg.num_jobs = smoke ? 64 : 256;
    ccfg.threads = 2;
    campaign::CampaignReport rep =
        campaign::run_campaign(module, working, lift.suite, ccfg);
    std::printf("campaign: %llu detected (%llu wrong-address), %llu "
                "escapes of %llu corrupting\n",
                (unsigned long long)rep.detected,
                (unsigned long long)rep.detections.wrong_address,
                (unsigned long long)rep.escapes,
                (unsigned long long)rep.corrupting);

    std::string json = "{\"mem_substrate\":{";
    bench::kv_bool(json, "smoke", smoke);
    obs::kv(json, "liftable_pairs", uint64_t(pairs.size()));
    json += "\"lift\":{";
    obs::kv(json, "analyzed", uint64_t(lift.pairs.size()));
    obs::kv(json, "success", uint64_t(lift.n_success));
    obs::kv(json, "unreachable", uint64_t(lift.n_unreachable));
    obs::kv(json, "conversion_failed", uint64_t(lift.n_conversion_failed),
            false);
    json += "},\"classes\":{";
    obs::kv(json, "wrong_row_read", uint64_t(kind_count[1]));
    obs::kv(json, "wrong_row_write", uint64_t(kind_count[2]));
    obs::kv(json, "multi_select", uint64_t(kind_count[3]));
    obs::kv(json, "no_select", uint64_t(kind_count[4]), false);
    json += "},\"escalation\":{";
    obs::kv(json, "random", uint64_t(esc_random));
    obs::kv(json, "mats_plus", uint64_t(esc_mats));
    obs::kv(json, "march_cminus", uint64_t(esc_cminus), false);
    json += "},\"suite\":{";
    obs::kv(json, "tests", uint64_t(lift.suite.size()));
    obs::kv(json, "cycles", uint64_t(suite_cycles));
    obs::kv(json, "covered", uint64_t(suite_covered));
    obs::kv(json, "mean_detection_latency_cycles", mean_latency, false);
    json += "},\"random_baseline\":{";
    obs::kv(json, "tests", uint64_t(random_rung.size()));
    obs::kv(json, "cycles", uint64_t(random_cycles));
    obs::kv(json, "covered", uint64_t(random_covered), false);
    json += "},\"campaign\":{";
    obs::kv(json, "jobs", uint64_t(ccfg.num_jobs));
    obs::kv(json, "detected", rep.detected);
    obs::kv(json, "wrong_address", rep.detections.wrong_address);
    obs::kv(json, "escapes", rep.escapes);
    obs::kv(json, "corrupting", rep.corrupting, false);
    json += "}}}";
    bench::write_bench_json("mem", smoke, json);

    return lift.n_success > 0 && suite_covered == successes ? 0 : 1;
}
