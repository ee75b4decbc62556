/**
 * @file
 * Thread-scaling study of the fault-injection campaign engine: the
 * same ≥500-job ALU campaign at 1, 2, 4, and 8 worker threads.
 *
 * Two claims are measured:
 *  - throughput scales with threads (speedup column; needs real cores
 *    — the hardware_concurrency line tells you what this box has);
 *  - results do NOT depend on thread count: the deterministic JSON
 *    (timing excluded) is byte-identical in every configuration, so
 *    detection/escape counts are too.
 *
 * Results land in BENCH_campaign.json (or the .smoke.json sibling
 * under --smoke, which runs fewer jobs at 1 and 2 threads only and
 * never clobbers the pinned file).
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "campaign/campaign.h"

using namespace vega;

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;

    bench::banner(std::string("Campaign scaling: 1 -> N worker threads") +
                  (smoke ? " [smoke]" : ""));
    std::printf("hardware_concurrency: %u\n\n",
                std::thread::hardware_concurrency());

    bench::AnalyzedModule m = bench::analyze(ModuleKind::Alu32);
    // A small lifted working set keeps the per-job cost low: the bench
    // measures campaign fan-out, not lifting. VEGA_FULL lifts all.
    lift::LiftConfig lift_cfg;
    lift_cfg.bmc.max_frames = 4;
    lift_cfg.bmc.conflict_budget = 400000;
    if (!bench::full_mode())
        lift_cfg.max_pairs = 8;
    lift::LiftResult lifted = lift::run_error_lifting(
        m.module, bench::working_pairs(m), lift_cfg);
    auto suite = lifted.suite();
    if (suite.empty()) {
        std::printf("no tests lifted; cannot run the campaign bench\n");
        return 1;
    }
    // 8 pairs x 2 constants of netlist variants, also under VEGA_FULL.
    std::vector<sta::EndpointPair> pairs;
    for (const auto &pr : lifted.pairs)
        if (pairs.size() < 8)
            pairs.push_back(pr.pair);
    std::printf("working set: %zu pairs, %zu suite tests\n\n",
                pairs.size(), suite.size());

    campaign::CampaignConfig cfg;
    cfg.seed = 7;
    cfg.num_jobs = smoke ? 64 : 512;

    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<size_t> threads_list = {1, 2, 4, 8};
    if (smoke) {
        // Smoke keeps CI fast: the serial baseline, one scaling point,
        // and — only where there are real cores to scale onto — the
        // 8-thread point the CI speedup gate reads.
        threads_list = {1, 2};
        if (hw >= 8)
            threads_list.push_back(8);
    }
    const std::vector<size_t> &kThreads = threads_list;
    std::vector<campaign::CampaignReport> reports;
    std::printf("%7s | %8s | %8s | %8s | %7s | %6s | %6s | %6s | %6s\n",
                "threads", "wall s", "jobs/s", "sims/s", "speedup",
                "char s", "sim s", "jrnl s", "agg s");
    double base_jps = 0.0;
    for (size_t t : kThreads) {
        cfg.threads = t;
        reports.push_back(campaign::run_campaign(m.module, pairs, suite,
                                                 cfg));
        const auto &r = reports.back();
        if (t == 1)
            base_jps = r.timing.jobs_per_sec;
        std::printf("%7zu | %8.2f | %8.1f | %8.0f | %6.2fx | %6.2f | "
                    "%6.2f | %6.2f | %6.2f\n",
                    t, r.timing.wall_seconds, r.timing.jobs_per_sec,
                    r.timing.sims_per_sec,
                    base_jps > 0 ? r.timing.jobs_per_sec / base_jps
                                 : 0.0,
                    r.timing.characterize_seconds,
                    r.timing.simulate_seconds, r.timing.journal_seconds,
                    r.timing.aggregate_seconds);
    }

    // Determinism across thread counts: identical reports, bit for bit.
    std::string golden = reports.front().to_json(false);
    bool identical = true;
    for (const auto &r : reports)
        identical = identical && r.to_json(false) == golden;
    std::printf("\ndeterminism: reports at every thread count are %s "
                "(detected=%llu escapes=%llu)\n",
                identical ? "byte-identical" : "DIFFERENT (BUG)",
                (unsigned long long)reports.front().detected,
                (unsigned long long)reports.front().escapes);

    std::string json = "{\"campaign_scaling\":{";
    bench::kv_bool(json, "smoke", smoke);
    obs::kv(json, "num_jobs", uint64_t(cfg.num_jobs));
    obs::kv(json, "hardware_concurrency", uint64_t(hw));
    bench::kv_bool(json, "deterministic", identical);
    obs::json_key(json, "runs");
    json += '[';
    for (size_t i = 0; i < reports.size(); ++i) {
        const campaign::CampaignTiming &t = reports[i].timing;
        json += i ? ",{" : "{";
        obs::kv(json, "threads", uint64_t(kThreads[i]));
        obs::kv(json, "wall_seconds", t.wall_seconds);
        obs::kv(json, "jobs_per_sec", t.jobs_per_sec);
        obs::kv(json, "sims_per_sec", t.sims_per_sec);
        obs::kv(json, "speedup",
                base_jps > 0 ? t.jobs_per_sec / base_jps : 0.0);
        obs::kv(json, "characterize_seconds", t.characterize_seconds);
        obs::kv(json, "simulate_seconds", t.simulate_seconds);
        obs::kv(json, "journal_seconds", t.journal_seconds);
        obs::kv(json, "aggregate_seconds", t.aggregate_seconds);
        obs::kv(json, "detected", reports[i].detected);
        obs::kv(json, "escapes", reports[i].escapes, false);
        json += '}';
    }
    json += "]}}";
    bench::write_bench_json("campaign", smoke, json);

    return identical ? 0 : 1;
}
