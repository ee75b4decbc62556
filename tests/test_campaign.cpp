#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>

#include "campaign/journal.h"
#include "campaign/thread_pool.h"
#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "obs/trace.h"
#include "rtl/alu32.h"
#include "vega/workflow.h"

namespace vega::campaign {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, StartsTasksInSubmitOrder)
{
    // One worker, held by its first task until 100 more are queued
    // behind it: those 100 must then run in the order they came.
    ThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool all_queued = false;
    pool.submit([&] {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return all_queued; });
    });
    std::vector<int> order; // written by the one worker only
    for (int i = 0; i < 100; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    {
        std::lock_guard<std::mutex> lk(mu);
        all_queued = true;
    }
    cv.notify_one();
    pool.wait_idle();
    std::vector<int> want(100);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(ThreadPool, NestedSubmitFromWorker)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&] {
            count.fetch_add(1);
            for (int j = 0; j < 5; ++j)
                pool.submit([&] { count.fetch_add(1); });
        });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 10 + 50);
}

TEST(ThreadPool, WaitIdleIsReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.wait_idle();
        EXPECT_EQ(count.load(), (batch + 1) * 20);
    }
}

TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    std::atomic<int> count{0};
    pool.submit([&] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1);
}

TEST(Seeding, JobStreamsAreDeterministicAndDistinct)
{
    std::set<uint64_t> roots;
    for (uint64_t id = 0; id < 1000; ++id) {
        uint64_t a = job_stream(42, id);
        EXPECT_EQ(a, job_stream(42, id));
        roots.insert(a);
    }
    EXPECT_EQ(roots.size(), 1000u);
    EXPECT_NE(job_stream(42, 0), job_stream(43, 0));
}

TEST(Rng, SeedExpansionMatchesPinnedStream)
{
    // Every report, digest and journal derives from these streams: a
    // change to splitmix64, to Rng's seeding through it or to
    // job_stream shows here before it shows as a changed report.
    Rng zero(0), one(1);
    EXPECT_EQ(zero.next(), 0x99ec5f36cb75f2b4ull);
    EXPECT_EQ(zero.next(), 0xbf6e1f784956452aull);
    EXPECT_EQ(zero.next(), 0x1a5f849d4933e6e0ull);
    EXPECT_EQ(one.next(), 0xb3f2af6d0fc710c5ull);
    EXPECT_EQ(one.next(), 0x853b559647364ceaull);
    EXPECT_EQ(one.next(), 0x92f89756082a4514ull);

    uint64_t x = 42;
    EXPECT_EQ(splitmix64(x), 0xbdd732262feb6e95ull);
    EXPECT_EQ(splitmix64(x), 0x28efe333b266f103ull);
    EXPECT_EQ(splitmix64(x), 0x47526757130f9f52ull);

    EXPECT_EQ(job_stream(7, 3), 0xe6aa12537dcd3202ull);
}

TEST(Progress, EmitsSummaryThroughSink)
{
    std::vector<std::string> lines;
    ProgressMeter meter(3, std::chrono::milliseconds(0),
                        [&](const std::string &l) { lines.push_back(l); });
    meter.job_done(100);
    meter.job_done(100);
    meter.job_done(100);
    meter.finish();
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.back().find("3/3 jobs (100.0%)"), std::string::npos)
        << lines.back();
}

JobResult
fake_job(uint64_t id, size_t pair, bool detected, bool corrupts,
         runtime::SchedulePolicy policy, uint64_t slots)
{
    JobResult j;
    j.id = id;
    j.pair_index = pair;
    j.policy = policy;
    j.detected = detected;
    j.kind = detected ? runtime::Detection::Mismatch
                      : runtime::Detection::None;
    j.slots_to_detect = detected ? slots : 0;
    j.tests_dispatched = slots;
    j.sim_cycles = 10 * slots;
    j.corrupts_workload = corrupts;
    j.escape = corrupts && !detected;
    return j;
}

TEST(Report, AggregatesTotalsPairsAndPolicies)
{
    using runtime::SchedulePolicy;
    std::vector<JobResult> jobs = {
        fake_job(0, 0, true, true, SchedulePolicy::Sequential, 2),
        fake_job(1, 1, false, true, SchedulePolicy::Random, 8),
        fake_job(2, 0, false, false, SchedulePolicy::Probabilistic, 8),
        fake_job(3, 1, true, true, SchedulePolicy::Sequential, 4),
    };
    JournalHeader config;
    config.num_pairs = 2;
    CampaignReport r = aggregate_report(config, jobs, {});
    EXPECT_EQ(r.detected, 2u);
    EXPECT_EQ(r.corrupting, 3u);
    EXPECT_EQ(r.escapes, 1u);
    EXPECT_EQ(r.benign, 1u);
    EXPECT_EQ(r.detections.mismatch, 2u);
    EXPECT_DOUBLE_EQ(r.detection_rate(), 0.5);
    EXPECT_DOUBLE_EQ(r.mean_latency_slots(), 3.0);
    ASSERT_EQ(r.per_pair.size(), 2u);
    EXPECT_EQ(r.per_pair[0].jobs, 2u);
    EXPECT_EQ(r.per_pair[0].detected, 1u);
    EXPECT_EQ(r.per_pair[1].escapes, 1u);
    const auto &seq = r.per_policy[size_t(SchedulePolicy::Sequential)];
    EXPECT_EQ(seq.jobs, 2u);
    EXPECT_EQ(seq.detected, 2u);
}

TEST(Report, JsonSchemaAndTimingToggle)
{
    std::vector<JobResult> jobs = {
        fake_job(0, 0, true, true, runtime::SchedulePolicy::Sequential,
                 1)};
    JournalHeader config;
    config.module = "alu32";
    config.seed = 5;
    config.num_pairs = 1;
    CampaignReport r = aggregate_report(config, jobs, {});

    std::string with_timing = r.to_json(true);
    for (const char *key :
         {"\"campaign\"", "\"totals\"", "\"per_pair\"", "\"per_policy\"",
          "\"jobs\"", "\"timing\"", "\"detections\"", "\"escape_rate\""})
        EXPECT_NE(with_timing.find(key), std::string::npos) << key;

    std::string stable = r.to_json(false);
    EXPECT_EQ(stable.find("\"timing\""), std::string::npos);
    EXPECT_EQ(stable, r.to_json(false));

    std::string aggregates = r.to_json(false, false);
    EXPECT_EQ(aggregates.find("\"jobs\":["), std::string::npos);
}

/** One analyzed ALU + a small synthetic screening suite, built once. */
struct CampaignEnv
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
};

runtime::TestCase
alu_test(const char *name, AluOp op, uint32_t a, uint32_t b, int pair)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Alu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    tc.checks = {{0, alu_compute(op, a, b), false}};
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

const CampaignEnv &
env()
{
    static CampaignEnv *e = [] {
        auto *env = new CampaignEnv;
        env->module = rtl::make_alu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged = run_aging_analysis(env->module, lib, minver_trace(),
                                       cfg);
        env->pairs = aged.liftable_pairs();
        if (env->pairs.size() > 2)
            env->pairs.resize(2);
        env->suite = {
            alu_test("c0", AluOp::Add, 0xffffffff, 1, 0),
            alu_test("c1", AluOp::Sub, 0, 1, 0),
            alu_test("c2", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
            alu_test("c3", AluOp::Sll, 1, 31, 1),
        };
        return env;
    }();
    return *e;
}

CampaignConfig
small_config(size_t threads)
{
    CampaignConfig cfg;
    cfg.seed = 99;
    cfg.num_jobs = 18;
    cfg.threads = threads;
    cfg.max_slots = 6;
    return cfg;
}

TEST(Campaign, SameSeedIsByteIdenticalAtAnyThreadCount)
{
    const CampaignEnv &e = env();
    CampaignReport r1 = run_campaign(e.module, e.pairs, e.suite,
                                     small_config(1));
    CampaignReport r2 = run_campaign(e.module, e.pairs, e.suite,
                                     small_config(2));
    CampaignReport r8 = run_campaign(e.module, e.pairs, e.suite,
                                     small_config(8));

    std::string j1 = r1.to_json(false);
    EXPECT_EQ(j1, r2.to_json(false));
    EXPECT_EQ(j1, r8.to_json(false));
    EXPECT_EQ(r1.detected, r8.detected);
    EXPECT_EQ(r1.escapes, r8.escapes);
}

TEST(Campaign, TracingDoesNotPerturbDeterministicReport)
{
    // Observability must be a pure observer: the deterministic JSON
    // with spans recording is byte-identical to a flags-off run.
    const CampaignEnv &e = env();
    CampaignReport off = run_campaign(e.module, e.pairs, e.suite,
                                      small_config(2));
    obs::trace_enable();
    CampaignReport on = run_campaign(e.module, e.pairs, e.suite,
                                     small_config(2));
    obs::trace_disable();
    EXPECT_EQ(off.to_json(false), on.to_json(false));
    // And the run actually produced campaign.job spans.
    bool saw_job_span = false;
    for (const obs::TraceEvent &ev : obs::trace_collect())
        if (std::string(ev.name) == "campaign.job")
            saw_job_span = true;
    EXPECT_TRUE(saw_job_span);
}

TEST(Campaign, CoversEveryPairAndClassifiesCoherently)
{
    const CampaignEnv &e = env();
    CampaignReport r = run_campaign(e.module, e.pairs, e.suite,
                                    small_config(2));

    ASSERT_EQ(r.jobs.size(), 18u);
    ASSERT_EQ(r.per_pair.size(), e.pairs.size());
    uint64_t pair_jobs = 0;
    for (const auto &p : r.per_pair) {
        EXPECT_GT(p.jobs, 0u) << "pair " << p.pair_index
                              << " never injected";
        pair_jobs += p.jobs;
    }
    EXPECT_EQ(pair_jobs, r.jobs.size());

    for (const auto &j : r.jobs) {
        if (j.escape) {
            EXPECT_TRUE(j.corrupts_workload);
            EXPECT_FALSE(j.detected);
        }
        if (j.detected) {
            EXPECT_GE(j.slots_to_detect, 1u);
            EXPECT_LE(j.slots_to_detect, 6u);
            EXPECT_NE(j.kind, runtime::Detection::None);
        }
        EXPECT_GT(j.sim_cycles, 0u);
    }
    EXPECT_EQ(r.detected + r.escapes + r.benign,
              uint64_t(r.jobs.size()));
}

TEST(Campaign, DifferentSeedsDiffer)
{
    const CampaignEnv &e = env();
    CampaignConfig a = small_config(2);
    CampaignConfig b = small_config(2);
    b.seed = 100;
    CampaignReport ra = run_campaign(e.module, e.pairs, e.suite, a);
    CampaignReport rb = run_campaign(e.module, e.pairs, e.suite, b);
    // Sampled constants/policies/seeds differ somewhere in 18 jobs.
    EXPECT_NE(ra.to_json(false), rb.to_json(false));
}

TEST(Campaign, ProgressSinkObservesAllJobs)
{
    const CampaignEnv &e = env();
    CampaignConfig cfg = small_config(2);
    std::atomic<int> lines{0};
    cfg.progress_interval = std::chrono::milliseconds(0);
    cfg.progress_sink = [&](const std::string &) { lines.fetch_add(1); };
    run_campaign(e.module, e.pairs, e.suite, cfg);
    // one line per characterization config + per job + the final line
    EXPECT_GE(lines.load(), 18 + 1);
}

} // namespace
} // namespace vega::campaign
