/**
 * @file
 * Exact bytes of every report serializer: a campaign report, a fleet
 * report, a metrics snapshot and a shard integrity manifest, each
 * built by hand so every number rule (integral doubles bare, others
 * %.9g, -0 as 0, 1e15 and up in exponent form) and every string
 * escape is pinned. A refactor of the JSON writers must leave these
 * strings unchanged.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/aggregator.h"
#include "campaign/report.h"
#include "fleet/report.h"
#include "obs/metrics.h"

namespace vega {
namespace {

TEST(JsonGolden, CampaignReportBytes)
{
    campaign::CampaignReport r;
    r.module = "alu32";
    r.seed = 18446744073709551615ull;
    r.max_slots = 12;
    r.probability = 0.25;
    r.suite_size = 6;
    r.num_pairs = 2;

    campaign::JobResult a;
    a.id = 0;
    a.pair_index = 0;
    a.constant = lift::FaultConstant::Zero;
    a.policy = runtime::SchedulePolicy::Sequential;
    a.detected = true;
    a.kind = runtime::Detection::Mismatch;
    a.slots_to_detect = 3;
    a.tests_dispatched = 3;
    a.sim_cycles = 120;
    a.corrupts_workload = true;
    campaign::JobResult b;
    b.id = 2;
    b.pair_index = 1;
    b.constant = lift::FaultConstant::One;
    b.policy = runtime::SchedulePolicy::Random;
    b.tests_dispatched = 8;
    b.sim_cycles = 900;
    b.corrupts_workload = true;
    b.escape = true;
    // Rows d, e and c reach the rest of every constant, policy and
    // detection kind, and c holds the largest value of every number.
    campaign::JobResult d;
    d.id = 3;
    d.constant = lift::FaultConstant::Zero;
    d.policy = runtime::SchedulePolicy::Random;
    d.detected = true;
    d.kind = runtime::Detection::TagAnomaly;
    d.slots_to_detect = 1;
    d.tests_dispatched = 1;
    d.sim_cycles = 40;
    campaign::JobResult e;
    e.id = 4;
    e.pair_index = 1;
    e.constant = lift::FaultConstant::One;
    e.policy = runtime::SchedulePolicy::Probabilistic;
    e.detected = true;
    e.kind = runtime::Detection::WrongAddress;
    e.slots_to_detect = 2;
    e.tests_dispatched = 5;
    e.sim_cycles = 64;
    e.corrupts_workload = true;
    campaign::JobResult c;
    c.id = UINT64_MAX;
    c.pair_index = SIZE_MAX;
    c.constant = lift::FaultConstant::RandomInput;
    c.policy = runtime::SchedulePolicy::Probabilistic;
    c.detected = true;
    c.kind = runtime::Detection::Stall;
    c.slots_to_detect = UINT64_MAX;
    c.tests_dispatched = UINT64_MAX;
    c.sim_cycles = UINT64_MAX;
    c.corrupts_workload = true;
    c.attempts = UINT32_MAX;
    r.jobs = {a, b, d, e, c};

    campaign::FailedJob f;
    f.id = 1;
    f.pair_index = 1;
    f.attempts = 1;
    f.error = make_error(ErrorCode::JobFailed,
                         "say \"hi\" \\ then\nnext\rcr\ttab\x01"
                         "end");
    r.failed_jobs = {f};

    r.per_pair.resize(2);
    r.per_pair[0].pair_index = 0;
    r.per_pair[0].jobs = 3;
    r.per_pair[0].detected = 1;
    r.per_pair[0].corrupting = 1;
    r.per_pair[0].slots_sum = 3;
    r.per_pair[0].sim_cycles = 120;
    r.per_pair[1].pair_index = 1;
    r.per_pair[1].jobs = 1;
    r.per_pair[1].corrupting = 1;
    r.per_pair[1].escapes = 1;
    r.per_pair[1].sim_cycles = 900;
    r.per_policy.resize(3);
    r.per_policy[0].policy = runtime::SchedulePolicy::Sequential;
    r.per_policy[0].jobs = 1;
    r.per_policy[0].detected = 1;
    r.per_policy[0].slots_sum = 3;
    r.per_policy[0].tests_dispatched = 3;
    r.per_policy[1].policy = runtime::SchedulePolicy::Random;
    r.per_policy[1].jobs = 1;
    r.per_policy[1].escapes = 1;
    r.per_policy[1].tests_dispatched = 8;
    r.per_policy[2].policy = runtime::SchedulePolicy::Probabilistic;

    r.detected = 1;
    r.corrupting = 2;
    r.escapes = 1;
    r.failed = 1;
    r.tests_dispatched = 11;
    r.total_sim_cycles = 1020;
    r.slots_sum = 3;
    r.detections.mismatch = 1;
    r.detections.stall = 2;
    r.detections.tag_anomaly = 3;
    r.detections.wrong_address = 4;

    r.timing.wall_seconds = 1.5;
    r.timing.jobs_per_sec = 1e15;
    r.timing.sims_per_sec = 123456789.125;
    r.timing.threads = 4;
    r.timing.peak_queue_depth = 9;
    r.timing.journal_flushes = 2;
    r.timing.journal_bytes = 4096;
    r.timing.characterize_seconds = 2.0;
    r.timing.simulate_seconds = 2.5e-7;
    r.timing.journal_seconds = -0.0;
    r.timing.aggregate_seconds = 123456789012345.0;
    r.timing.workflow_seconds = 0.125;

    EXPECT_EQ(r.to_json(true, true),
              R"({"campaign":{"module":"alu32","seed":18446744073709551615,)"
              R"("num_jobs":5,"suite_size":6,"num_pairs":2,"max_slots":12,)"
              R"("probability":0.25},"totals":{"detected":1,"corrupting":2,)"
              R"("escapes":1,"benign":0,"failed":1,"detection_rate":0.2,)"
              R"("escape_rate":0.5,"mean_latency_slots":3,)"
              R"("tests_dispatched":11,"sim_cycles":1020,)"
              R"("detections":{"mismatch":1,"stall":2,"tag_anomaly":3,)"
              R"("wrong_address":4}},"per_pair":[{"pair":0,"jobs":3,)"
              R"("detected":1,"corrupting":1,"escapes":0,)"
              R"("detection_rate":0.333333333,"mean_latency_slots":3,)"
              R"("sim_cycles":120},{"pair":1,"jobs":1,"detected":0,)"
              R"("corrupting":1,"escapes":1,"detection_rate":0,)"
              R"("mean_latency_slots":0,"sim_cycles":900}],)"
              R"("per_policy":[{"policy":"sequential","jobs":1,"detected":1,)"
              R"("escapes":0,"detection_rate":1,"mean_latency_slots":3,)"
              R"("tests_dispatched":3},{"policy":"random","jobs":1,)"
              R"("detected":0,"escapes":1,"detection_rate":0,)"
              R"("mean_latency_slots":0,"tests_dispatched":8},)"
              R"({"policy":"probabilistic","jobs":0,"detected":0,"escapes":0,)"
              R"("detection_rate":0,"mean_latency_slots":0,)"
              R"("tests_dispatched":0}],"jobs":[{"id":0,"pair":0,)"
              R"("constant":"C=0","policy":"sequential","detected":1,)"
              R"("kind":"mismatch","slots_to_detect":3,"tests_dispatched":3,)"
              R"("sim_cycles":120,"corrupts_workload":1,"escape":0,)"
              R"("attempts":1},{"id":2,"pair":1,"constant":"C=1",)"
              R"("policy":"random","detected":0,"kind":"none",)"
              R"("slots_to_detect":0,"tests_dispatched":8,"sim_cycles":900,)"
              R"("corrupts_workload":1,"escape":1,"attempts":1},{"id":3,)"
              R"("pair":0,"constant":"C=0","policy":"random","detected":1,)"
              R"("kind":"tag-anomaly","slots_to_detect":1,)"
              R"("tests_dispatched":1,"sim_cycles":40,"corrupts_workload":0,)"
              R"("escape":0,"attempts":1},{"id":4,"pair":1,"constant":"C=1",)"
              R"("policy":"probabilistic","detected":1,"kind":"wrong-address",)"
              R"("slots_to_detect":2,"tests_dispatched":5,"sim_cycles":64,)"
              R"("corrupts_workload":1,"escape":0,"attempts":1},)"
              R"({"id":18446744073709551615,"pair":18446744073709551615,)"
              R"("constant":"C=rand","policy":"probabilistic","detected":1,)"
              R"("kind":"stall","slots_to_detect":18446744073709551615,)"
              R"("tests_dispatched":18446744073709551615,)"
              R"("sim_cycles":18446744073709551615,"corrupts_workload":1,)"
              R"("escape":0,"attempts":4294967295}],)"
              R"("failed_jobs":[{"id":1,"pair":1,"attempts":1,)"
              R"("code":"job-failed","context":"say \"hi\" \\ then\nnext\rcr\)"
              R"(ttab\u0001end"}],"timing":{"wall_seconds":1.5,)"
              R"("jobs_per_sec":1e+15,"sims_per_sec":123456789,"threads":4,)"
              R"("peak_queue_depth":9,"journal_flushes":2,)"
              R"("journal_bytes":4096,"characterize_seconds":2,)"
              R"("simulate_seconds":2.5e-07,"journal_seconds":0,)"
              R"("aggregate_seconds":123456789012345,)"
              R"("workflow_seconds":0.125}})");
    EXPECT_EQ(r.to_json(false, false),
              R"({"campaign":{"module":"alu32","seed":18446744073709551615,)"
              R"("num_jobs":5,"suite_size":6,"num_pairs":2,"max_slots":12,)"
              R"("probability":0.25},"totals":{"detected":1,"corrupting":2,)"
              R"("escapes":1,"benign":0,"failed":1,"detection_rate":0.2,)"
              R"("escape_rate":0.5,"mean_latency_slots":3,)"
              R"("tests_dispatched":11,"sim_cycles":1020,)"
              R"("detections":{"mismatch":1,"stall":2,"tag_anomaly":3,)"
              R"("wrong_address":4}},"per_pair":[{"pair":0,"jobs":3,)"
              R"("detected":1,"corrupting":1,"escapes":0,)"
              R"("detection_rate":0.333333333,"mean_latency_slots":3,)"
              R"("sim_cycles":120},{"pair":1,"jobs":1,"detected":0,)"
              R"("corrupting":1,"escapes":1,"detection_rate":0,)"
              R"("mean_latency_slots":0,"sim_cycles":900}],)"
              R"("per_policy":[{"policy":"sequential","jobs":1,"detected":1,)"
              R"("escapes":0,"detection_rate":1,"mean_latency_slots":3,)"
              R"("tests_dispatched":3},{"policy":"random","jobs":1,)"
              R"("detected":0,"escapes":1,"detection_rate":0,)"
              R"("mean_latency_slots":0,"tests_dispatched":8},)"
              R"({"policy":"probabilistic","jobs":0,"detected":0,"escapes":0,)"
              R"("detection_rate":0,"mean_latency_slots":0,)"
              R"("tests_dispatched":0}],"failed_jobs":[{"id":1,"pair":1,)"
              R"("attempts":1,"code":"job-failed",)"
              R"("context":"say \"hi\" \\ then\nnext\rcr\ttab\u0001end"}]})");
}

TEST(JsonGolden, FleetReportBytes)
{
    fleet::FleetConfig cfg;
    cfg.seed = 3;
    cfg.num_devices = 6;
    cfg.epochs = 4;
    cfg.slots_per_epoch = 10;
    cfg.overhead_budget = 0.015;
    cfg.min_age_years = 0.0;
    cfg.max_age_years = 8.0;
    cfg.adversarial_report_cap = 1;
    cfg.corners = {{"typ", 1.0, 1.0}, {"hot", 2.0, 1.0}};
    fleet::WorkloadMix plain;
    plain.name = "balanced";
    fleet::WorkloadMix attack;
    attack.name = "wearout";
    attack.adversarial = true;
    attack.target_pair = 1;
    cfg.mixes = {plain, attack};

    fleet::FaultMatrix m;
    m.module = ModuleKind::Alu32;
    m.num_pairs = 2;
    m.num_tests = 3;
    m.test_cycles = {100, 200, 300};
    m.suite_cycles = 600;
    m.faults.resize(4);
    for (size_t i = 0; i < m.faults.size(); ++i) {
        m.faults[i].pair_index = i / 2;
        m.faults[i].per_test.assign(3, runtime::Detection::None);
    }
    m.faults[0].per_test[1] = runtime::Detection::Mismatch;
    m.faults[0].detecting_tests = 1;
    m.faults[0].corrupts = true;
    m.faults[3].per_test[2] = runtime::Detection::Stall;
    m.faults[3].detecting_tests = 1;

    fleet::FleetReport r = fleet::empty_report(cfg, m);
    std::vector<fleet::DeviceOutcome> devices(6);
    const runtime::Detection kinds[] = {
        runtime::Detection::Mismatch, runtime::Detection::Stall,
        runtime::Detection::TagAnomaly, runtime::Detection::WrongAddress};
    for (size_t i = 0; i < devices.size(); ++i) {
        fleet::DeviceOutcome &d = devices[i];
        d.id = i;
        d.corner = uint32_t(i % 2);
        d.mix = uint32_t(i % 3 == 1);
        d.adversarial = d.mix == 1;
        d.age_start = 1.3 * double(i);
        d.epochs_run = 4 - uint32_t(i % 3);
        d.slots = 10 * d.epochs_run;
        d.tests_dispatched = d.slots - i;
        d.test_cycles = 150 * d.tests_dispatched;
        d.app_cycles = 1000000 + 7 * i;
        if (i == 2)
            continue; // healthy
        d.fault = true;
        d.onset_epoch = uint32_t(i % 2);
        d.fault_index = uint32_t(i % 4);
        d.fault_detectable = i != 5;
        d.detected = i != 5;
        if (d.detected) {
            d.kind = kinds[i % 4];
            d.detect_epoch = d.onset_epoch + uint32_t(i % 3);
            d.slots_to_detect = 1 + 7 * i;
            d.prevented_corruptions = uint32_t(i % 2);
        }
        d.corruptions = uint32_t(i == 4 || i == 5);
    }
    std::vector<double> overheads;
    for (const fleet::DeviceOutcome &d : devices) {
        fleet::fold_device(r, cfg, m, d);
        overheads.push_back(d.realized_overhead());
    }
    fleet::finish_report(r, overheads);
    r.timing.wall_seconds = 0.125;
    r.timing.device_epochs_per_sec = 12345.678;
    r.timing.threads = 2;
    r.timing.workflow_seconds = 1.0 / 3.0;
    r.timing.matrix_seconds = 2.0;

    EXPECT_EQ(r.to_json(true),
              R"({"fleet":{"module":"alu32","seed":3,"num_devices":6,)"
              R"("epochs":4,"slots_per_epoch":10,"overhead_budget":0.015,)"
              R"("policy":"probabilistic","suite_size":3,"num_pairs":2,)"
              R"("fault_classes":4,"detectable_classes":2,)"
              R"("corrupting_classes":1},"totals":{"device_epochs":18,)"
              R"("slots":180,"tests_dispatched":165,"test_cycles":24750,)"
              R"("app_cycles":6000105,"faulty_devices":5,)"
              R"("detectable_faulty_devices":4,"detected_devices":4,)"
              R"("missed_devices":2,"silent_corruptions":2,)"
              R"("prevented_corruptions":2,)"
              R"("detected_before_any_corruption":3,"detection_rate":1,)"
              R"("mean_overhead":0.00410614991,"detections":{"mismatch":2,)"
              R"("stall":1,"tag_anomaly":0,"wrong_address":1}},)"
              R"("latency_slots":{"count":4,"sum":60,"mean":15,"p50":8,)"
              R"("p95":30.4,"p99":31.68,"bounds":[1,2,4,8,16,32,40],)"
              R"("buckets":[1,0,0,1,0,2,0,0]},"latency_epochs":{"count":4,)"
              R"("sum":2,"mean":0.5,"p50":0,"p95":0.9,"p99":0.98,"bounds":[0,)"
              R"(1,2,3],"buckets":[2,2,0,0,0]},"overhead":{"count":6,)"
              R"("sum":0.0246368995,"mean":0.00410614991,"p50":0.0046875,)"
              R"("p95":0.00721875,"p99":0.00744375,"bounds":[0.0015,0.00375,)"
              R"(0.0075,0.01125,0.0135,0.015,0.0165,0.0225,0.03],)"
              R"("buckets":[0,2,4,0,0,0,0,0,0,0]},)"
              R"("per_corner":[{"name":"typ","devices":3,"faulty":2,)"
              R"("detected":2,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":1,"miss_rate":0.5},{"name":"hot",)"
              R"("devices":3,"faulty":3,"detected":2,"missed":1,)"
              R"("silent_corruptions":1,"detection_rate":0.666666667,)"
              R"("miss_rate":0.333333333}],"per_mix":[{"name":"balanced",)"
              R"("devices":4,"faulty":3,"detected":2,"missed":1,)"
              R"("silent_corruptions":1,"detection_rate":0.666666667,)"
              R"("miss_rate":0.333333333},{"name":"wearout","devices":2,)"
              R"("faulty":2,"detected":2,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":1,"miss_rate":0.5}],)"
              R"("per_age":[{"name":"age_q1_youngest","devices":2,"faulty":2,)"
              R"("detected":2,"missed":0,"silent_corruptions":0,)"
              R"("detection_rate":1,"miss_rate":0},{"name":"age_q2",)"
              R"("devices":2,"faulty":1,"detected":1,"missed":0,)"
              R"("silent_corruptions":0,"detection_rate":1,"miss_rate":0},)"
              R"({"name":"age_q3","devices":1,"faulty":1,"detected":1,)"
              R"("missed":1,"silent_corruptions":1,"detection_rate":1,)"
              R"("miss_rate":1},{"name":"age_q4_oldest","devices":1,)"
              R"("faulty":1,"detected":0,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":0,"miss_rate":1}],)"
              R"("adversarial":{"devices":2,"faulty":2,"detected":2,)"
              R"("detected_before_corruption":1,"silently_corrupted":1,)"
              R"("outcomes_total":2,"outcomes_reported":1,)"
              R"("outcomes":[{"id":1,"onset_epoch":1,"pair":0,"detected":1,)"
              R"("kind":"stall","detect_epoch":2,"slots_to_detect":8,)"
              R"("corruptions":0,"prevented_corruptions":1,)"
              R"("outcome":"detected-before-corruption"}]},)"
              R"("timing":{"wall_seconds":0.125,)"
              R"("device_epochs_per_sec":12345.678,"threads":2,)"
              R"("workflow_seconds":0.333333333,"matrix_seconds":2}})");
    EXPECT_EQ(r.to_json(false),
              R"({"fleet":{"module":"alu32","seed":3,"num_devices":6,)"
              R"("epochs":4,"slots_per_epoch":10,"overhead_budget":0.015,)"
              R"("policy":"probabilistic","suite_size":3,"num_pairs":2,)"
              R"("fault_classes":4,"detectable_classes":2,)"
              R"("corrupting_classes":1},"totals":{"device_epochs":18,)"
              R"("slots":180,"tests_dispatched":165,"test_cycles":24750,)"
              R"("app_cycles":6000105,"faulty_devices":5,)"
              R"("detectable_faulty_devices":4,"detected_devices":4,)"
              R"("missed_devices":2,"silent_corruptions":2,)"
              R"("prevented_corruptions":2,)"
              R"("detected_before_any_corruption":3,"detection_rate":1,)"
              R"("mean_overhead":0.00410614991,"detections":{"mismatch":2,)"
              R"("stall":1,"tag_anomaly":0,"wrong_address":1}},)"
              R"("latency_slots":{"count":4,"sum":60,"mean":15,"p50":8,)"
              R"("p95":30.4,"p99":31.68,"bounds":[1,2,4,8,16,32,40],)"
              R"("buckets":[1,0,0,1,0,2,0,0]},"latency_epochs":{"count":4,)"
              R"("sum":2,"mean":0.5,"p50":0,"p95":0.9,"p99":0.98,"bounds":[0,)"
              R"(1,2,3],"buckets":[2,2,0,0,0]},"overhead":{"count":6,)"
              R"("sum":0.0246368995,"mean":0.00410614991,"p50":0.0046875,)"
              R"("p95":0.00721875,"p99":0.00744375,"bounds":[0.0015,0.00375,)"
              R"(0.0075,0.01125,0.0135,0.015,0.0165,0.0225,0.03],)"
              R"("buckets":[0,2,4,0,0,0,0,0,0,0]},)"
              R"("per_corner":[{"name":"typ","devices":3,"faulty":2,)"
              R"("detected":2,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":1,"miss_rate":0.5},{"name":"hot",)"
              R"("devices":3,"faulty":3,"detected":2,"missed":1,)"
              R"("silent_corruptions":1,"detection_rate":0.666666667,)"
              R"("miss_rate":0.333333333}],"per_mix":[{"name":"balanced",)"
              R"("devices":4,"faulty":3,"detected":2,"missed":1,)"
              R"("silent_corruptions":1,"detection_rate":0.666666667,)"
              R"("miss_rate":0.333333333},{"name":"wearout","devices":2,)"
              R"("faulty":2,"detected":2,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":1,"miss_rate":0.5}],)"
              R"("per_age":[{"name":"age_q1_youngest","devices":2,"faulty":2,)"
              R"("detected":2,"missed":0,"silent_corruptions":0,)"
              R"("detection_rate":1,"miss_rate":0},{"name":"age_q2",)"
              R"("devices":2,"faulty":1,"detected":1,"missed":0,)"
              R"("silent_corruptions":0,"detection_rate":1,"miss_rate":0},)"
              R"({"name":"age_q3","devices":1,"faulty":1,"detected":1,)"
              R"("missed":1,"silent_corruptions":1,"detection_rate":1,)"
              R"("miss_rate":1},{"name":"age_q4_oldest","devices":1,)"
              R"("faulty":1,"detected":0,"missed":1,"silent_corruptions":1,)"
              R"("detection_rate":0,"miss_rate":1}],)"
              R"("adversarial":{"devices":2,"faulty":2,"detected":2,)"
              R"("detected_before_corruption":1,"silently_corrupted":1,)"
              R"("outcomes_total":2,"outcomes_reported":1,)"
              R"("outcomes":[{"id":1,"onset_epoch":1,"pair":0,"detected":1,)"
              R"("kind":"stall","detect_epoch":2,"slots_to_detect":8,)"
              R"("corruptions":0,"prevented_corruptions":1,)"
              R"("outcome":"detected-before-corruption"}]}})");
}

TEST(JsonGolden, MetricsSnapshotBytes)
{
    obs::MetricsSnapshot s;
    s.counters = {{"campaign.jobs", 42},
                  {"sat.conflicts", 18446744073709551615ull}};
    s.gauges = {{"campaign.queue_depth", -7}, {"sim.level", 3}};
    obs::MetricsSnapshot::HistogramEntry h;
    h.name = "campaign.job_s";
    h.bounds = {0.5, 1.5, 2.25};
    h.buckets = {1, 2, 0, 1};
    h.count = 4;
    h.sum = 5.75;
    obs::MetricsSnapshot::HistogramEntry empty;
    empty.name = "sim.idle_s";
    empty.bounds = {1e-4, 1e20};
    empty.buckets = {0, 0, 0};
    empty.sum = -2.5e-9;
    s.histograms = {h, empty};

    EXPECT_EQ(s.to_json(),
              R"({"counters":{"campaign.jobs":42,)"
              R"("sat.conflicts":18446744073709551615},)"
              R"("gauges":{"campaign.queue_depth":-7,"sim.level":3},)"
              R"("histograms":{"campaign.job_s":{"count":4,"sum":5.75,)"
              R"("p50":1,"p95":2.25,"p99":2.25,"buckets":[{"le":0.5,)"
              R"("count":1},{"le":1.5,"count":2},{"le":2.25,"count":0},)"
              R"({"le":"inf","count":1}]},"sim.idle_s":{"count":0,)"
              R"("sum":-2.5e-09,"p50":0,"p95":0,"p99":0,)"
              R"("buckets":[{"le":0.0001,"count":0},{"le":1e+20,"count":0},)"
              R"({"le":"inf","count":0}]}}})");
    EXPECT_EQ(s.summary(),
              "campaign.jobs 42\n"
              "sat.conflicts 18446744073709551615\n"
              "campaign.queue_depth -7\n"
              "sim.level 3\n"
              "campaign.job_s count=4 sum=5.75 mean=1.4375\n"
              "sim.idle_s count=0 sum=-2.5e-09\n");
}

TEST(JsonGolden, IntegrityManifestBytes)
{
    campaign::IntegrityManifest m;
    m.num_shards = 2;
    m.num_jobs = 10;
    m.total_completed = 9;
    m.total_failed = 1;
    m.ok = true;
    campaign::ShardVerdict s0;
    s0.shard_id = 0;
    s0.path = "runs/\"q\"\\shard-0-of-2.journal";
    s0.completed = 4;
    s0.failed = 1;
    s0.crc = 0xdeadbeef;
    s0.verified = true;
    campaign::ShardVerdict s1;
    s1.shard_id = 1;
    s1.path = "shard-1-of-2.journal";
    s1.completed = 5;
    s1.crc = 0x1;
    s1.verified = false;
    s1.detail = "job 3:\nmissing";
    m.shards = {s0, s1};

    EXPECT_EQ(m.to_json(),
              R"({"integrity":{"num_shards":2,"num_jobs":10,)"
              R"("total_completed":9,"total_failed":1,"ok":1,)"
              R"("shards":[{"shard":0,)"
              R"("path":"runs/\"q\"\\shard-0-of-2.journal","completed":4,)"
              R"("failed":1,"crc":"deadbeef","verified":1,"verdict":"ok"},)"
              R"({"shard":1,"path":"shard-1-of-2.journal","completed":5,)"
              R"("failed":0,"crc":"00000001","verified":0,)"
              R"("verdict":"job 3:\nmissing"}]}})");
}

} // namespace
} // namespace vega
