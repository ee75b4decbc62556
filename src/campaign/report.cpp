#include "campaign/report.h"

#include <algorithm>
#include <array>

#include "campaign/journal.h"
#include "obs/json.h"

namespace vega::campaign {

using obs::kv;

namespace {

/** The names of an enum's @p N values, each quoted as a JSON string:
 *  rendered once per report, then copied into every row. */
template <typename E, size_t N>
std::array<std::string, N>
quoted_names(const char *(*name)(E))
{
    std::array<std::string, N> quoted;
    for (size_t i = 0; i < N; ++i)
        obs::json_string(quoted[i], name(E(i)));
    return quoted;
}

} // namespace

std::string
CampaignReport::to_json(bool include_timing, bool include_jobs) const
{
    std::string out;
    // A job row runs to ~200 bytes; reserve past that so a large
    // campaign's report never reallocates (and copies) its buffer.
    out.reserve(4096 + (include_jobs ? jobs.size() * 224 : 0));
    out += "{\"campaign\":{";
    kv(out, "module", module);
    kv(out, "seed", seed);
    kv(out, "num_jobs", uint64_t(jobs.size()));
    kv(out, "suite_size", uint64_t(suite_size));
    kv(out, "num_pairs", uint64_t(num_pairs));
    kv(out, "max_slots", max_slots);
    kv(out, "probability", probability, false);
    out += "},\"totals\":{";
    kv(out, "detected", detected);
    kv(out, "corrupting", corrupting);
    kv(out, "escapes", escapes);
    kv(out, "benign", benign);
    kv(out, "failed", failed);
    kv(out, "detection_rate", detection_rate());
    kv(out, "escape_rate", escape_rate());
    kv(out, "mean_latency_slots", mean_latency_slots());
    kv(out, "tests_dispatched", tests_dispatched);
    kv(out, "sim_cycles", total_sim_cycles);
    obs::json_key(out, "detections");
    detections.append_json(out);
    out += "},\"per_pair\":[";
    for (size_t i = 0; i < per_pair.size(); ++i) {
        const PairStats &p = per_pair[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "pair", uint64_t(p.pair_index));
        kv(out, "jobs", p.jobs);
        kv(out, "detected", p.detected);
        kv(out, "corrupting", p.corrupting);
        kv(out, "escapes", p.escapes);
        kv(out, "detection_rate", p.detection_rate());
        kv(out, "mean_latency_slots", p.mean_latency_slots());
        kv(out, "sim_cycles", p.sim_cycles, false);
        out += '}';
    }
    out += "],\"per_policy\":[";
    for (size_t i = 0; i < per_policy.size(); ++i) {
        const PolicyStats &p = per_policy[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "policy", runtime::schedule_policy_name(p.policy));
        kv(out, "jobs", p.jobs);
        kv(out, "detected", p.detected);
        kv(out, "escapes", p.escapes);
        kv(out, "detection_rate", p.detection_rate());
        kv(out, "mean_latency_slots", p.mean_latency_slots());
        kv(out, "tests_dispatched", p.tests_dispatched, false);
        out += '}';
    }
    out += ']';
    if (include_jobs) {
        const auto constants = quoted_names<lift::FaultConstant, 3>(
            lift::fault_constant_name);
        const auto policies = quoted_names<runtime::SchedulePolicy, 3>(
            runtime::schedule_policy_name);
        const auto kinds =
            quoted_names<runtime::Detection, 5>(runtime::detection_name);
        out += ",\"jobs\":[";
        for (size_t i = 0; i < jobs.size(); ++i) {
            const JobResult &j = jobs[i];
            obs::JsonRow row(out, i > 0);
            row.kv("id", j.id);
            row.kv("pair", uint64_t(j.pair_index));
            row.kv_json("constant", constants.at(size_t(j.constant)));
            row.kv_json("policy", policies.at(size_t(j.policy)));
            row.kv("detected", uint64_t(j.detected));
            row.kv_json("kind", kinds.at(size_t(j.kind)));
            row.kv("slots_to_detect", j.slots_to_detect);
            row.kv("tests_dispatched", j.tests_dispatched);
            row.kv("sim_cycles", j.sim_cycles);
            row.kv("corrupts_workload", uint64_t(j.corrupts_workload));
            row.kv("escape", uint64_t(j.escape));
            row.kv("attempts", uint64_t(j.attempts));
            row.close();
        }
        out += ']';
    }
    out += ",\"failed_jobs\":[";
    for (size_t i = 0; i < failed_jobs.size(); ++i) {
        const FailedJob &f = failed_jobs[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "id", f.id);
        kv(out, "pair", uint64_t(f.pair_index));
        kv(out, "attempts", uint64_t(f.attempts));
        kv(out, "code", error_code_name(f.error.code));
        kv(out, "context", f.error.context, false);
        out += '}';
    }
    out += ']';
    if (include_timing) {
        out += ",\"timing\":{";
        kv(out, "wall_seconds", timing.wall_seconds);
        kv(out, "jobs_per_sec", timing.jobs_per_sec);
        kv(out, "sims_per_sec", timing.sims_per_sec);
        kv(out, "threads", uint64_t(timing.threads));
        kv(out, "peak_queue_depth", timing.peak_queue_depth);
        kv(out, "journal_flushes", timing.journal_flushes);
        kv(out, "journal_bytes", timing.journal_bytes);
        kv(out, "characterize_seconds", timing.characterize_seconds);
        kv(out, "simulate_seconds", timing.simulate_seconds);
        kv(out, "journal_seconds", timing.journal_seconds);
        kv(out, "aggregate_seconds", timing.aggregate_seconds);
        kv(out, "workflow_seconds", timing.workflow_seconds, false);
        out += '}';
    }
    out += '}';
    return out;
}

void
DetectionHistogram::add(runtime::Detection kind)
{
    switch (kind) {
      case runtime::Detection::Mismatch: ++mismatch; break;
      case runtime::Detection::Stall: ++stall; break;
      case runtime::Detection::TagAnomaly: ++tag_anomaly; break;
      case runtime::Detection::WrongAddress: ++wrong_address; break;
      case runtime::Detection::None: break;
    }
}

void
DetectionHistogram::merge(const DetectionHistogram &o)
{
    mismatch += o.mismatch;
    stall += o.stall;
    tag_anomaly += o.tag_anomaly;
    wrong_address += o.wrong_address;
}

void
DetectionHistogram::append_json(std::string &out) const
{
    out += '{';
    kv(out, "mismatch", mismatch);
    kv(out, "stall", stall);
    kv(out, "tag_anomaly", tag_anomaly);
    kv(out, "wrong_address", wrong_address, false);
    out += '}';
}

CampaignReport
aggregate_report(const JournalHeader &config, std::vector<JobResult> jobs,
                 std::vector<FailedJob> failed_jobs)
{
    CampaignReport r;
    r.module = config.module;
    r.seed = config.seed;
    r.max_slots = config.max_slots;
    r.probability = config.probability;
    r.suite_size = size_t(config.suite_size);
    r.num_pairs = size_t(config.num_pairs);
    r.jobs = std::move(jobs);
    std::sort(failed_jobs.begin(), failed_jobs.end(),
              [](const FailedJob &a, const FailedJob &b) {
                  return a.id < b.id;
              });
    r.failed_jobs = std::move(failed_jobs);
    r.failed = r.failed_jobs.size();
    r.per_pair.resize(r.num_pairs);
    for (size_t i = 0; i < r.num_pairs; ++i)
        r.per_pair[i].pair_index = i;
    r.per_policy.resize(kPolicies.size());
    for (size_t i = 0; i < kPolicies.size(); ++i)
        r.per_policy[i].policy = kPolicies[i];

    for (const JobResult &j : r.jobs) {
        r.tests_dispatched += j.tests_dispatched;
        r.total_sim_cycles += j.sim_cycles;
        if (j.corrupts_workload)
            ++r.corrupting;
        if (j.escape)
            ++r.escapes;
        if (j.detected) {
            ++r.detected;
            r.slots_sum += j.slots_to_detect;
            r.detections.add(j.kind);
        } else if (!j.corrupts_workload) {
            ++r.benign;
        }

        if (j.pair_index < r.num_pairs) {
            PairStats &p = r.per_pair[j.pair_index];
            ++p.jobs;
            p.sim_cycles += j.sim_cycles;
            if (j.detected) {
                ++p.detected;
                p.slots_sum += j.slots_to_detect;
            }
            if (j.corrupts_workload)
                ++p.corrupting;
            if (j.escape)
                ++p.escapes;
        }

        PolicyStats &ps = r.per_policy[size_t(j.policy)];
        ++ps.jobs;
        ps.tests_dispatched += j.tests_dispatched;
        if (j.detected) {
            ++ps.detected;
            ps.slots_sum += j.slots_to_detect;
        }
        if (j.escape)
            ++ps.escapes;
    }
    return r;
}

} // namespace vega::campaign
