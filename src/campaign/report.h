/**
 * @file
 * Structured results of a fault-injection campaign.
 *
 * A CampaignReport aggregates per-job outcomes three ways — per
 * endpoint pair (which aging paths the suite covers and how fast),
 * per schedule policy (what the dispatch knob costs in latency), and
 * in campaign totals (detection rate, SDC-escape rate, detection-kind
 * histogram) — and serializes to JSON.
 *
 * Everything except the `timing` object is a pure function of the
 * campaign configuration, so `to_json(false)` (timing excluded) is
 * byte-identical across runs and thread counts; the determinism tests
 * compare exactly that.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/job.h"

namespace vega::campaign {

struct JournalHeader;

/**
 * Detections by kind: of detected jobs in a campaign report, of
 * detected devices in a fleet report. Both render it as the same
 * "detections" object.
 */
struct DetectionHistogram
{
    uint64_t mismatch = 0;
    uint64_t stall = 0;
    uint64_t tag_anomaly = 0;
    uint64_t wrong_address = 0;

    /** Count one detection of @p kind (None counts nothing). */
    void add(runtime::Detection kind);
    void merge(const DetectionHistogram &o);
    /** {"mismatch":..,"stall":..,"tag_anomaly":..,"wrong_address":..} */
    void append_json(std::string &out) const;
};

/** Aggregates over all jobs that injected the same endpoint pair. */
struct PairStats
{
    size_t pair_index = 0;
    uint64_t jobs = 0;
    uint64_t detected = 0;
    uint64_t corrupting = 0;
    uint64_t escapes = 0;
    /** Sum of slots_to_detect over detected jobs. */
    uint64_t slots_sum = 0;
    uint64_t sim_cycles = 0;

    double detection_rate() const
    {
        return jobs ? double(detected) / double(jobs) : 0.0;
    }
    /** Mean scheduler slots until the suite fired (detected jobs). */
    double mean_latency_slots() const
    {
        return detected ? double(slots_sum) / double(detected) : 0.0;
    }
};

/** Aggregates over all jobs run under the same schedule policy. */
struct PolicyStats
{
    runtime::SchedulePolicy policy = runtime::SchedulePolicy::Sequential;
    uint64_t jobs = 0;
    uint64_t detected = 0;
    uint64_t escapes = 0;
    uint64_t slots_sum = 0;
    uint64_t tests_dispatched = 0;

    double detection_rate() const
    {
        return jobs ? double(detected) / double(jobs) : 0.0;
    }
    double mean_latency_slots() const
    {
        return detected ? double(slots_sum) / double(detected) : 0.0;
    }
};

/** Wall-clock measurements — excluded from deterministic JSON. */
struct CampaignTiming
{
    double wall_seconds = 0.0;
    /** Jobs and gate-level cycles this run completed, per wall second
     *  (a resumed run does not count what the journal settled). */
    double jobs_per_sec = 0.0;
    double sims_per_sec = 0.0;
    size_t threads = 1;
    /** Always 0: the pool has one FIFO queue and nothing to steal.
     *  Kept only for perfbench's `campaign.steals` metric. */
    uint64_t steals = 0;
    /** High-water mark of tasks waiting in the pool's queue. */
    uint64_t peak_queue_depth = 0;
    /** Journal write batches: the atomic write that opens the journal,
     *  then one per appended group commit (0 when journaling is off). */
    uint64_t journal_flushes = 0;
    /** Total bytes those batches wrote. */
    uint64_t journal_bytes = 0;

    // Per-stage wall breakdown: where the campaign actually spent its
    // time. Both pass times run from the campaign start, and they
    // overlap: a functional-unit campaign injects while it
    // characterizes. journal is the summed time inside journal
    // record/seal calls across workers (inside the simulate stage):
    // rendering and checksumming each record, which the worker that
    // settles it does, waiting for the writer's lock, and the
    // group-commit writes a record that closes a group leads or waits
    // for. aggregate covers report assembly.
    /** Campaign start to the last characterization verdict. */
    double characterize_seconds = 0.0;
    /** Campaign start to the last settled job. */
    double simulate_seconds = 0.0;
    double journal_seconds = 0.0;
    double aggregate_seconds = 0.0;
};

struct CampaignReport
{
    // Echo of the configuration that produced the report.
    std::string module;
    uint64_t seed = 0;
    uint64_t max_slots = 0;
    double probability = 1.0;
    size_t suite_size = 0;
    size_t num_pairs = 0;

    std::vector<JobResult> jobs;
    /** Quarantined jobs, sorted by id. */
    std::vector<FailedJob> failed_jobs;
    std::vector<PairStats> per_pair;
    std::vector<PolicyStats> per_policy;

    // Campaign totals.
    uint64_t detected = 0;
    uint64_t corrupting = 0;
    uint64_t escapes = 0;
    /** Neither corrupting nor detected: the fault is benign here. */
    uint64_t benign = 0;
    /** Number of quarantined jobs, failed_jobs.size(). */
    uint64_t failed = 0;
    uint64_t tests_dispatched = 0;
    uint64_t total_sim_cycles = 0;
    uint64_t slots_sum = 0;
    DetectionHistogram detections;

    CampaignTiming timing;

    double detection_rate() const
    {
        return jobs.empty() ? 0.0
                            : double(detected) / double(jobs.size());
    }
    /** Escapes over corrupting injections (the paper's SDC risk). */
    double escape_rate() const
    {
        return corrupting ? double(escapes) / double(corrupting) : 0.0;
    }
    double mean_latency_slots() const
    {
        return detected ? double(slots_sum) / double(detected) : 0.0;
    }

    /**
     * Serialize. @p include_timing adds the wall-clock object;
     * @p include_jobs adds the per-job array (large campaigns may
     * want aggregates only).
     */
    std::string to_json(bool include_timing = true,
                        bool include_jobs = true) const;
};

/**
 * Fold per-job results (keyed by job id, order-independent) and
 * quarantined jobs into a report that echoes @p config, the journal
 * header of the campaign that ran them. The per-pair table has
 * config.num_pairs rows, so uninjected pairs still appear with zero
 * counts.
 */
CampaignReport aggregate_report(const JournalHeader &config,
                                std::vector<JobResult> jobs,
                                std::vector<FailedJob> failed_jobs);

} // namespace vega::campaign
