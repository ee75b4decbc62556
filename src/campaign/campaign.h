/**
 * @file
 * The Monte Carlo fault-injection campaign engine.
 *
 * A campaign takes the artifacts of a Vega workflow run — the lifted
 * endpoint pairs and the generated runtime suite — and fans out over
 * (failing netlist × stimulus seed × schedule policy) jobs on a
 * FIFO thread pool. Every unique fault — the logical failure
 * model (§3.3.1) — is spliced into one fault-bank copy of the module,
 * and characterization probes once per fault whether it silently
 * corrupts a representative workload. Each job runs the aging library
 * against its fault as one lane of a 64-lane wave (wave.h) and records
 * detection latency; undetected corrupting faults count as SDC
 * escapes. The job waves run while the probe waves do, and a job is
 * settled once its fault's verdict is in. Memory modules characterize
 * first, once per decoder gate, then run their march engine over
 * batches of 64 jobs, one job after another.
 *
 * Determinism contract: the campaign seed fully determines every job
 * (pair/constant/policy sampling and all downstream randomness, via
 * per-job splitmix64 streams — see job.h), and results are aggregated
 * by job id. The same seed therefore yields a byte-identical
 * CampaignReport (timing excluded) at any thread count.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/job.h"
#include "campaign/progress.h"
#include "campaign/report.h"
#include "common/error.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sta/sta.h"

namespace vega::campaign {

struct CampaignConfig
{
    uint64_t seed = 1;
    /** Injection jobs to run (pairs are covered round-robin). */
    size_t num_jobs = 256;
    /** Worker threads (0 ⇒ hardware_concurrency). */
    size_t threads = 1;
    /** Dispatch probability for the probabilistic policy. */
    double probability = 0.5;
    /** Per-job scheduler slot budget (0 ⇒ 2 × suite size). */
    uint64_t max_slots = 0;
    /** Emit periodic progress lines to stderr. */
    bool progress = false;
    std::chrono::milliseconds progress_interval{2000};
    /** Override the progress sink (tests use this; implies progress). */
    ProgressMeter::Sink progress_sink;

    // Fleet-mode sharding (shard.h). This process runs only jobs with
    // id % num_shards == shard_id; journals from all shards aggregate
    // to a report byte-identical to an unsharded run.
    uint64_t num_shards = 1;
    uint64_t shard_id = 0;

    // Fault tolerance.
    /** Checkpoint journal path; empty disables journaling. */
    std::string journal_path;
    /**
     * Journal group-commit size: buffered records are appended and
     * fsynced once a settled batch brings the open group to this many
     * records or more (and once at the end). 1 = every settled batch,
     * the most crash-safe and the slowest; larger values amortize the
     * fsync at the cost of a wider crash window.
     */
    size_t journal_flush_every = 16;
    /** Reload an existing journal at journal_path and skip its jobs. */
    bool resume = false;
    /**
     * Test hook simulating a mid-campaign kill: stop scheduling new
     * jobs once this many injection jobs have completed (0 = off).
     * The returned report covers only the completed jobs.
     */
    size_t stop_after_jobs = 0;
    /**
     * Test hook run for each job before it gets a lane; a throw
     * quarantines the job with attempts 1.
     */
    std::function<void(const JobSpec &)> job_fault_hook;
    /**
     * Self-kill hook for kill-and-resume testing: raise SIGKILL —
     * a real, uncatchable kill, no destructors, no journal sync —
     * once this many jobs have completed this run (0 = off), right
     * after the settled records of the batch that holds the last of
     * them are appended. The journal is left exactly as a crash would
     * leave it.
     */
    size_t kill_after_jobs = 0;
};

/**
 * Run a campaign injecting @p pairs into @p module and screening each
 * fault with @p suite. @p pairs is typically the lifted working set
 * (wf.lift.pairs), so suite tests' pair_index values line up with the
 * report's per-pair table.
 */
CampaignReport run_campaign(const HwModule &module,
                            const std::vector<sta::EndpointPair> &pairs,
                            const std::vector<runtime::TestCase> &suite,
                            const CampaignConfig &config = {});

/**
 * Non-aborting run_campaign: configuration problems come back as
 * InvalidArgument and journal problems as IoError / JournalCorrupt /
 * JournalMismatch instead of panicking. A job whose characterization
 * or executor throws is not retried: it is quarantined as a
 * failed_jobs entry — a poisoned job never takes the campaign down.
 */
Expected<CampaignReport>
try_run_campaign(const HwModule &module,
                 const std::vector<sta::EndpointPair> &pairs,
                 const std::vector<runtime::TestCase> &suite,
                 const CampaignConfig &config = {});

} // namespace vega::campaign
