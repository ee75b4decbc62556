/**
 * @file
 * The unit of work of a fault-injection campaign (§4 / Tables 6–7 at
 * scale): one (failing netlist × stimulus seed × schedule policy)
 * combination, executed with its own AgingLibrary on one wave lane
 * (functional units) or one march engine (memory modules).
 *
 * Seeding is hierarchical and collision-free by construction: the
 * campaign seed and the job id feed a splitmix64 stream, and every
 * random decision a job makes (pair/constant/policy sampling, the
 * library's scheduler, the fm_rand input) draws from that stream. A
 * campaign is therefore bit-reproducible at any thread count — results
 * are keyed by job id, never by completion order.
 */
#pragma once

#include <array>
#include <cstdint>

#include "common/error.h"
#include "common/rng.h"
#include "lift/failure_model.h"
#include "runtime/scheduler.h"
#include "runtime/test_case.h"

namespace vega::campaign {

/** The wrong values C (§3.3.1) a job's fault samples from. */
inline constexpr std::array<lift::FaultConstant, 2> kFaultConstants = {
    lift::FaultConstant::Zero, lift::FaultConstant::One};

/** Schedule policies a job samples from. */
inline constexpr std::array<runtime::SchedulePolicy, 3> kPolicies = {
    runtime::SchedulePolicy::Sequential, runtime::SchedulePolicy::Random,
    runtime::SchedulePolicy::Probabilistic};

/** Root of job @p job_id's private splitmix64 stream. */
inline uint64_t
job_stream(uint64_t campaign_seed, uint64_t job_id)
{
    uint64_t x = campaign_seed ^ (0x517cc1b727220a95ull * (job_id + 1));
    return splitmix64(x);
}

/** Fully-resolved description of one injection job. */
struct JobSpec
{
    uint64_t id = 0;
    /** Index into the campaign's endpoint-pair working set. */
    size_t pair_index = 0;
    lift::FaultConstant constant = lift::FaultConstant::Zero;
    /** Index of `constant` in kFaultConstants — kept alongside the
     *  value so fault-matrix slots resolve by arithmetic instead of a
     *  linear search per job. */
    size_t constant_index = 0;
    runtime::SchedulePolicy policy = runtime::SchedulePolicy::Sequential;
    /** Dispatch probability for the probabilistic policy. */
    double probability = 1.0;
    /** Seed for the job's scheduler and fm_rand stream. */
    uint64_t seed = 1;
    /** Scheduler slots to spend before declaring the fault undetected. */
    uint64_t max_slots = 0;
};

/** Outcome of one injection job. */
struct JobResult
{
    uint64_t id = 0;
    size_t pair_index = 0;
    lift::FaultConstant constant = lift::FaultConstant::Zero;
    runtime::SchedulePolicy policy = runtime::SchedulePolicy::Sequential;

    /** The suite flagged the fault within the slot budget. */
    bool detected = false;
    runtime::Detection kind = runtime::Detection::None;
    /** Scheduler slots elapsed when the detection fired (1-based). */
    uint64_t slots_to_detect = 0;
    /** Tests actually dispatched by the scheduler. */
    uint64_t tests_dispatched = 0;
    /** Gate-level clock cycles this job simulated. */
    uint64_t sim_cycles = 0;

    /** The fault corrupts the representative workload's output. */
    bool corrupts_workload = false;
    /** Corrupting and undetected: a silent-data-corruption escape. */
    bool escape = false;

    /** 1: a job runs once, with no retry. The journal and report
     *  formats record it per job. */
    uint32_t attempts = 1;
};

/**
 * A quarantined job. A job is not retried: it quarantines when its
 * fault's characterization failed, when its wave or march engine threw,
 * or when the test-only job_fault_hook threw for it. The campaign
 * records it instead of aborting — one poisoned job must not sink the
 * other few thousand.
 */
struct FailedJob
{
    uint64_t id = 0;
    size_t pair_index = 0;
    /** 0 when characterization failed (the job never ran), else 1. */
    uint32_t attempts = 0;
    /** The failure (code JobFailed unless more specific). */
    VegaError error;
};

} // namespace vega::campaign
