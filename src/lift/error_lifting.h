/**
 * @file
 * The Error Lifting phase (§3.3), end to end.
 *
 * For every violating endpoint pair from aging-aware STA, instrument the
 * module with a failure model and a shadow replica, run bounded model
 * checking on the cover property, lower each trace to a software test
 * case, and validate it against the corresponding failing netlist. The
 * per-pair outcomes reproduce Table 4's categories:
 *
 *   Success           ("S")  at least one validated test case
 *   Unreachable       ("UR") every configuration formally cannot err
 *   Timeout           ("FF") the formal tool ran out of budget
 *   ConversionFailed  ("FC") a trace exists but no observable software
 *                            check distinguishes the failure
 */
#pragma once

#include <string>
#include <vector>

#include "common/error.h"
#include "formal/bmc.h"
#include "lift/failure_model.h"
#include "lift/instruction_builder.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sta/sta.h"

namespace vega::lift {

struct LiftConfig
{
    formal::BmcOptions bmc;
    /** Enable the §3.3.4 edge-triggered mitigation variants. */
    bool mitigation = false;
    /** Analyze only the first N pairs (benchmarks subset with this). */
    size_t max_pairs = SIZE_MAX;

    // Retry-with-degradation ladder for the formal engine. Defaults
    // reproduce the single-attempt baseline; the campaign CLI opts in.
    // The rungs re-run one CoverBatch: a retry resumes each timed-out
    // target at its bound on the same solver with a bigger budget
    // instead of re-unrolling from scratch.
    /** Formal attempts per configuration; Timeouts retry with the
     *  conflict budget multiplied by formal_budget_growth. */
    int formal_attempts = 1;
    /** Budget multiplier between formal attempts. */
    double formal_budget_growth = 4.0;
    /** After the last formal attempt still times out, fall back to the
     *  fuzzer before recording a structured Exhausted outcome. */
    bool degrade_to_fuzz = false;
};

enum class PairStatus { Success, Unreachable, Timeout, ConversionFailed };

const char *pair_status_name(PairStatus s);

/** Result of one failure-model configuration (one C / edge choice). */
struct ConfigOutcome
{
    FailureModelSpec spec;
    std::string name;
    formal::BmcStatus bmc = formal::BmcStatus::Timeout;
    bool proven_by_induction = false;
    int frames = 0;
    uint64_t conflicts = 0;
    bool converted = false;
    bool validated = false;
    std::string failure_reason;

    // Retry-with-degradation bookkeeping.
    /** Formal attempts spent (1 = no retry). */
    int attempts = 1;
    /** Trace came from the Timeout-triggered fuzz fallback. */
    bool degraded_to_fuzz = false;
    /** Whole ladder (retries, then fallback if enabled) came up empty. */
    bool exhausted = false;
    /** Set when exhausted: code Exhausted with the ladder's history. */
    VegaError error;
};

struct PairResult
{
    sta::EndpointPair pair;
    PairStatus status = PairStatus::Timeout;
    std::vector<ConfigOutcome> configs;
    /** Validated test cases (may be empty). */
    std::vector<runtime::TestCase> tests;
};

struct LiftResult
{
    std::vector<PairResult> pairs;
    size_t n_success = 0;
    size_t n_unreachable = 0;
    size_t n_timeout = 0;
    size_t n_conversion_failed = 0;

    /** All validated tests, suite order (Table 5's test cases). */
    std::vector<runtime::TestCase> suite() const;
    /** Total executed cycles of one suite pass (Table 5's cycles). */
    uint64_t suite_cycles() const;
};

/** Run Error Lifting over @p pairs of @p module. */
LiftResult run_error_lifting(const HwModule &module,
                             const std::vector<sta::EndpointPair> &pairs,
                             const LiftConfig &config);

/**
 * Replay a test's module-level stimulus on a (failing) netlist from
 * reset and report whether any software-observable output deviates from
 * the golden expectations. Inputs the stimulus does not name (a random
 * failure model's fm_rand) stay 0. Lifting uses it for FC validation;
 * the Table 6/7 quality evaluation runs its suites as waves instead
 * (bench/quality.h).
 */
runtime::Detection replay_on_module(const runtime::TestCase &tc,
                                    const Netlist &netlist);

} // namespace vega::lift
