/**
 * @file
 * Profile-guided test integration (§3.4.2).
 *
 * Picks a basic block that is routinely but not frequently executed,
 * splices a call to an appended test routine at its entry, estimates the
 * overhead from instruction counts, and — when the estimate exceeds the
 * user's threshold — gates the call behind an inline LCG so tests fire
 * with a computed probability, keeping overhead within budget.
 *
 * Memory map contract with instrumented applications (word addresses):
 *   2032  LCG state            2036  saved x30 (link)
 *   2040  fault sentinel       2048+ integer register save area
 *   2160  saved fflags         2176+ FP register save area
 * Applications must keep their data at or above address 4096.
 */
#pragma once

#include <vector>

#include "integrate/profile.h"
#include "runtime/test_case.h"

namespace vega::integrate {

/** Address an instrumented program stores 0xdead to on detection. */
constexpr uint32_t kFaultSentinelAddr = 2040;
constexpr uint32_t kFaultSentinelValue = 0xdead;

struct IntegrationConfig
{
    /** Maximum tolerated overhead estimate (fraction, e.g. 0.01 = 1%). */
    double overhead_threshold = 0.01;
};

struct IntegrationResult
{
    /** Instruction index the tests were spliced at. */
    size_t insertion_point = 0;
    /** Execution count of the chosen block during profiling. */
    uint64_t block_count = 0;
    /** IR-count overhead estimate before throttling. */
    double estimated_overhead = 0.0;
    /** Dispatch probability after throttling (1.0 = unconditional). */
    double probability = 1.0;
    /** The instrumented program (application + test routine). */
    std::vector<cpu::Instr> program;
};

/**
 * Integrate @p suite into @p prog using @p profile. Panics if no block
 * qualifies as an insertion site.
 */
IntegrationResult integrate_tests(const std::vector<cpu::Instr> &prog,
                                  const Profile &profile,
                                  const std::vector<runtime::TestCase> &suite,
                                  const IntegrationConfig &config = {});

} // namespace vega::integrate
