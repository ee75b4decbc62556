/**
 * @file
 * Phase 1 — Aging Analysis (§3.2).
 *
 * Replays a representative functional-unit workload trace (recorded by
 * the ISS, §3.2.1's Signal Probability Simulation) on the module's
 * placed-and-routed netlist while sampling per-cell signal probability;
 * then runs aging-aware STA with the precomputed timing library to find
 * the paths that will violate timing after the configured lifetime.
 */
#pragma once

#include <vector>

#include "aging/timing_library.h"
#include "cpu/iss.h"
#include "rtl/module.h"
#include "sim/sp_profiler.h"
#include "sta/sta.h"

namespace vega {

struct AgingAnalysisConfig
{
    /** Assumed lifetime, years (mission-critical default, §3.2.2). */
    double years = 10.0;
    /** Fraction of the clock period synthesis leaves occupied. */
    double utilization = 0.985;
    /** Cap on replayed trace entries (0 = whole trace). */
    size_t max_trace = 0;
};

struct AgingAnalysisResult
{
    SpProfile profile;
    sta::AgedTiming fresh;
    sta::AgedTiming aged;
    sta::StaResult fresh_sta;
    sta::StaResult sta;
    /** Unique aging-prone endpoint pairs, DFF-launched only, worst first. */
    std::vector<sta::EndpointPair> liftable_pairs() const;
};

/**
 * Run Aging Analysis on @p module (calibrates its timing scale to the
 * configured utilization as a synthesis flow would).
 *
 * @param trace  functional-unit operations recorded from representative
 *               workloads; entries for the other unit become idle cycles,
 *               so activity ratios (and clock-gating duty) are realistic.
 */
AgingAnalysisResult
run_aging_analysis(HwModule &module, const aging::AgingTimingLibrary &lib,
                   const std::vector<cpu::FuTraceEntry> &trace,
                   const AgingAnalysisConfig &config = {});

/** Record the FU trace of a set of programs (the SP workload). */
std::vector<cpu::FuTraceEntry>
record_workload_trace(const std::vector<std::vector<cpu::Instr>> &programs);

/** Record the data-memory trace of a set of programs (the SP workload
 *  for memory-path substrates; see IssConfig::record_mem_trace). */
std::vector<cpu::FuTraceEntry>
record_mem_workload_trace(const std::vector<std::vector<cpu::Instr>> &programs);

} // namespace vega
