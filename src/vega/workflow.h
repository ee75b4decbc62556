/**
 * @file
 * The end-to-end Vega workflow (Figure 2): Aging Analysis → Error
 * Lifting → Test Integration, packaged behind one call per module. This
 * is the library's primary public entry point; examples and benches
 * build on it.
 */
#pragma once

#include "integrate/integrator.h"
#include "lift/error_lifting.h"
#include "runtime/aging_library.h"
#include "vega/aging_analysis.h"
#include "workloads/kernels.h"

namespace vega {

struct WorkflowConfig
{
    AgingAnalysisConfig aging;
    lift::LiftConfig lift;
};

struct WorkflowResult
{
    AgingAnalysisResult aging;
    lift::LiftResult lift;
    /** The generated suite (empty when nothing lifted). */
    std::vector<runtime::TestCase> suite;

    /** Package the suite as a runtime aging library (§3.4.1). */
    runtime::AgingLibrary
    make_library(const runtime::AgingLibraryOptions &options) const
    {
        return runtime::AgingLibrary(suite, options);
    }
};

/**
 * Run the full workflow on @p module using @p trace as the
 * representative workload (e.g. record_workload_trace of the minver
 * kernel, as in the paper's §4).
 */
WorkflowResult run_workflow(HwModule &module,
                            const aging::AgingTimingLibrary &lib,
                            const std::vector<cpu::FuTraceEntry> &trace,
                            const WorkflowConfig &config = {});

/** Default workload: the minver kernel's functional-unit trace. */
const std::vector<cpu::FuTraceEntry> &minver_trace();

/** Default memory workload: the crc32 kernel's data-memory trace
 *  (address-skewed — the stream that ages decoder stacks unevenly). */
const std::vector<cpu::FuTraceEntry> &mem_workload_trace();

/**
 * Build the placed-and-routed functional unit for @p kind — one call
 * in front of the rtl/ generators so drivers (campaign CLI, benches)
 * can select a module by name.
 */
HwModule make_module(ModuleKind kind);

} // namespace vega
