#include "vega/aging_analysis.h"

#include "common/logging.h"
#include "sim/batch_sim.h"

namespace vega {

std::vector<sta::EndpointPair>
AgingAnalysisResult::liftable_pairs() const
{
    std::vector<sta::EndpointPair> out;
    for (const sta::EndpointPair &p : sta.pairs)
        if (p.launch != kInvalidId)
            out.push_back(p);
    return out;
}

std::vector<cpu::FuTraceEntry>
record_workload_trace(const std::vector<std::vector<cpu::Instr>> &programs)
{
    std::vector<cpu::FuTraceEntry> trace;
    for (const auto &prog : programs) {
        cpu::IssConfig cfg;
        cfg.record_fu_trace = true;
        cpu::Iss iss(prog, cfg);
        auto status = iss.run();
        VEGA_CHECK(status == cpu::Iss::Status::Halted,
                   "workload did not halt");
        trace.insert(trace.end(), iss.fu_trace().begin(),
                     iss.fu_trace().end());
    }
    return trace;
}

std::vector<cpu::FuTraceEntry>
record_mem_workload_trace(const std::vector<std::vector<cpu::Instr>> &programs)
{
    std::vector<cpu::FuTraceEntry> trace;
    for (const auto &prog : programs) {
        cpu::IssConfig cfg;
        cfg.record_mem_trace = true;
        cpu::Iss iss(prog, cfg);
        auto status = iss.run();
        VEGA_CHECK(status == cpu::Iss::Status::Halted,
                   "workload did not halt");
        trace.insert(trace.end(), iss.mem_trace().begin(),
                     iss.mem_trace().end());
    }
    return trace;
}

namespace {

/** Drive one trace entry (or an idle cycle) into the module. */
void
apply_entry(BatchSimulator &sim, ModuleKind kind, const cpu::FuTraceEntry *e)
{
    if (is_mem_module(kind)) {
        // Memory substrate ports (rtl/memdec.h): the byte address maps
        // onto the decoder's row address (word-aligned, wrapped to the
        // 16-row macro — the whole data space is stripe-aliased onto
        // it), op carries the store bit, b the written value.
        if (e) {
            sim.set_bus_all("addr", BitVec(4, (e->a >> 2) & 0xf));
            sim.set_bus_all("we", BitVec(1, e->op ? 1 : 0));
            sim.set_bus_all("din", BitVec(8, e->b & 0xff));
        } else {
            sim.set_bus_all("we", BitVec(1, 0));
        }
        return;
    }
    bool is_fpu_module = kind == ModuleKind::Fpu32;
    if (e) {
        sim.set_bus_all("a", BitVec(32, e->a));
        sim.set_bus_all("b", BitVec(32, e->b));
        sim.set_bus_all("op",
                        BitVec(sim.netlist().bus("op").size(), e->op));
        if (is_fpu_module) {
            sim.set_bus_all("valid", BitVec(1, 1));
            sim.set_bus_all("clear", BitVec(1, 0));
        }
    } else if (is_fpu_module) {
        sim.set_bus_all("valid", BitVec(1, 0));
        sim.set_bus_all("clear", BitVec(1, 0));
    }
}

} // namespace

AgingAnalysisResult
run_aging_analysis(HwModule &module, const aging::AgingTimingLibrary &lib,
                   const std::vector<cpu::FuTraceEntry> &trace,
                   const AgingAnalysisConfig &config)
{
    // "Synthesis": close timing to the configured utilization.
    sta::calibrate_timing_scale(module, lib, config.utilization);

    // Signal Probability Simulation: replay the workload; ops for the
    // other functional unit appear as idle cycles, preserving realistic
    // activity ratios. One recorded trace is one stimulus stream: every
    // lane gets the same entry and the profile samples lane 0.
    BatchSimulator sim(module.netlist);
    size_t limit = config.max_trace == 0
                       ? trace.size()
                       : std::min(trace.size(), config.max_trace);
    AgingAnalysisResult result;
    result.profile = profile_signal_probability(
        sim, limit, [&](BatchSimulator &s, uint64_t i) {
            const cpu::FuTraceEntry &e = trace[i];
            apply_entry(s, module.kind,
                        e.unit == module.kind ? &e : nullptr);
        });
    result.fresh =
        sta::compute_aged_timing(module, result.profile, lib, 0.0);
    result.aged = sta::compute_aged_timing(module, result.profile, lib,
                                           config.years);
    // Path-enumeration cap per endpoint for both STA runs.
    constexpr size_t kMaxPathsPerEndpoint = 20000;
    result.fresh_sta =
        sta::run_sta(module, result.fresh, kMaxPathsPerEndpoint);
    result.sta = sta::run_sta(module, result.aged, kMaxPathsPerEndpoint);
    return result;
}

} // namespace vega
