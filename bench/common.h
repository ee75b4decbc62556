/**
 * @file
 * Shared scaffolding for the reproduction benches: one analyzed module
 * per process, paper-style scoping knobs, and small table printers.
 *
 * Scope control: the full FPU analysis yields hundreds of unique
 * violating endpoint pairs (our ripple-array datapath connects nearly
 * every operand register to every result register near-critically, so
 * pair deduplication is less sharp than on the paper's synthesized
 * FPnew). By default benches lift the worst `kFpuPairBudget` pairs —
 * matching the paper's FPU working-set size of 41 — and the environment
 * variable VEGA_FULL=1 lifts everything.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "vega/workflow.h"

namespace vega::bench {

constexpr size_t kFpuPairBudget = 41;

inline bool
full_mode()
{
    const char *v = std::getenv("VEGA_FULL");
    return v && v[0] == '1';
}

inline const aging::AgingTimingLibrary &
timing_library()
{
    static const auto lib =
        aging::AgingTimingLibrary::build(aging::RdModelParams{});
    return lib;
}

/** A module with its Phase-1 analysis done. */
struct AnalyzedModule
{
    HwModule module;
    AgingAnalysisResult aging;
};

inline AnalyzedModule
analyze(ModuleKind kind)
{
    AnalyzedModule out;
    out.module =
        kind == ModuleKind::Alu32 ? rtl::make_alu32() : rtl::make_fpu32();
    AgingAnalysisConfig cfg;
    cfg.utilization = 0.985;
    cfg.max_trace = 4000;
    out.aging = run_aging_analysis(out.module, timing_library(),
                                   minver_trace(), cfg);
    return out;
}

/** Worst pairs, capped to the bench working set for the FPU. Hold
 *  violations are always kept: they are few and qualitatively distinct
 *  (handshake faults that stall the CPU). */
inline std::vector<sta::EndpointPair>
working_pairs(const AnalyzedModule &m)
{
    auto pairs = m.aging.liftable_pairs();
    if (m.module.kind != ModuleKind::Fpu32 || full_mode() ||
        pairs.size() <= kFpuPairBudget)
        return pairs;

    std::vector<sta::EndpointPair> out;
    for (const auto &p : pairs)
        if (!p.is_setup)
            out.push_back(p);
    for (const auto &p : pairs) {
        if (out.size() >= kFpuPairBudget)
            break;
        if (p.is_setup)
            out.push_back(p);
    }
    return out;
}

inline lift::LiftResult
lift_module(const AnalyzedModule &m, bool mitigation)
{
    lift::LiftConfig cfg;
    cfg.bmc.max_frames = 4;
    cfg.bmc.conflict_budget = 400000;
    cfg.mitigation = mitigation;
    return lift::run_error_lifting(m.module, working_pairs(m), cfg);
}

/**
 * Where a bench's JSON artifact lands. Smoke runs (CI) get their own
 * `BENCH_<stem>.smoke.json` so a `ctest -L bench-smoke` pass can never
 * clobber a pinned full-run `BENCH_<stem>.json` with noisy numbers.
 */
inline std::string
bench_json_path(const std::string &stem, bool smoke)
{
    return "BENCH_" + stem + (smoke ? ".smoke.json" : ".json");
}

/** Write @p json (newline-terminated) to the bench artifact path. */
inline void
write_bench_json(const std::string &stem, bool smoke,
                 const std::string &json)
{
    std::string path = bench_json_path(stem, smoke);
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("\nwrote %s\n", path.c_str());
    }
}

/** `"key":true` or `"key":false`, then a ',' when @p comma. The bench
 *  JSON renders every number and string through obs/json.h. */
inline void
kv_bool(std::string &out, const char *key, bool v, bool comma = true)
{
    obs::json_key(out, key);
    out += v ? "true" : "false";
    if (comma)
        out += ',';
}

inline void
hr()
{
    std::printf("-----------------------------------------------------"
                "-----------------------\n");
}

inline void
banner(const std::string &title)
{
    hr();
    std::printf("%s\n", title.c_str());
    hr();
}

} // namespace vega::bench
