/**
 * @file
 * Bounded model checking of cover properties (§3.3.3).
 *
 * Given an instrumented netlist with a 1-bit mismatch target (the cover
 * property `orig != shadow`), find the shortest input trace from reset
 * that raises the target — the paper's JasperGold step. Also provides the
 * unreachability ("UR") and timeout ("FF") outcomes of Table 4:
 *
 *  - Covered:     a trace exists; returned as a Waveform.
 *  - Unreachable: proven impossible — either by a 1-step check from an
 *                 unconstrained (shadow-consistent) state, which
 *                 generalizes every reachable state, or by exhausting the
 *                 bound on these feed-forward pipeline modules.
 *  - Timeout:     the SAT solver exceeded its conflict budget.
 *
 * check_cover() answers ONE cover target; it is a one-target
 * formal::CoverBatch (cover_batch.h), the library's only cover-solving
 * engine. CoverBatch keeps one persistent reset-state instance, deepens
 * it one frame per bound with activation-literal queries, and resolves
 * every still-open target of a suite at each bound.
 *
 * With BmcOptions::kinduction_frames > 0, a k-induction post-pass
 * upgrades bound-exhaustion verdicts to real Unreachable proofs: after
 * phase 1 refutes every bound <= max_frames and the 1-step free-state
 * check is inconclusive, depth k is proved by the step query "from a
 * shadow-consistent free state, target low for k frames, can it rise
 * at frame k?" — UNSAT at any k <= max_frames closes the induction
 * (phase 1 is the base case).
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "sim/waveform.h"

namespace vega::formal {

struct BmcOptions
{
    /** Max frames to unroll; should exceed the module pipeline depth. */
    int max_frames = 6;
    /**
     * SAT conflict budget per query; exceeded => Timeout ("FF").
     * Negative means no limit. It is the only budget: a verdict never
     * depends on wall time or host load.
     */
    int64_t conflict_budget = 3000000;
    /**
     * Nets that must be 1 in every frame — the paper's `assume property`
     * input restrictions (e.g. "op is a valid operation").
     */
    std::vector<NetId> assumes;
    /**
     * Register pairs (original, shadow) tied equal in the free-state
     * unreachability check. check_cover only: CoverBatch takes them per
     * target, in CoverTargetSpec.
     */
    std::vector<std::pair<NetId, NetId>> state_equalities;
    /**
     * Max depth of the k-induction post-pass (0 disables it, the
     * default). Depths 2..min(kinduction_frames, max_frames) are tried
     * in order once bounded search and the 1-step free-state check are
     * both inconclusive; the first UNSAT step query turns the bounded
     * "Unreachable" into a proof (BmcResult::kinduction_depth).
     */
    int kinduction_frames = 0;
};

enum class BmcStatus { Covered, Unreachable, Timeout };

const char *bmc_status_name(BmcStatus status);

struct BmcResult
{
    BmcStatus status = BmcStatus::Timeout;
    /** Frames in the trace (cover fires in the last one). */
    int frames = 0;
    /** Input and output bus values per cycle (Covered only). */
    Waveform trace;
    /** Conflicts spent by this call (this run, for a resumed batch). */
    uint64_t conflicts = 0;
    /** Unreachable only: proven by the induction-style free-state check
     *  (or by the deeper k-induction post-pass; see kinduction_depth). */
    bool proven_by_induction = false;
    /**
     * Depth at which the k-induction post-pass closed the proof; 0 when
     * the pass was disabled, inconclusive, or not needed (the 1-step
     * free-state check already proved unreachability).
     */
    int kinduction_depth = 0;
};

/**
 * Check the cover property "target == 1 eventually" on @p nl: a
 * one-target CoverBatch carrying opts.state_equalities in its spec.
 *
 * The trace records every input bus and every output bus of @p nl per
 * cycle, so it can be replayed on a BatchSimulator or lowered to
 * instructions.
 */
BmcResult check_cover(const Netlist &nl, NetId target,
                      const BmcOptions &opts);

} // namespace vega::formal
