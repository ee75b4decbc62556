/**
 * @file
 * Fuzzing-based trace generation — the paper's §6.3 future-work
 * direction ("fast exploration of useful test cases via random and
 * fuzzing-based methods"). Error Lifting runs it only as the last rung
 * of its degradation ladder (LiftConfig::degrade_to_fuzz), once the
 * formal engine has timed out on a configuration.
 *
 * Instead of model checking, the shadow-instrumented netlist is
 * simulated from reset under random (but microarchitecturally valid)
 * stimulus; an episode that raises the cover target yields the same
 * kind of Waveform the BMC path produces, and flows through the same
 * instruction construction. Fuzzing cannot prove unreachability — the
 * key limitation the paper's §3.3 argues formal methods remove — which
 * the `ablation_fuzz_vs_formal` bench quantifies.
 *
 * Episodes run 64 at a time on the bit-parallel BatchSimulator (one
 * independent episode per lane); when the mismatch plane fires, the
 * first covering lane's stimulus/response history is extracted into
 * the Waveform. The episode budget is consumed in whole batches, so a
 * hit may be attributed to any lane of the final batch.
 */
#pragma once

#include <cstdint>

#include "lift/failure_model.h"
#include "rtl/module.h"
#include "sim/waveform.h"

namespace vega::lift {

struct FuzzConfig
{
    /** Give up after this many simulated episodes. */
    size_t max_episodes = 4000;
    uint64_t seed = 1;
};

struct FuzzResult
{
    bool found = false;
    /** Input/output waveform of the covering episode (like BMC). */
    Waveform trace;
    /** Episodes simulated before the hit (== max_episodes if none). */
    size_t episodes = 0;
    /** Total simulated lane-cycles across all episodes. */
    uint64_t cycles = 0;
};

/**
 * Fuzz the cover target of a shadow instrumentation of @p kind.
 * The stimulus respects the same input restrictions the formal path
 * assumes (valid opcodes; no mid-trace fflags clears).
 */
FuzzResult fuzz_cover(const ShadowInstrumentation &shadow, ModuleKind kind,
                      const FuzzConfig &config = {});

} // namespace vega::lift
