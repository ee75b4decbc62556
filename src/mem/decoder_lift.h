/**
 * @file
 * Decoder-aware error lifting (the memory-path counterpart of
 * lift/error_lifting.h).
 *
 * The datapath failure model — capture a wrong constant when the
 * launch toggles — cannot express what an aged decoder does: the gate
 * is *slow*, so on an address transition one stage briefly computes
 * with stale inputs and the macro selects the wrong row(s). We model
 * that directly as a transition-delay fault: splice a DFF after the
 * aged gate so its fanout sees the previous cycle's value, then sweep
 * all (previous, current) address patterns on healthy vs faulty
 * netlists, watching the registered wordline buses:
 *
 *   slow address repeater -> every line sees a hybrid address (stale
 *                            bit, fresh others): exactly one wrong row
 *                            rises while the right one stays down
 *                            (WrongRow, both ports)
 *   slow pre-decode gate  -> the old group line stays up next to the
 *                            new one (MultiSelect, both ports) or the
 *                            new group rises late (NoSelect)
 *   slow final-stage gate -> the old row stays up (MultiSelect) or the
 *                            new row rises late (NoSelect), one port
 *   slow datapath gate    -> wordlines unaffected (None; value-class,
 *                            not an address fault)
 *
 * The concrete (victim, aggressor) pair and the read/write split (the
 * substrate has separate read/write final stages behind a shared
 * pre-decode) come straight out of the sweep. Detection tests are then
 * drawn from an escalation ladder — random traffic, MATS+, March C- —
 * and greedily minimized into a covering suite.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lift/error_lifting.h"
#include "mem/fault_class.h"
#include "rtl/module.h"

namespace vega::mem {

/**
 * A copy of @p nl with @p gate made one cycle slow: a DFF is spliced
 * after the gate's output, so all fanout reads last cycle's value.
 * @p gate must be combinational. Returned as a lift::FailingNetlist so
 * campaign plumbing treats both fault families uniformly.
 */
lift::FailingNetlist build_slow_gate_netlist(const Netlist &nl,
                                             CellId gate);

/** NAND/NOR stage cells along @p path, launch side first (pre-decode
 *  stages come before final stages). Empty when the path never crosses
 *  a decode stack — i.e. a pure datapath path. */
std::vector<CellId> decoder_gates_on_path(const Netlist &nl,
                                          const sta::TimingPath &path);

/** First decode-stack gate on the worst path, or kInvalidId. */
CellId pick_decoder_gate(const Netlist &nl, const sta::TimingPath &path);

/**
 * Age @p gate (slow-gate model) and classify the resulting address
 * fault by sweeping every (previous, current) address pattern and
 * comparing the faulty "rwl"/"wwl" wordline buses against the healthy
 * one-hot selection. Kind priority when one gate shows several
 * anomalies: WrongRow > MultiSelect > NoSelect; victim/aggressor come
 * from the lowest triggering pattern of the chosen kind.
 */
MemFaultClass classify_slow_gate(const Netlist &healthy, CellId gate);

struct MemLiftConfig
{
    /** Analyze only the first N pairs (benches subset with this). */
    size_t max_pairs = SIZE_MAX;
};

/** Per-pair outcome of decoder lifting. */
struct MemPairResult
{
    sta::EndpointPair pair;
    CellId gate = kInvalidId;
    MemFaultClass cls;
    /** Success = concrete detected class; Unreachable = no decode gate
     *  on the path or no address anomaly (value-class fault);
     *  ConversionFailed = real address fault no candidate detects. */
    lift::PairStatus status = lift::PairStatus::Unreachable;
    /** Ladder rung that first detected: "random", "mats+", "march_c-". */
    std::string escalation;
    /** Candidate-suite indices whose test detects this fault. */
    std::vector<size_t> detected_by;
};

struct MemLiftResult
{
    std::vector<MemPairResult> pairs;
    /** Full escalation-ladder pool, rung order (random first). */
    std::vector<runtime::TestCase> candidates;
    /** Greedy set-cover minimized suite over all Success pairs. */
    std::vector<runtime::TestCase> suite;
    size_t n_success = 0;
    size_t n_unreachable = 0;
    size_t n_conversion_failed = 0;
};

/** Run decoder-aware lifting over @p pairs of @p module. */
MemLiftResult
run_decoder_lifting(const HwModule &module,
                    const std::vector<sta::EndpointPair> &pairs,
                    const MemLiftConfig &config = {});

} // namespace vega::mem
