/**
 * @file
 * Logical failure models for timing violations (§3.3.1–§3.3.2).
 *
 * A setup violation on path X ⇝ Y makes Y sample a wrong constant C
 * whenever X changed in the previous cycle (Eq. 2); a hold violation
 * does so whenever X is about to change (Eq. 3); a path that starts and
 * ends at the same flop leaves Y metastable (always C). The §3.3.4
 * mitigation narrows activation to a specific edge of X so generated
 * tests do not depend on pre-existing register state.
 *
 * The model is built from ordinary cells (a C source, a history DFF, an
 * activation comparator, and a MUX computing Y's corrupted next-state),
 * and one construction of the C source and the activation serves every
 * product of this phase:
 *
 *  - a *failing netlist*: the MUX spliced into Y's D pin in a copy of
 *    the module, used for fault-injection evaluation (§5.2.2) and
 *    exportable as synthesizable Verilog;
 *  - a *fault bank*: many failing netlists in one copy, each fault's
 *    activation gated by its own enable bit;
 *  - a *shadow replica*: the MUX feeding a duplicated fanout cone of Y
 *    whose outputs are compared against the originals, producing the
 *    cover target for trace generation (§3.3.3). Y itself is never
 *    rewired.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "sta/sta.h"

namespace vega::lift {

/** The wrong value C sampled on a violation. */
enum class FaultConstant {
    Zero,
    One,
    /**
     * A fresh value each cycle, driven by the evaluation testbench
     * through an added "fm_rand" input (Table 6's "R" failure mode).
     * Not used for formal trace generation, matching the paper.
     */
    RandomInput,
};

/** §3.3.4 activation narrowing. */
enum class Mitigation { None, RisingEdge, FallingEdge };

const char *fault_constant_name(FaultConstant c);
const char *mitigation_name(Mitigation m);

/** Which violation to model on which endpoint pair. */
struct FailureModelSpec
{
    CellId launch = kInvalidId;  ///< X: launching DFF
    CellId capture = kInvalidId; ///< Y: capturing DFF
    bool is_setup = true;
    FaultConstant constant = FaultConstant::Zero;
    Mitigation mitigation = Mitigation::None;
};

/** A module copy with the fault spliced in front of Y. */
struct FailingNetlist
{
    Netlist netlist;
    /** True if the "fm_rand" input bus exists (RandomInput mode). */
    bool has_random_input = false;
};

FailingNetlist build_failing_netlist(const Netlist &nl,
                                     const FailureModelSpec &spec);

/**
 * A module copy with *every* fault of a working set spliced in at once,
 * each gated by its own bit of an added "fm_en" input bus. With exactly
 * one enable raised, the netlist behaves — gate-for-gate on every
 * original net — like build_failing_netlist() of that spec alone: a
 * disabled fault's MUX is an exact pass-through, so the chained splices
 * on a shared capture flop compose to the identity. One compiled
 * EvalTape of the bank therefore serves a whole campaign's fault matrix,
 * which is what lets BatchSimulator lanes run 64 different faults per
 * pass (campaign wave execution).
 */
struct FaultBank
{
    Netlist netlist;
    /** Faults in input order; enable bit i of "fm_en" activates spec i. */
    size_t num_faults = 0;
    /** True if any spec is RandomInput (one shared "fm_rand" input). */
    bool has_random_input = false;
    /** Per fault: does it read "fm_rand"? */
    std::vector<char> fault_random;
};

FaultBank build_fault_bank(const Netlist &nl,
                           const std::vector<FailureModelSpec> &specs);

/** A module copy with fault + shadow replica + cover target. */
struct ShadowInstrumentation
{
    Netlist netlist;
    /** 1-bit cover target: some shadowed output differs (Figure 7). */
    NetId mismatch = kInvalidId;
    /** (original Q, shadow Q) pairs for the inductive check. */
    std::vector<std::pair<NetId, NetId>> state_pairs;
    /** Output buses that have shadow copies, e.g. "o" -> "o_s". */
    std::vector<std::string> shadowed_buses;
};

ShadowInstrumentation
build_shadow_instrumentation(const Netlist &nl, const FailureModelSpec &spec);

/**
 * One module copy carrying an independent shadow replica per spec —
 * the suite-level netlist behind batched cover solving. Unlike
 * build_fault_bank there are NO enable inputs: every spec's fault
 * logic and duplicated fanout cone (nets suffixed "_s<i>") is always
 * live, each feeding its own mismatch bit, and the original module
 * logic is shared untouched. Cone i is gate-for-gate isomorphic to
 * build_shadow_instrumentation(nl, specs[i]) — same fault structure,
 * same observability gating, same state pairs — so target i's
 * bound-k satisfiability equals the single-spec instrumentation's,
 * which is what lets formal::CoverBatch solve a whole pair-batch on
 * one unrolled instance and re-derive witnesses per spec.
 */
struct ShadowBank
{
    Netlist netlist;
    struct Cone
    {
        /** Cover target of this spec (bit i of the "mismatch" bus). */
        NetId mismatch = kInvalidId;
        /** (original Q, shadow Q) pairs for this spec's inductive check. */
        std::vector<std::pair<NetId, NetId>> state_pairs;
    };
    /** One entry per spec, input order. */
    std::vector<Cone> cones;
};

ShadowBank build_shadow_bank(const Netlist &nl,
                             const std::vector<FailureModelSpec> &specs);

} // namespace vega::lift
