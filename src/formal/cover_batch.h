/**
 * @file
 * Cover solving: the library's one engine for "shortest cover trace from
 * reset, or Unreachable/Timeout", for one target or a whole suite.
 *
 * A lifted pair-batch with N fault configurations asks the same module
 * the same bounded question N times. CoverBatch registers N activation-
 * literal targets against ONE persistent instance, deepens the shared
 * frames once (one appended frame per bound), resolves every still-open
 * target at each bound, and retires covered/refuted targets as it goes
 * — the module logic every target shares is encoded once per frame
 * instead of once per (frame × target), and clauses learned refuting
 * one target prune its siblings. check_cover() is the one-target case.
 *
 * Each target runs three phases: bounded deepening from reset on the
 * reset-state instance, then the 1-step free-state check and (with
 * BmcOptions::kinduction_frames) the k-induction step queries on one
 * free-state instance; see bmc.h for the verdicts they produce.
 * Statuses and frames are bound-exhaustion semantics independent of
 * batching. Covered witnesses are re-derived through a fresh bound-k
 * instance — optionally on a caller-supplied witness netlist, which is
 * how lift gets traces on its per-config shadow netlists while solving
 * against the multi-config shadow bank — so they do not depend on batch
 * shape or target order either. `conflicts` is accounting, not
 * semantics, and does vary with batch shape.
 *
 * Budget: run(conflict_budget) bounds every query by conflicts alone,
 * so a verdict never depends on host load. The N targets due in one
 * solve_batch round (a bound, the free-state check, an induction
 * depth) share a pool of N × conflict_budget. Targets starved by it
 * park with a Timeout result and resume exactly where they stopped on
 * the next run() — the escalation ladder re-runs the batch with a
 * grown budget without discarding frames or learned clauses.
 */
#pragma once

#include <memory>
#include <vector>

#include "formal/bmc.h"

namespace vega::formal {

class Unroller;

/**
 * One cover target of a batch. `target` and `state_equalities` name
 * nets of the batch netlist. When `witness_netlist` is set, Covered
 * traces are re-derived on it (with `witness_target` and
 * `witness_assumes`) instead of the batch netlist — the two must agree
 * on bound-k satisfiability for every k, which holds when the batch
 * netlist embeds the witness netlist's fault cone verbatim (see
 * lift::build_shadow_bank).
 */
struct CoverTargetSpec
{
    NetId target = kInvalidId;
    std::vector<std::pair<NetId, NetId>> state_equalities;
    const Netlist *witness_netlist = nullptr;
    NetId witness_target = kInvalidId;
    std::vector<NetId> witness_assumes;
};

class CoverBatch
{
  public:
    /**
     * @p opts supplies the shared assume nets, frame bound, conflict
     * budget and k-induction depth; opts.state_equalities is ignored
     * (each target carries its own in its spec).
     */
    CoverBatch(const Netlist &nl, const BmcOptions &opts);
    ~CoverBatch();

    CoverBatch(const CoverBatch &) = delete;
    CoverBatch &operator=(const CoverBatch &) = delete;

    /** Register a target. Must precede the first run(); returns its index. */
    int add_target(CoverTargetSpec spec);

    int num_targets() const;

    /** Run or resume every unsettled target with opts.conflict_budget. */
    void run();

    /**
     * Run or resume under an explicit per-query conflict budget (an
     * escalation rung); negative means no limit.
     */
    void run(int64_t conflict_budget);

    /** True once target @p idx has a Covered/Unreachable answer. */
    bool settled(int idx) const;

    /** True when every target is settled. */
    bool all_settled() const;

    /**
     * The target's result: final once settled, otherwise the Timeout
     * state of the most recent run (bound reached, spend so far).
     */
    const BmcResult &result(int idx) const;

  private:
    struct Target;

    const Netlist &nl_;
    BmcOptions opts_;
    std::vector<Target> targets_;
    /** Reset-state instance of phase 1 (bounded deepening). */
    std::unique_ptr<Unroller> reset_unroller_;
    /** Free-state instance of phases 2 and 3. */
    std::unique_ptr<Unroller> free_unroller_;
    /** Bounded-target count the reset cell mask was built for; the mask
     *  is recomputed (shrunk) whenever this drops. */
    int mask_targets_ = -1;
    int runs_ = 0;
};

} // namespace vega::formal
