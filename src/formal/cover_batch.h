/**
 * @file
 * Cover solving: the library's one engine for "shortest cover trace from
 * reset, or Unreachable/Timeout", for one target or a whole suite.
 *
 * A lifted pair-batch with N fault configurations asks the same module
 * the same bounded question N times. CoverBatch registers N activation-
 * literal targets against ONE persistent instance per portfolio worker,
 * deepens the shared frames once (one appended frame per bound), resolves
 * every still-open target at each bound, and retires covered/refuted
 * targets as it goes — the module logic every target shares is encoded
 * once per frame instead of once per (frame × target), and clauses
 * learned refuting one target prune its siblings. check_cover() is the
 * one-target case.
 *
 * Each target runs three phases: bounded deepening from reset, the
 * 1-step free-state check, and (with BmcOptions::kinduction_frames) the
 * k-induction step queries; see bmc.h for the verdicts they produce.
 * Statuses and frames are bound-exhaustion semantics independent of
 * batching. Covered witnesses are re-derived through a fresh bound-k
 * instance — optionally on a caller-supplied witness netlist, which is
 * how lift gets traces on its per-config shadow netlists while solving
 * against the multi-config shadow bank. `conflicts`/`wall_seconds` are
 * accounting, not semantics, and do vary with batch shape.
 *
 * A thread portfolio (BmcOptions::portfolio_threads) partitions the
 * targets round-robin across workers, each with its own instances;
 * workers exchange learned clauses after every bound in the canonical
 * (frame, net) form of Unroller::take_shared_clauses(). Sharing and
 * partitioning only move wall time: verdicts at any thread count are
 * identical.
 *
 * Budgets: run(conflict_budget, wall_budget_seconds) arms ONE wall
 * deadline for the whole run — every query gets only the remaining
 * time, so a batch of N targets honours the budget once rather than N
 * times. The conflict budget is a shared per-bound pool (see
 * sat::Solver::solve_batch). Targets starved by either budget park
 * with a Timeout result and resume exactly where they stopped on the
 * next run() — the escalation ladder re-runs the batch with grown
 * budgets without discarding frames or learned clauses.
 */
#pragma once

#include <memory>
#include <vector>

#include "formal/bmc.h"

namespace vega::formal {

namespace detail {
class LoopDeadline;
}

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
     * @p opts supplies the shared assume nets, frame bound, budgets,
     * k-induction depth and portfolio width; opts.state_equalities is
     * ignored (each target carries its own in its spec).
     */
    CoverBatch(const Netlist &nl, const BmcOptions &opts);
    ~CoverBatch();

    CoverBatch(const CoverBatch &) = delete;
    CoverBatch &operator=(const CoverBatch &) = delete;

    /** Register a target. Must precede the first run(); returns its index. */
    int add_target(CoverTargetSpec spec);

    int num_targets() const;

    /** Run or resume every unsettled target with the opts budgets. */
    void run();

    /** Run or resume under explicit budgets (an escalation rung). */
    void run(int64_t conflict_budget, double wall_budget_seconds);

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
    struct Worker;
    struct Mailbox;

    void run_worker(Worker &w, int64_t conflict_budget,
                    const detail::LoopDeadline &deadline);

    const Netlist &nl_;
    BmcOptions opts_;
    std::vector<Target> targets_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Mailbox> mailbox_;
    int runs_ = 0;
};

} // namespace vega::formal
