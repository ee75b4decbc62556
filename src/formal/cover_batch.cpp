#include "formal/cover_batch.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "formal/unroller.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::formal {

using sat::Lit;

namespace detail {

/**
 * One wall-clock deadline for a whole run: each SAT query is handed only
 * the time remaining, so the run — not each query — honours
 * wall_budget_seconds.
 */
class LoopDeadline
{
  public:
    explicit LoopDeadline(double seconds) : armed_(seconds >= 0.0)
    {
        if (armed_)
            end_ = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
    }

    /** Seconds left for the next query; -1 when no deadline is armed. */
    double remaining() const
    {
        if (!armed_)
            return -1.0;
        double left = std::chrono::duration<double>(end_ - Clock::now())
                          .count();
        return left > 0.0 ? left : 0.0;
    }

  private:
    using Clock = std::chrono::steady_clock;
    bool armed_;
    Clock::time_point end_;
};

} // namespace detail

namespace {

/** Record all port buses of @p nl for frames [0, frames) into a Waveform. */
Waveform
extract_trace(const Netlist &nl, const Unroller &unroll, int frames)
{
    Waveform w;
    for (int f = 0; f < frames; ++f)
        for (const auto *buses : {&nl.input_bus_names(),
                                  &nl.output_bus_names()})
            for (const auto &bus : *buses) {
                const auto &nets = nl.bus(bus);
                BitVec v(nets.size());
                for (size_t i = 0; i < nets.size(); ++i)
                    v.set(i, unroll.value(f, nets[i]));
                w.record(bus, v);
            }
    return w;
}

/**
 * Fresh-instance bound-@p k cover query from reset: the witness of a
 * target covered at bound k. The persistent instance's own model depends
 * on the clauses it carries (batch shape, portfolio sharing), this one
 * does not, so witnesses are the same at any batch shape or thread count.
 */
sat::Solver::Result
solve_reset_bound(const Netlist &nl, NetId target,
                  const std::vector<NetId> &assumes, int k,
                  int64_t conflict_budget, double wall_remaining,
                  uint64_t &conflicts, Waveform &trace_out)
{
    Unroller unroll(nl, /*free_initial=*/false);
    unroll.set_assumes(assumes);
    unroll.ensure_frames(k);
    auto &solver = unroll.solver();
    solver.add_clause(Lit(unroll.var(k - 1, target), false));

    sat::SolveLimits limits;
    limits.conflict_budget = conflict_budget;
    limits.wall_seconds = wall_remaining;
    auto res = solver.solve(limits);
    conflicts += solver.num_conflicts();
    if (res == sat::Solver::Result::Sat)
        trace_out = extract_trace(nl, unroll, k);
    return res;
}

/** Count one settled or parked outcome into bmc.covered/unreachable/
 *  timeouts. */
void
count_outcome(BmcStatus status)
{
    static obs::Counter &covered = obs::counter("bmc.covered");
    static obs::Counter &unreachable = obs::counter("bmc.unreachable");
    static obs::Counter &timeouts = obs::counter("bmc.timeouts");
    switch (status) {
      case BmcStatus::Covered:     covered.inc(); break;
      case BmcStatus::Unreachable: unreachable.inc(); break;
      case BmcStatus::Timeout:     timeouts.inc(); break;
    }
}

/**
 * Support closure of @p seeds: the cell mask containing every cell
 * whose output can influence any seed net, crossing DFFs into their D
 * (and clock/enable) cones. The result is frame-uniform and
 * support-closed, which is exactly what Unroller::set_cell_mask
 * requires; recomputing it from fewer seeds yields a subset, so
 * dropping a retired target's cone is always a legal shrink.
 */
std::vector<uint8_t>
support_closure(const Netlist &nl, const std::vector<NetId> &seeds)
{
    std::vector<uint8_t> mask(nl.num_cells(), 0);
    std::vector<uint8_t> net_seen(nl.num_nets(), 0);
    std::vector<NetId> work;
    for (NetId n : seeds) {
        if (n != kInvalidId && !net_seen[n]) {
            net_seen[n] = 1;
            work.push_back(n);
        }
    }
    while (!work.empty()) {
        NetId n = work.back();
        work.pop_back();
        CellId c = nl.net(n).driver;
        if (c == kInvalidId || mask[c])
            continue;
        mask[c] = 1;
        const Cell &cell = nl.cell(c);
        for (int i = 0; i < cell.num_inputs(); ++i) {
            NetId in = cell.in[i];
            if (in != kInvalidId && !net_seen[in]) {
                net_seen[in] = 1;
                work.push_back(in);
            }
        }
    }
    return mask;
}

} // namespace

/** Per-target solving state. `result` is this run's answer (final once
 *  phase == Settled); the phase cursors make a starved run resumable. */
struct CoverBatch::Target
{
    enum class Phase { Bounded, Free, Induction, Settled };

    CoverTargetSpec spec;
    Phase phase = Phase::Bounded;
    /** Phase 1: next reset-instance bound to query. */
    int next_bound = 1;
    /** Phase 3: next induction depth to query. */
    int induction_next = 2;
    /** Starved this run; skipped until the next (escalated) run. */
    bool parked = false;
    /** Cached free-instance activation literals (allocated once). */
    Lit eq_act;
    Lit clause_act;
    bool free_acts_made = false;
    BmcResult result;
};

/** One portfolio worker: its target slice plus its two persistent
 *  instances (reset deepening, free-state/induction). */
struct CoverBatch::Worker
{
    int id = 0;
    std::vector<int> targets; ///< indices into targets_
    std::unique_ptr<Unroller> reset_unroller;
    std::unique_ptr<Unroller> free_unroller;
    /** Bounded-target count the current reset cell mask was built for;
     *  the mask is recomputed (shrunk) whenever this drops. */
    int mask_targets = -1;
    /** Mailbox read cursors (entries before these are already imported). */
    size_t reset_cursor = 0;
    size_t free_cursor = 0;
};

/**
 * Cross-worker clause exchange. Two channels because the instances are
 * not interchangeable: clauses learned on a reset instance may depend
 * on the DFF init units and are only valid on other reset instances;
 * free-instance clauses are only shared with other free instances.
 * Entries are append-only under the mutex; each worker keeps a cursor
 * per channel and skips clauses it published itself.
 */
struct CoverBatch::Mailbox
{
    std::mutex mu;
    std::vector<std::pair<int, Unroller::SharedClause>> reset_entries;
    std::vector<std::pair<int, Unroller::SharedClause>> free_entries;

    void publish(int worker, std::vector<Unroller::SharedClause> clauses,
                 bool free_channel)
    {
        if (clauses.empty())
            return;
        std::lock_guard<std::mutex> lock(mu);
        auto &chan = free_channel ? free_entries : reset_entries;
        for (auto &c : clauses)
            chan.emplace_back(worker, std::move(c));
    }

    void exchange(int worker, size_t &cursor, Unroller &unroll,
                  bool free_channel)
    {
        std::vector<Unroller::SharedClause> fresh;
        {
            std::lock_guard<std::mutex> lock(mu);
            const auto &chan = free_channel ? free_entries : reset_entries;
            for (size_t i = cursor; i < chan.size(); ++i)
                if (chan[i].first != worker)
                    fresh.push_back(chan[i].second);
            cursor = chan.size();
        }
        if (!fresh.empty())
            unroll.import_shared_clauses(fresh);
    }
};

CoverBatch::CoverBatch(const Netlist &nl, const BmcOptions &opts)
    : nl_(nl), opts_(opts), mailbox_(std::make_unique<Mailbox>())
{
}

CoverBatch::~CoverBatch() = default;

int
CoverBatch::add_target(CoverTargetSpec spec)
{
    VEGA_CHECK(runs_ == 0, "add_target after the first run");
    VEGA_CHECK(spec.target != kInvalidId, "invalid batch cover target");
    static obs::Counter &batch_targets = obs::counter("bmc.batch_targets");
    batch_targets.inc();
    Target t;
    t.spec = std::move(spec);
    if (!t.spec.witness_netlist) {
        t.spec.witness_netlist = &nl_;
        t.spec.witness_target = t.spec.target;
        t.spec.witness_assumes = opts_.assumes;
    }
    // No bound to search: start at the free-state check.
    if (opts_.max_frames < 1)
        t.phase = Target::Phase::Free;
    targets_.push_back(std::move(t));
    return static_cast<int>(targets_.size()) - 1;
}

int
CoverBatch::num_targets() const
{
    return static_cast<int>(targets_.size());
}

bool
CoverBatch::settled(int idx) const
{
    return targets_[idx].phase == Target::Phase::Settled;
}

bool
CoverBatch::all_settled() const
{
    for (const Target &t : targets_)
        if (t.phase != Target::Phase::Settled)
            return false;
    return true;
}

const BmcResult &
CoverBatch::result(int idx) const
{
    return targets_[idx].result;
}

void
CoverBatch::run()
{
    run(opts_.conflict_budget, opts_.wall_budget_seconds);
}

void
CoverBatch::run(int64_t conflict_budget, double wall_budget_seconds)
{
    VEGA_SPAN("bmc.batch_run");
    if (targets_.empty())
        return;

    if (runs_ == 0) {
        // Partition targets round-robin across the portfolio workers.
        int w = std::max(1, opts_.portfolio_threads);
        w = std::min(w, static_cast<int>(targets_.size()));
        for (int i = 0; i < w; ++i) {
            auto worker = std::make_unique<Worker>();
            worker->id = i;
            workers_.push_back(std::move(worker));
        }
        for (size_t i = 0; i < targets_.size(); ++i)
            workers_[i % workers_.size()]->targets.push_back(
                static_cast<int>(i));
    }
    ++runs_;

    // Fresh per-run accounting: unsettled targets restart their spend
    // (each run reports its own slice), and a settled target's replay
    // charges nothing.
    for (Target &t : targets_) {
        if (t.phase == Target::Phase::Settled) {
            t.result.conflicts = 0;
            t.result.wall_seconds = 0.0;
        } else {
            t.result = BmcResult{};
            t.parked = false;
        }
    }

    // Prime the lazily-built topo/reader caches of every netlist the
    // workers will read concurrently: Netlist::topo_order() mutates
    // them on first use, which must happen-before the thread spawns.
    if (workers_.size() > 1) {
        nl_.topo_order();
        for (const Target &t : targets_)
            t.spec.witness_netlist->topo_order();
    }

    detail::LoopDeadline deadline(wall_budget_seconds);
    if (workers_.size() == 1) {
        run_worker(*workers_[0], conflict_budget, deadline);
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (auto &w : workers_)
        threads.emplace_back([&, worker = w.get()] {
            run_worker(*worker, conflict_budget, deadline);
        });
    for (auto &th : threads)
        th.join();
}

void
CoverBatch::run_worker(Worker &w, int64_t conflict_budget,
                       const detail::LoopDeadline &deadline)
{
    static obs::Counter &retired =
        obs::counter("bmc.targets_retired_per_bound");
    static obs::Counter &kinduction_proofs =
        obs::counter("bmc.kinduction_proofs");
    static obs::Counter &witness_rederive =
        obs::counter("bmc.witness_rederive");

    const bool sharing = workers_.size() > 1;
    // The whole-worklist conflict pool handed to one solve_batch call:
    // every due set shares per_query × count conflicts, so an easy
    // set's leftovers flow to a hard one instead of being forfeited.
    auto pooled = [&](size_t due) {
        return conflict_budget < 0
                   ? int64_t{-1}
                   : conflict_budget * static_cast<int64_t>(due);
    };
    auto settle = [](Target &t, BmcStatus status) {
        t.result.status = status;
        t.phase = Target::Phase::Settled;
        count_outcome(status);
    };
    auto park = [](Target &t, int frames) {
        t.result.status = BmcStatus::Timeout;
        t.result.frames = frames;
        t.parked = true;
        count_outcome(BmcStatus::Timeout);
    };

    // ---- Phase 1: bounded deepening on the shared reset instance ----
    //
    // The worker's still-bounded targets march through the bounds in
    // lockstep: frames are appended once per bound (under a cell mask
    // covering exactly the live targets' cones) and one solve_batch
    // call resolves every target due at that bound.
    auto bounded_count = [&] {
        int n = 0;
        for (int ti : w.targets)
            if (targets_[ti].phase == Target::Phase::Bounded)
                ++n;
        return n;
    };
    for (int k = 1; k <= opts_.max_frames; ++k) {
        std::vector<int> due;
        for (int ti : w.targets) {
            const Target &t = targets_[ti];
            if (t.phase == Target::Phase::Bounded && !t.parked &&
                t.next_bound == k)
                due.push_back(ti);
        }
        if (due.empty())
            continue;
        VEGA_SPAN("bmc.batch_deepen");

        // (Re)build the cell mask when the live-target set shrank. The
        // mask must keep every *bounded* target's cone — parked ones
        // included, since a later run resumes them on this instance —
        // plus the assume cones add_frame pins every frame.
        int live = bounded_count();
        if (live != w.mask_targets) {
            std::vector<NetId> seeds = opts_.assumes;
            for (int ti : w.targets)
                if (targets_[ti].phase == Target::Phase::Bounded)
                    seeds.push_back(targets_[ti].spec.target);
            w.mask_targets = live;
            if (!w.reset_unroller) {
                w.reset_unroller = std::make_unique<Unroller>(
                    nl_, /*free_initial=*/false);
                w.reset_unroller->set_assumes(opts_.assumes);
                if (sharing)
                    w.reset_unroller->enable_clause_sharing();
            }
            w.reset_unroller->set_cell_mask(support_closure(nl_, seeds));
        }
        Unroller &unroll = *w.reset_unroller;
        unroll.ensure_frames(k);

        std::vector<std::vector<Lit>> sets;
        sets.reserve(due.size());
        for (int ti : due)
            sets.push_back(
                {unroll.cover_activation(k - 1, targets_[ti].spec.target)});

        if (sharing)
            mailbox_->exchange(w.id, w.reset_cursor, unroll,
                               /*free_channel=*/false);
        sat::SolveLimits limits;
        limits.conflict_budget = pooled(due.size());
        limits.wall_seconds = deadline.remaining();
        auto outcomes = unroll.solver().solve_batch(sets, limits);
        if (sharing)
            mailbox_->publish(w.id, unroll.take_shared_clauses(),
                              /*free_channel=*/false);

        for (size_t d = 0; d < due.size(); ++d) {
            Target &t = targets_[due[d]];
            t.result.conflicts += outcomes[d].conflicts;
            t.result.wall_seconds += outcomes[d].seconds;
            switch (outcomes[d].result) {
              case sat::Solver::Result::Unsat:
                unroll.retire(sets[d][0]);
                t.next_bound = k + 1;
                if (t.next_bound > opts_.max_frames)
                    t.phase = Target::Phase::Free;
                break;
              case sat::Solver::Result::Unknown:
                park(t, k); // resumable: retry bound k next run
                break;
              case sat::Solver::Result::Sat: {
                // Re-derive the witness through a fresh-instance bound-k
                // query on the target's witness netlist, never the batch
                // instance's model: the waveform is then independent of
                // batch shape and thread count.
                const auto t0 = std::chrono::steady_clock::now();
                sat::Solver::Result wres;
                {
                    VEGA_SPAN("bmc.witness_rederive");
                    witness_rederive.inc();
                    wres = solve_reset_bound(
                        *t.spec.witness_netlist, t.spec.witness_target,
                        t.spec.witness_assumes, k, conflict_budget,
                        deadline.remaining(), t.result.conflicts,
                        t.result.trace);
                }
                t.result.wall_seconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (wres == sat::Solver::Result::Unknown) {
                    park(t, k); // resumable: retry bound k next run
                    break;
                }
                VEGA_CHECK(wres == sat::Solver::Result::Sat,
                           "batch witness vanished at bound ", k);
                t.result.frames = k;
                settle(t, BmcStatus::Covered);
                retired.inc();
                unroll.retire(sets[d][0]);
                break;
              }
            }
        }
    }

    // ---- Phase 2: free-state unreachability on one shared instance ----
    //
    // Each target's shadow-consistency equalities ride behind its own
    // gate literal and its target@0 ∨ target@1 clause behind an
    // activation literal, so the per-target query is the assumption
    // set {gate, clause}.
    std::vector<int> due_free;
    for (int ti : w.targets)
        if (targets_[ti].phase == Target::Phase::Free &&
            !targets_[ti].parked)
            due_free.push_back(ti);
    const int max_depth =
        std::min(opts_.kinduction_frames, opts_.max_frames);
    if (!due_free.empty()) {
        VEGA_SPAN("bmc.unreachability");
        if (!w.free_unroller) {
            w.free_unroller =
                std::make_unique<Unroller>(nl_, /*free_initial=*/true);
            w.free_unroller->set_assumes(opts_.assumes);
            if (sharing)
                w.free_unroller->enable_clause_sharing();
        }
        Unroller &unroll = *w.free_unroller;
        unroll.ensure_frames(2);

        std::vector<std::vector<Lit>> sets;
        sets.reserve(due_free.size());
        for (int ti : due_free) {
            Target &t = targets_[ti];
            if (!t.free_acts_made) {
                t.eq_act =
                    unroll.equality_activation(t.spec.state_equalities);
                t.clause_act = unroll.clause_activation(
                    {{0, t.spec.target}, {1, t.spec.target}});
                t.free_acts_made = true;
            }
            sets.push_back({t.eq_act, t.clause_act});
        }

        if (sharing)
            mailbox_->exchange(w.id, w.free_cursor, unroll,
                               /*free_channel=*/true);
        sat::SolveLimits limits;
        limits.conflict_budget = pooled(due_free.size());
        limits.wall_seconds = deadline.remaining();
        auto outcomes = unroll.solver().solve_batch(sets, limits);
        if (sharing)
            mailbox_->publish(w.id, unroll.take_shared_clauses(),
                              /*free_channel=*/true);

        for (size_t d = 0; d < due_free.size(); ++d) {
            Target &t = targets_[due_free[d]];
            t.result.conflicts += outcomes[d].conflicts;
            t.result.wall_seconds += outcomes[d].seconds;
            switch (outcomes[d].result) {
              case sat::Solver::Result::Unsat:
                t.result.proven_by_induction = true;
                settle(t, BmcStatus::Unreachable);
                unroll.retire(t.eq_act);
                unroll.retire(t.clause_act);
                break;
              case sat::Solver::Result::Unknown:
                park(t, 0); // resumable: re-solve phase 2 next run
                break;
              case sat::Solver::Result::Sat:
                // Inconclusive; the clause act is done either way (the
                // induction queries assume ¬target@j directly), the
                // equality gate keeps serving phase 3.
                unroll.retire(t.clause_act);
                if (max_depth >= 2) {
                    t.phase = Target::Phase::Induction;
                } else {
                    t.result.proven_by_induction = false;
                    t.result.frames = opts_.max_frames;
                    settle(t, BmcStatus::Unreachable);
                    unroll.retire(t.eq_act);
                }
                break;
            }
        }
    }

    // ---- Phase 3: k-induction on the same free-state instance ----
    //
    // Depth-k step query: from a free, shadow-consistent state, target
    // low for frames 0..k-1 (assumed directly on the net variables), can
    // it rise at frame k? UNSAT closes the induction: phase 1 already
    // refuted every rise before max_frames (the base case). Depth 1 is
    // the phase-2 check. Unknown falls back to the bounded verdict.
    for (int k = 2; k <= max_depth; ++k) {
        std::vector<int> due;
        for (int ti : w.targets)
            if (targets_[ti].phase == Target::Phase::Induction &&
                targets_[ti].induction_next == k)
                due.push_back(ti);
        if (due.empty())
            continue;
        VEGA_SPAN("bmc.kinduction");
        Unroller &unroll = *w.free_unroller;
        unroll.ensure_frames(k + 1);

        std::vector<std::vector<Lit>> sets;
        sets.reserve(due.size());
        for (int ti : due) {
            Target &t = targets_[ti];
            std::vector<Lit> set{t.eq_act};
            for (int j = 0; j < k; ++j)
                set.emplace_back(unroll.var(j, t.spec.target), true);
            set.push_back(unroll.cover_activation(k, t.spec.target));
            sets.push_back(std::move(set));
        }

        if (sharing)
            mailbox_->exchange(w.id, w.free_cursor, unroll,
                               /*free_channel=*/true);
        sat::SolveLimits limits;
        limits.conflict_budget = pooled(due.size());
        limits.wall_seconds = deadline.remaining();
        auto outcomes = unroll.solver().solve_batch(sets, limits);
        if (sharing)
            mailbox_->publish(w.id, unroll.take_shared_clauses(),
                              /*free_channel=*/true);

        for (size_t d = 0; d < due.size(); ++d) {
            Target &t = targets_[due[d]];
            t.result.conflicts += outcomes[d].conflicts;
            t.result.wall_seconds += outcomes[d].seconds;
            switch (outcomes[d].result) {
              case sat::Solver::Result::Unsat:
                kinduction_proofs.inc();
                t.result.proven_by_induction = true;
                t.result.kinduction_depth = k;
                settle(t, BmcStatus::Unreachable);
                unroll.retire(t.eq_act);
                break;
              case sat::Solver::Result::Sat:
                t.induction_next = k + 1;
                break;
              case sat::Solver::Result::Unknown:
                t.induction_next = max_depth + 1; // starve: bounded verdict
                break;
            }
        }
    }
    for (int ti : w.targets) {
        Target &t = targets_[ti];
        if (t.phase == Target::Phase::Induction &&
            t.induction_next > max_depth) {
            t.result.proven_by_induction = false;
            t.result.kinduction_depth = 0;
            t.result.frames = opts_.max_frames;
            settle(t, BmcStatus::Unreachable);
            w.free_unroller->retire(t.eq_act);
        }
    }
}

} // namespace vega::formal
