#include "sat/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::sat {

namespace {

/**
 * Flushes this solve's counter deltas and solve-time histogram to the
 * metrics registry on every exit path of solve(). All accounting
 * happens once per solve call, so the CDCL hot loop stays untouched.
 */
struct SolveMetricsScope
{
    const Solver &solver;
    uint64_t conflicts0, propagations0, decisions0, restarts0, learned0;
    std::chrono::steady_clock::time_point t0;

    explicit SolveMetricsScope(const Solver &s)
        : solver(s), conflicts0(s.num_conflicts()),
          propagations0(s.num_propagations()),
          decisions0(s.num_decisions()), restarts0(s.num_restarts()),
          learned0(s.num_learned_clauses()),
          t0(std::chrono::steady_clock::now())
    {
    }

    ~SolveMetricsScope()
    {
        static obs::Counter &solves = obs::counter("sat.solves");
        static obs::Counter &conflicts = obs::counter("sat.conflicts");
        static obs::Counter &propagations =
            obs::counter("sat.propagations");
        static obs::Counter &decisions = obs::counter("sat.decisions");
        static obs::Counter &restarts = obs::counter("sat.restarts");
        static obs::Counter &learned =
            obs::counter("sat.learned_clauses");
        static obs::Histogram &solve_seconds =
            obs::histogram("sat.solve_seconds");
        solves.inc();
        conflicts.add(solver.num_conflicts() - conflicts0);
        propagations.add(solver.num_propagations() - propagations0);
        decisions.add(solver.num_decisions() - decisions0);
        restarts.add(solver.num_restarts() - restarts0);
        learned.add(solver.num_learned_clauses() - learned0);
        solve_seconds.observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
};

} // namespace

Solver::Solver() = default;

Var
Solver::new_var()
{
    Var v = static_cast<Var>(activity_.size());
    activity_.push_back(0.0);
    assigns_.push_back(kUndef);
    saved_phase_.push_back(kFalse);
    reason_.push_back(kCrefUndef);
    level_.push_back(0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_pos_.push_back(-1);
    heap_insert(v);
    return v;
}

Solver::Cref
Solver::alloc_clause(const std::vector<Lit> &lits, bool learnt)
{
    Cref c = static_cast<Cref>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(lits.size()));
    arena_.push_back(learnt ? 2 : 0); // LBD slot (0 marks problem clauses)
    for (Lit l : lits)
        arena_.push_back(static_cast<uint32_t>(l.x));
    return c;
}

void
Solver::attach(Cref c)
{
    Lit *ls = clause_lits(c);
    for (int k = 0; k < 2; ++k) {
        std::vector<Watcher> &ws = watches_[(~ls[k]).x];
        if (ws.capacity() == 0)
            ws.reserve(kWatchReserve);
        ws.push_back({c, ls[1 - k]});
    }
}

bool
Solver::add_clause(std::span<const Lit> lits)
{
    if (!ok_)
        return false;
    VEGA_CHECK(trail_lim_.empty(), "add_clause after search started");

    // Normalize in place in the scratch buffer: drop duplicate/false
    // literals, detect tautologies and satisfied clauses at level 0.
    std::vector<Lit> &out = add_buf_;
    out.assign(lits.begin(), lits.end());
    std::sort(out.begin(), out.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    size_t n = 0;
    for (size_t i = 0; i < out.size(); ++i) {
        Lit l = out[i];
        if (value(l) == kTrue)
            return true; // already satisfied
        if (value(l) == kFalse)
            continue; // can never help
        if (n > 0 && l == out[n - 1])
            continue;
        if (n > 0 && l == ~out[n - 1])
            return true; // tautology
        out[n++] = l;
    }
    out.resize(n);

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], kCrefUndef);
        ok_ = propagate() == kCrefUndef;
        return ok_;
    }
    Cref c = alloc_clause(out, false);
    clauses_.push_back(c);
    attach(c);
    return true;
}

void
Solver::enqueue(Lit l, Cref reason)
{
    VEGA_CHECK(value(l) == kUndef, "enqueue on assigned literal");
    assigns_[l.var()] = l.sign() ? kFalse : kTrue;
    reason_[l.var()] = reason;
    level_[l.var()] = static_cast<int>(trail_lim_.size());
    trail_.push_back(l);
}

Solver::Cref
Solver::propagate()
{
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        ++propagations_;
        auto &ws = watches_[p.x];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (value(w.blocker) == kTrue) {
                ws[j++] = ws[i++];
                continue;
            }
            Cref c = w.cref;
            Lit *ls = clause_lits(c);
            int size = clause_size(c);
            // Ensure the false literal (~p) sits at slot 1.
            Lit false_lit = ~p;
            if (ls[0] == false_lit)
                std::swap(ls[0], ls[1]);

            Lit first = ls[0];
            if (first != w.blocker && value(first) == kTrue) {
                ws[j++] = {c, first};
                ++i;
                continue;
            }

            // Look for a replacement watch.
            bool moved = false;
            for (int k = 2; k < size; ++k) {
                if (value(ls[k]) != kFalse) {
                    std::swap(ls[1], ls[k]);
                    watches_[(~ls[1]).x].push_back({c, first});
                    moved = true;
                    break;
                }
            }
            if (moved) {
                ++i; // watcher leaves this list
                continue;
            }

            // Clause is unit or conflicting.
            if (value(first) == kFalse) {
                // Conflict: restore remaining watchers and bail.
                while (i < ws.size())
                    ws[j++] = ws[i++];
                ws.resize(j);
                qhead_ = trail_.size();
                return c;
            }
            enqueue(first, c);
            ws[j++] = ws[i++];
        }
        ws.resize(j);
    }
    return kCrefUndef;
}

void
Solver::bump_var(Var v)
{
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
        for (auto &a : activity_)
            a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[v] >= 0)
        heap_sift_up(heap_pos_[v]);
}

void
Solver::decay_activity()
{
    var_inc_ /= 0.95;
}

void
Solver::analyze(Cref conflict, std::vector<Lit> &learnt, int &backtrack)
{
    learnt.clear();
    learnt.push_back(Lit()); // slot for the asserting literal
    int counter = 0;
    Lit p;
    bool have_p = false;
    size_t index = trail_.size();
    Cref reason = conflict;
    int current_level = static_cast<int>(trail_lim_.size());

    for (;;) {
        VEGA_CHECK(reason != kCrefUndef, "analyze: missing reason");
        Lit *ls = clause_lits(reason);
        int size = clause_size(reason);
        int start = have_p ? 1 : 0;
        // When following a reason clause, skip its asserting literal.
        for (int k = start; k < size; ++k) {
            Lit q = ls[k];
            if (have_p && q == p)
                continue;
            Var v = q.var();
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                bump_var(v);
                if (level_[v] >= current_level) {
                    ++counter;
                } else {
                    learnt.push_back(q);
                }
            }
        }
        // Select the next literal on the trail to expand.
        while (!seen_[trail_[index - 1].var()])
            --index;
        p = trail_[--index];
        have_p = true;
        seen_[p.var()] = 0;
        --counter;
        if (counter == 0)
            break;
        reason = reason_[p.var()];
        // Put the asserting literal first in its reason for the skip above.
        if (reason != kCrefUndef) {
            Lit *rl = clause_lits(reason);
            if (rl[0] != p) {
                int sz = clause_size(reason);
                for (int k = 1; k < sz; ++k)
                    if (rl[k] == p) {
                        std::swap(rl[0], rl[k]);
                        break;
                    }
            }
        }
    }
    learnt[0] = ~p;

    // Compute backtrack level (second-highest level in the clause) and LBD.
    backtrack = 0;
    if (learnt.size() > 1) {
        size_t max_i = 1;
        for (size_t k = 2; k < learnt.size(); ++k)
            if (level_[learnt[k].var()] > level_[learnt[max_i].var()])
                max_i = k;
        std::swap(learnt[1], learnt[max_i]);
        backtrack = level_[learnt[1].var()];
    }

    for (Lit l : learnt)
        seen_[l.var()] = 0;
}

void
Solver::backtrack_to(int target)
{
    if (static_cast<int>(trail_lim_.size()) <= target)
        return;
    int bound = trail_lim_[target];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
        Var v = trail_[i].var();
        saved_phase_[v] = assigns_[v];
        assigns_[v] = kUndef;
        reason_[v] = kCrefUndef;
        if (heap_pos_[v] < 0)
            heap_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(target);
    qhead_ = trail_.size();
}

Lit
Solver::pick_branch()
{
    while (!heap_.empty()) {
        Var v = heap_pop();
        if (assigns_[v] == kUndef)
            return Lit(v, saved_phase_[v] == kFalse);
    }
    return Lit(); // undef: all assigned
}

int64_t
Solver::luby(int64_t x)
{
    // Luby restart series, MiniSat's formulation (0-indexed).
    int64_t size = 1;
    int seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x = x % size;
    }
    return 1ll << seq;
}

void
Solver::reduce_db()
{
    // Keep the better half (low LBD); never remove reasons.
    std::sort(learnts_.begin(), learnts_.end(), [this](Cref a, Cref b) {
        return arena_[a + 1] < arena_[b + 1];
    });
    std::vector<uint8_t> is_reason_clause;
    std::vector<Cref> keep;
    size_t half = learnts_.size() / 2;
    for (size_t i = 0; i < learnts_.size(); ++i) {
        Cref c = learnts_[i];
        bool is_reason = false;
        Lit *ls = clause_lits(c);
        if (value(ls[0]) == kTrue && reason_[ls[0].var()] == c)
            is_reason = true;
        if (i < half || is_reason || clause_size(c) <= 2) {
            keep.push_back(c);
        } else {
            // Detach from watch lists lazily: mark dead by zero size.
            Lit w0 = ~ls[0], w1 = ~ls[1];
            for (Lit w : {w0, w1}) {
                auto &ws = watches_[w.x];
                for (size_t k = 0; k < ws.size(); ++k)
                    if (ws[k].cref == c) {
                        ws[k] = ws.back();
                        ws.pop_back();
                        break;
                    }
            }
        }
    }
    learnts_ = std::move(keep);
}

Solver::Result
Solver::solve(int64_t conflict_budget)
{
    return solve(std::vector<Lit>{}, conflict_budget);
}

Solver::Result
Solver::solve(const std::vector<Lit> &assumptions, int64_t conflict_budget)
{
    VEGA_SPAN("sat.solve");
    SolveMetricsScope metrics(*this);
    if (!assumptions.empty()) {
        static obs::Counter &assumption_solves =
            obs::counter("sat.assumption_solves");
        assumption_solves.inc();
    }
    conflict_.clear();
    if (!ok_)
        return Result::Unsat;
    VEGA_CHECK(trail_lim_.empty(), "solve re-entered mid-search");
    if (propagate() != kCrefUndef) {
        ok_ = false;
        return Result::Unsat;
    }

    const uint64_t conflicts0 = conflicts_;
    int64_t restart_num = 0;
    int64_t restart_limit = 100 * luby(restart_num);
    int64_t conflicts_this_restart = 0;
    std::vector<Lit> learnt;

    Result result = Result::Unknown;
    for (;;) {
        Cref conflict = propagate();
        if (conflict != kCrefUndef) {
            ++conflicts_;
            ++conflicts_this_restart;
            if (trail_lim_.empty()) {
                ok_ = false;
                result = Result::Unsat;
                break;
            }
            int back_level = 0;
            analyze(conflict, learnt, back_level);
            backtrack_to(back_level);
            ++learned_total_;
            if (learnt.size() == 1) {
                enqueue(learnt[0], kCrefUndef);
            } else {
                Cref c = alloc_clause(learnt, true);
                // LBD: number of distinct decision levels.
                uint32_t lbd = 0;
                static thread_local std::vector<int> seen_levels;
                seen_levels.clear();
                for (Lit l : learnt) {
                    int lv = level_[l.var()];
                    if (std::find(seen_levels.begin(), seen_levels.end(),
                                  lv) == seen_levels.end()) {
                        seen_levels.push_back(lv);
                        ++lbd;
                    }
                }
                clause_lbd(c) = lbd;
                learnts_.push_back(c);
                attach(c);
                enqueue(learnt[0], c);
            }
            decay_activity();

            if (conflict_budget >= 0 &&
                conflicts_ - conflicts0 >=
                    static_cast<uint64_t>(conflict_budget))
                break; // Unknown
            if (conflicts_ >= next_reduce_) {
                reduce_db();
                next_reduce_ += 4000 + 300 * (next_reduce_ / 4000);
            }
            continue;
        }

        if (conflicts_this_restart >= restart_limit) {
            conflicts_this_restart = 0;
            restart_limit = 100 * luby(++restart_num);
            ++restarts_;
            backtrack_to(0);
            continue;
        }

        // Extend the assumption prefix: one decision level per
        // assumption, before any free decision. An already-true
        // assumption still claims a (empty) level so backjumps keep
        // every assumption decided; a false one is the final conflict.
        Lit next = Lit();
        bool assumption_failed = false;
        while (trail_lim_.size() < assumptions.size()) {
            Lit p = assumptions[trail_lim_.size()];
            uint8_t v = value(p);
            if (v == kTrue) {
                trail_lim_.push_back(static_cast<int>(trail_.size()));
            } else if (v == kFalse) {
                analyze_final(p);
                assumption_failed = true;
                break;
            } else {
                next = p;
                break;
            }
        }
        if (assumption_failed) {
            result = Result::Unsat;
            break;
        }
        if (next.x < 0)
            next = pick_branch();
        if (next.x < 0) {
            result = Result::Sat; // complete assignment
            break;
        }
        ++decisions_;
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, kCrefUndef);
    }

    // Snapshot the model, then rewind to the root so the instance stays
    // extendable (add_clause / new frames / the next assumption solve).
    if (result == Result::Sat)
        model_.assign(assigns_.begin(), assigns_.end());
    backtrack_to(0);
    return result;
}

/**
 * The final-conflict analysis of an assumption solve: @p failed is the
 * assumption literal found false while extending the prefix. Walks the
 * implication trail backwards from ~failed, expanding reasons, until
 * only decisions (which above the root are exactly the earlier
 * assumptions) remain; those plus @p failed form a jointly-unsat subset
 * of the assumptions.
 */
void
Solver::analyze_final(Lit failed)
{
    conflict_.clear();
    conflict_.push_back(failed);
    if (trail_lim_.empty() || level_[failed.var()] == 0)
        return; // contradicted at the root: {failed} alone suffices
    seen_[failed.var()] = 1;
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[0]; --i) {
        Var v = trail_[i].var();
        if (!seen_[v])
            continue;
        if (reason_[v] == kCrefUndef) {
            conflict_.push_back(trail_[i]);
        } else {
            const Lit *ls = clause_lits(reason_[v]);
            int sz = clause_size(reason_[v]);
            for (int k = 0; k < sz; ++k)
                if (level_[ls[k].var()] > 0)
                    seen_[ls[k].var()] = 1;
        }
        seen_[v] = 0;
    }
    seen_[failed.var()] = 0;
}

bool
Solver::model_value(Var v) const
{
    return static_cast<size_t>(v) < model_.size() && model_[v] == kTrue;
}

std::vector<Solver::BatchOutcome>
Solver::solve_batch(const std::vector<std::vector<Lit>> &sets,
                    int64_t conflict_budget)
{
    VEGA_SPAN("sat.solve_batch");
    std::vector<BatchOutcome> out(sets.size());
    const bool has_conflicts = conflict_budget >= 0;
    int64_t conflicts_left = conflict_budget;

    for (size_t i = 0; i < sets.size(); ++i) {
        if (has_conflicts && conflicts_left <= 0)
            continue; // budget spent: Unknown, zero attribution
        const uint64_t c0 = conflicts_;
        out[i].result = solve(sets[i], conflicts_left);
        out[i].conflicts = static_cast<int64_t>(conflicts_ - c0);
        if (out[i].result == Result::Unsat)
            out[i].failed = conflict_;
        if (has_conflicts)
            conflicts_left -= out[i].conflicts;
    }
    return out;
}

// ---- activity heap -------------------------------------------------------

void
Solver::heap_insert(Var v)
{
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heap_sift_up(heap_pos_[v]);
}

Var
Solver::heap_pop()
{
    Var top = heap_[0];
    heap_pos_[top] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_pos_[heap_[0]] = 0;
        heap_sift_down(0);
    }
    return top;
}

void
Solver::heap_sift_up(int i)
{
    Var v = heap_[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!heap_less(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = i;
}

void
Solver::heap_sift_down(int i)
{
    Var v = heap_[i];
    int n = static_cast<int>(heap_.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_less(heap_[child + 1], heap_[child]))
            ++child;
        if (!heap_less(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = i;
}

void
Solver::heap_update(Var v)
{
    if (heap_pos_[v] >= 0)
        heap_sift_up(heap_pos_[v]);
}

} // namespace vega::sat
