/**
 * @file
 * CDCL SAT solver.
 *
 * The formal-verification engine under Vega's Error Lifting phase
 * (substituting the commercial model checker the paper uses). Implements
 * the standard modern architecture: two-watched-literal propagation,
 * first-UIP conflict analysis with clause learning, EVSIDS branching,
 * phase saving, Luby restarts, and LBD-based learned-clause reduction.
 * A conflict budget turns long proofs into Result::Unknown, which the
 * Error Lifting phase reports as the paper's "FF" (formal failure/timeout)
 * outcome.
 *
 * The solver is *incremental*: every solve() exits at the root decision
 * level, so callers may keep adding variables and clauses after a solve
 * and re-solve — learned clauses, variable activities, and saved phases
 * all persist across calls. solve(assumptions, ...) decides the given
 * literals before the free search; an Unsat answer under assumptions
 * does not poison the instance (failed_assumptions() names a subset of
 * the assumptions that is jointly contradictory), which is what the BMC
 * unroller's per-bound activation literals are built on.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vega::sat {

/** Variable index, 0-based. */
using Var = int32_t;

/**
 * Literal: 2*var for the positive phase, 2*var+1 for the negative.
 */
struct Lit
{
    int32_t x = -2;

    Lit() = default;
    Lit(Var v, bool negative) : x(v * 2 + (negative ? 1 : 0)) {}

    Var var() const { return x >> 1; }
    bool sign() const { return x & 1; } ///< true = negated
    Lit operator~() const
    {
        Lit l;
        l.x = x ^ 1;
        return l;
    }
    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
};

inline Lit mk_lit(Var v) { return Lit(v, false); }

class Solver
{
  public:
    enum class Result { Sat, Unsat, Unknown };

    Solver();

    Var new_var();
    int num_vars() const { return static_cast<int>(activity_.size()); }

    /**
     * Add a clause (empty clause makes the instance trivially unsat).
     * Returns false if the solver is already in an unsat state. Legal
     * between solve() calls: the solver always returns to the root
     * level, so new clauses join the existing (learned) database.
     *
     * The literals are copied: normalization (sort, drop false and
     * duplicate literals, detect tautologies and satisfied clauses)
     * runs in a scratch buffer the solver reuses, so a steady-state add
     * allocates nothing beyond the clause arena's and watch lists'
     * amortized growth.
     */
    bool add_clause(std::span<const Lit> lits);

    /** Convenience adders; all forward to the span overload. */
    bool add_clause(const std::vector<Lit> &lits)
    {
        return add_clause(std::span<const Lit>(lits));
    }
    bool add_clause(Lit a) { return add_clause(std::span<const Lit>(&a, 1)); }
    bool add_clause(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return add_clause(std::span<const Lit>(lits));
    }
    bool add_clause(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return add_clause(std::span<const Lit>(lits));
    }

    /**
     * Solve. Stops with Result::Unknown once @p conflict_budget conflicts
     * have been spent (pass a negative budget for "no limit"). The
     * budget counts conflicts spent in this solve, not lifetime
     * conflicts.
     */
    Result solve(int64_t conflict_budget = -1);

    /**
     * Solve under @p assumptions: each literal is decided (in order)
     * before the free search, so Result::Sat guarantees a model where
     * every assumption holds, and Result::Unsat means the clauses are
     * contradictory *under the assumptions* — the instance itself stays
     * usable, and failed_assumptions() reports which assumptions were
     * involved. @p conflict_budget is as for solve(int64_t).
     */
    Result solve(const std::vector<Lit> &assumptions,
                 int64_t conflict_budget = -1);

    /**
     * After an Unsat answer from solve(assumptions): a subset of the
     * assumptions that the solver proved jointly contradictory (the
     * final conflict). Empty when the instance is unsat outright.
     */
    const std::vector<Lit> &failed_assumptions() const { return conflict_; }

    /**
     * Per-set outcome of a solve_batch() call. `conflicts` attributes
     * the batch's spend to this set; a set skipped because the batch
     * budget ran out reports Unknown with zero spend.
     */
    struct BatchOutcome
    {
        Result result = Result::Unknown;
        /** failed_assumptions() of this set's solve (Unsat only). */
        std::vector<Lit> failed;
        int64_t conflicts = 0;
    };

    /**
     * Batched assumption-set iteration: solve every assumption set in
     * @p sets, in order, against the *same* instance. Learned clauses,
     * activities, and saved phases persist across the worklist, so
     * later sets reuse everything earlier sets derived — this is the
     * suite-level analogue of one incremental solve() loop, minus the
     * per-call entry/exit overhead in callers.
     *
     * @p conflict_budget is a whole-batch pool (negative: no limit),
     * each set solving under whatever remains. Once it is exhausted
     * the remaining sets come back Unknown with zero attributed spend.
     * The model of the most recent Sat set stays readable via
     * model_value().
     */
    std::vector<BatchOutcome>
    solve_batch(const std::vector<std::vector<Lit>> &sets,
                int64_t conflict_budget = -1);

    /** Model value of @p v after Result::Sat. */
    bool model_value(Var v) const;

    uint64_t num_conflicts() const { return conflicts_; }
    uint64_t num_decisions() const { return decisions_; }
    uint64_t num_propagations() const { return propagations_; }
    uint64_t num_restarts() const { return restarts_; }
    uint64_t num_learned_clauses() const { return learned_total_; }

  private:
    // Clause storage: all clauses live in one arena; a Cref is an offset.
    using Cref = uint32_t;
    static constexpr Cref kCrefUndef = 0xffffffffu;

    struct Watcher
    {
        Cref cref;
        Lit blocker;
    };

    enum : uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

    uint8_t value(Lit l) const
    {
        uint8_t a = assigns_[l.var()];
        if (a == kUndef)
            return kUndef;
        return (a == kTrue) != l.sign() ? kTrue : kFalse;
    }

    Cref alloc_clause(const std::vector<Lit> &lits, bool learnt);
    int clause_size(Cref c) const { return arena_[c]; }
    Lit *clause_lits(Cref c) { return reinterpret_cast<Lit *>(&arena_[c + 2]); }
    const Lit *clause_lits(Cref c) const
    {
        return reinterpret_cast<const Lit *>(&arena_[c + 2]);
    }
    uint32_t &clause_lbd(Cref c) { return arena_[c + 1]; }

    /** Room a literal's watch list reserves for its first watcher:
     *  typical Tseitin occupancy, so short lists skip the 1-2-4-8
     *  regrowth. */
    static constexpr size_t kWatchReserve = 8;

    void attach(Cref c);
    void enqueue(Lit l, Cref reason);
    Cref propagate();
    void analyze(Cref conflict, std::vector<Lit> &learnt, int &backtrack);
    void analyze_final(Lit failed);
    void backtrack_to(int level);
    Lit pick_branch();
    void bump_var(Var v);
    void decay_activity();
    void reduce_db();
    static int64_t luby(int64_t i);

    // State
    std::vector<uint32_t> arena_;
    std::vector<Cref> clauses_;
    std::vector<Cref> learnts_;
    std::vector<std::vector<Watcher>> watches_; ///< indexed by Lit.x
    std::vector<uint8_t> assigns_;              ///< per var
    std::vector<uint8_t> saved_phase_;
    std::vector<Cref> reason_;
    std::vector<int> level_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    // Binary-heap order by activity.
    std::vector<Var> heap_;
    std::vector<int> heap_pos_;
    void heap_insert(Var v);
    void heap_update(Var v);
    Var heap_pop();
    void heap_sift_up(int i);
    void heap_sift_down(int i);
    bool heap_less(Var a, Var b) const
    {
        return activity_[a] > activity_[b];
    }

    std::vector<uint8_t> seen_; ///< scratch for analyze()
    std::vector<Lit> add_buf_;  ///< scratch for add_clause()

    /** Model snapshot taken at the moment of a Sat answer (the search
     *  state itself is rewound to the root so the instance stays
     *  extendable). */
    std::vector<uint8_t> model_;
    /** Failed-assumption set of the last assumption-Unsat answer. */
    std::vector<Lit> conflict_;

    bool ok_ = true;
    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    uint64_t restarts_ = 0;
    uint64_t learned_total_ = 0;
    /** Learned-DB reduction point; persists so incremental re-solves
     *  keep one schedule instead of reducing on every early conflict. */
    uint64_t next_reduce_ = 4000;
};

} // namespace vega::sat
