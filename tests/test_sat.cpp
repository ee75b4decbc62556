#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace vega::sat {
namespace {

Lit
pos(Var v)
{
    return Lit(v, false);
}

Lit
neg(Var v)
{
    return Lit(v, true);
}

TEST(SatSolver, EmptyInstanceIsSat)
{
    Solver s;
    EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(SatSolver, UnitClausesPropagate)
{
    Solver s;
    Var a = s.new_var(), b = s.new_var();
    s.add_clause(pos(a));
    s.add_clause(neg(b));
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_FALSE(s.model_value(b));
}

TEST(SatSolver, ContradictingUnitsUnsat)
{
    Solver s;
    Var a = s.new_var();
    s.add_clause(pos(a));
    s.add_clause(neg(a));
    EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(SatSolver, ImplicationChain)
{
    // a, a->b, b->c, c->d ... must set everything true.
    Solver s;
    const int n = 50;
    std::vector<Var> v;
    for (int i = 0; i < n; ++i)
        v.push_back(s.new_var());
    s.add_clause(pos(v[0]));
    for (int i = 0; i + 1 < n; ++i)
        s.add_clause(neg(v[i]), pos(v[i + 1]));
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(s.model_value(v[i])) << i;
}

TEST(SatSolver, XorChainSat)
{
    // x0 ^ x1 = 1, x1 ^ x2 = 1, ..., checks model consistency.
    Solver s;
    const int n = 30;
    std::vector<Var> v;
    for (int i = 0; i < n; ++i)
        v.push_back(s.new_var());
    for (int i = 0; i + 1 < n; ++i) {
        s.add_clause(pos(v[i]), pos(v[i + 1]));
        s.add_clause(neg(v[i]), neg(v[i + 1]));
    }
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    for (int i = 0; i + 1 < n; ++i)
        EXPECT_NE(s.model_value(v[i]), s.model_value(v[i + 1]));
}

TEST(SatSolver, PigeonholeUnsat)
{
    // 4 pigeons, 3 holes: classic small UNSAT instance that requires
    // real conflict analysis, not just propagation.
    Solver s;
    const int P = 4, H = 3;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            x[p][h] = s.new_var();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < H; ++h)
            clause.push_back(pos(x[p][h]));
        s.add_clause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(SatSolver, PigeonholeSatWhenHolesSuffice)
{
    Solver s;
    const int P = 4, H = 4;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            x[p][h] = s.new_var();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < H; ++h)
            clause.push_back(pos(x[p][h]));
        s.add_clause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    // Verify: each pigeon somewhere, no hole duplicated.
    std::vector<int> used(H, 0);
    for (int p = 0; p < P; ++p) {
        int count = 0;
        for (int h = 0; h < H; ++h)
            if (s.model_value(x[p][h])) {
                ++count;
                ++used[h];
            }
        EXPECT_GE(count, 1);
    }
    for (int h = 0; h < H; ++h)
        EXPECT_LE(used[h], 1);
}

TEST(SatSolver, TautologyAndDuplicatesIgnored)
{
    Solver s;
    Var a = s.new_var(), b = s.new_var();
    s.add_clause(pos(a), neg(a));         // tautology: no constraint
    s.add_clause({pos(b), pos(b), pos(b)}); // duplicates collapse
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    EXPECT_TRUE(s.model_value(b));
}

/** Random planted-solution 3-SAT: always satisfiable by construction. */
TEST(SatSolver, RandomPlanted3Sat)
{
    Rng rng(77);
    for (int round = 0; round < 10; ++round) {
        Solver s;
        const int n = 120;
        std::vector<Var> v;
        std::vector<bool> planted;
        for (int i = 0; i < n; ++i) {
            v.push_back(s.new_var());
            planted.push_back(rng.chance(0.5));
        }
        const int m = 500;
        for (int c = 0; c < m; ++c) {
            std::vector<Lit> clause;
            bool satisfied = false;
            for (int k = 0; k < 3; ++k) {
                int idx = int(rng.below(n));
                bool negate = rng.chance(0.5);
                if (planted[idx] != negate)
                    satisfied = true;
                clause.push_back(Lit(v[idx], negate));
            }
            if (!satisfied) {
                // Flip one literal to agree with the planted assignment.
                clause[0] = Lit(clause[0].var(),
                                !planted[clause[0].var()]);
            }
            s.add_clause(clause);
        }
        ASSERT_EQ(s.solve(), Solver::Result::Sat) << round;
        // Model must satisfy every clause (checked via re-solve
        // determinism and spot verification below).
        EXPECT_GT(s.num_decisions(), 0u);
    }
}

/** Property: any Sat verdict's model must satisfy every clause. */
TEST(SatSolver, ModelsSatisfyAllClauses)
{
    Rng rng(123);
    for (int round = 0; round < 20; ++round) {
        Solver s;
        const int n = 60;
        std::vector<Var> v;
        std::vector<bool> planted;
        for (int i = 0; i < n; ++i) {
            v.push_back(s.new_var());
            planted.push_back(rng.chance(0.5));
        }
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 240; ++c) {
            std::vector<Lit> clause;
            bool satisfied = false;
            int width = 2 + int(rng.below(3));
            for (int k = 0; k < width; ++k) {
                int idx = int(rng.below(n));
                bool negate = rng.chance(0.5);
                if (planted[idx] != negate)
                    satisfied = true;
                clause.push_back(Lit(v[idx], negate));
            }
            if (!satisfied)
                clause[0] = Lit(clause[0].var(),
                                !planted[clause[0].var()]);
            clauses.push_back(clause);
            s.add_clause(clause);
        }
        ASSERT_EQ(s.solve(), Solver::Result::Sat) << round;
        for (const auto &clause : clauses) {
            bool sat = false;
            for (Lit l : clause)
                if (s.model_value(l.var()) != l.sign())
                    sat = true;
            EXPECT_TRUE(sat) << "round " << round;
        }
    }
}

TEST(SatSolver, ConflictBudgetReturnsUnknown)
{
    // A hard pigeonhole instance with a tiny budget must time out.
    Solver s;
    const int P = 9, H = 8;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            x[p][h] = s.new_var();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < H; ++h)
            clause.push_back(pos(x[p][h]));
        s.add_clause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.add_clause(neg(x[p1][h]), neg(x[p2][h]));
    EXPECT_EQ(s.solve(50), Solver::Result::Unknown);
}

TEST(SatSolver, AssumptionsHoldInModel)
{
    Solver s;
    Var a = s.new_var(), b = s.new_var();
    s.add_clause(pos(a), pos(b));
    ASSERT_EQ(s.solve({neg(a)}), Solver::Result::Sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
    // Same instance, opposite assumption: no rebuild needed.
    ASSERT_EQ(s.solve({pos(a)}), Solver::Result::Sat);
    EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, AssumptionUnsatDoesNotPoisonInstance)
{
    Solver s;
    Var a = s.new_var(), b = s.new_var();
    s.add_clause(neg(a), pos(b)); // a -> b
    EXPECT_EQ(s.solve({pos(a), neg(b)}), Solver::Result::Unsat);
    // failed_assumptions is a subset of the assumptions.
    for (Lit l : s.failed_assumptions())
        EXPECT_TRUE(l == pos(a) || l == neg(b));
    EXPECT_FALSE(s.failed_assumptions().empty());
    // The instance itself is still satisfiable, and still extendable.
    EXPECT_EQ(s.solve(), Solver::Result::Sat);
    s.add_clause(pos(a));
    ASSERT_EQ(s.solve(), Solver::Result::Sat);
    EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, RootFalsifiedAssumptionFails)
{
    Solver s;
    Var a = s.new_var();
    s.add_clause(neg(a));
    EXPECT_EQ(s.solve({pos(a)}), Solver::Result::Unsat);
    ASSERT_EQ(s.failed_assumptions().size(), 1u);
    EXPECT_EQ(s.failed_assumptions()[0], pos(a));
    // Not poisoned: the instance without the assumption is Sat.
    EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(SatSolver, LearnedClausesPersistAcrossSolves)
{
    // Pigeonhole under assumptions: the refutation is learned once and
    // the instance stays reusable, so the counter only grows.
    Solver s;
    const int P = 5, H = 4;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            x[p][h] = s.new_var();
    Var gate = s.new_var(); // activation literal guarding the at-least-one rows
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause{neg(gate)};
        for (int h = 0; h < H; ++h)
            clause.push_back(pos(x[p][h]));
        s.add_clause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.add_clause(neg(x[p1][h]), neg(x[p2][h]));

    EXPECT_EQ(s.solve({pos(gate)}), Solver::Result::Unsat);
    uint64_t learned_first = s.num_learned_clauses();
    EXPECT_GT(learned_first, 0u);
    // Re-ask: still Unsat, still usable, learned count monotone.
    EXPECT_EQ(s.solve({pos(gate)}), Solver::Result::Unsat);
    EXPECT_GE(s.num_learned_clauses(), learned_first);
    // And without the gate the instance is satisfiable.
    EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

/**
 * Cross-check assumption solving against the reference semantics: on a
 * shared incremental instance, solve({a...}) must give the same
 * sat/unsat answer as a scratch solver with the assumptions added as
 * unit clauses — and a Sat model must satisfy clauses and assumptions.
 */
TEST(SatSolver, AssumptionsCrossCheckScratchUnits)
{
    Rng rng(2026);
    for (int round = 0; round < 6; ++round) {
        const int n = 40;
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 150; ++c) {
            std::vector<Lit> clause;
            int width = 2 + int(rng.below(3));
            for (int k = 0; k < width; ++k)
                clause.push_back(Lit(Var(rng.below(n)), rng.chance(0.5)));
            clauses.push_back(clause);
        }

        Solver inc;
        for (int i = 0; i < n; ++i)
            inc.new_var();
        for (const auto &clause : clauses)
            inc.add_clause(clause);

        // Many assumption sets against the one incremental instance.
        for (int q = 0; q < 8; ++q) {
            std::vector<Lit> assumptions;
            for (int k = 0; k < 3; ++k)
                assumptions.push_back(
                    Lit(Var(rng.below(n)), rng.chance(0.5)));

            Solver scratch;
            for (int i = 0; i < n; ++i)
                scratch.new_var();
            for (const auto &clause : clauses)
                scratch.add_clause(clause);
            bool scratch_ok = true;
            for (Lit l : assumptions)
                scratch_ok = scratch.add_clause(l) && scratch_ok;
            auto want = !scratch_ok ? Solver::Result::Unsat
                                    : scratch.solve();

            auto got = inc.solve(assumptions);
            ASSERT_EQ(got, want) << "round " << round << " query " << q;

            if (got == Solver::Result::Sat) {
                for (Lit l : assumptions)
                    EXPECT_EQ(inc.model_value(l.var()), !l.sign());
                for (const auto &clause : clauses) {
                    bool sat = false;
                    for (Lit l : clause)
                        if (inc.model_value(l.var()) != l.sign())
                            sat = true;
                    EXPECT_TRUE(sat);
                }
            } else {
                // The failed set must itself be unsat as unit clauses.
                Solver check;
                for (int i = 0; i < n; ++i)
                    check.new_var();
                for (const auto &clause : clauses)
                    check.add_clause(clause);
                bool consistent = true;
                for (Lit l : inc.failed_assumptions()) {
                    EXPECT_TRUE(std::find(assumptions.begin(),
                                          assumptions.end(),
                                          l) != assumptions.end());
                    consistent = check.add_clause(l) && consistent;
                }
                if (consistent) {
                    EXPECT_EQ(check.solve(), Solver::Result::Unsat);
                }
            }
        }
    }
}

/** Helper: a random CNF over @p n vars, widths 2-4, loaded into @p s. */
std::vector<std::vector<Lit>>
random_cnf(Rng &rng, Solver &s, int n, int m)
{
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < n; ++i)
        s.new_var();
    for (int c = 0; c < m; ++c) {
        std::vector<Lit> clause;
        int width = 2 + int(rng.below(3));
        for (int k = 0; k < width; ++k)
            clause.push_back(Lit(Var(rng.below(n)), rng.chance(0.5)));
        clauses.push_back(clause);
        s.add_clause(clause);
    }
    return clauses;
}

/**
 * Cross-check solve_batch against the reference semantics: each set's
 * verdict must equal an *independent* solver answering that set alone
 * (verdicts are semantic; only the spend depends on batching).
 */
TEST(SatSolver, SolveBatchMatchesIndependentSolves)
{
    Rng rng(909);
    for (int round = 0; round < 6; ++round) {
        Solver batch_solver;
        auto clauses = random_cnf(rng, batch_solver, 40, 150);

        std::vector<std::vector<Lit>> sets;
        for (int q = 0; q < 10; ++q) {
            std::vector<Lit> set;
            for (int k = 0; k < 3; ++k)
                set.push_back(Lit(Var(rng.below(40)), rng.chance(0.5)));
            sets.push_back(set);
        }

        auto outcomes = batch_solver.solve_batch(sets);
        ASSERT_EQ(outcomes.size(), sets.size());

        for (size_t q = 0; q < sets.size(); ++q) {
            Solver ref;
            for (int i = 0; i < 40; ++i)
                ref.new_var();
            for (const auto &clause : clauses)
                ref.add_clause(clause);
            auto want = ref.solve(sets[q]);
            EXPECT_EQ(outcomes[q].result, want)
                << "round " << round << " set " << q;
            if (outcomes[q].result == Solver::Result::Unsat) {
                // The failed subset (empty when the instance is unsat
                // outright) must come from this set.
                for (Lit l : outcomes[q].failed)
                    EXPECT_TRUE(std::find(sets[q].begin(), sets[q].end(),
                                          l) != sets[q].end());
            }
        }

        // The most recent Sat set's model stays readable.
        for (size_t q = sets.size(); q-- > 0;) {
            if (outcomes[q].result != Solver::Result::Sat)
                continue;
            for (Lit l : sets[q])
                EXPECT_EQ(batch_solver.model_value(l.var()), !l.sign());
            for (const auto &clause : clauses) {
                bool sat = false;
                for (Lit l : clause)
                    if (batch_solver.model_value(l.var()) != l.sign())
                        sat = true;
                EXPECT_TRUE(sat);
            }
            break;
        }
    }
}

TEST(SatSolver, SolveBatchSharedBudgetSkipsRemainder)
{
    // Hard gated pigeonhole rows: a whole-batch conflict budget small
    // enough to starve the first set must report the remaining sets
    // Unknown with zero attributed spend.
    Solver s;
    const int P = 9, H = 8;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            x[p][h] = s.new_var();
    Var gate = s.new_var();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause{neg(gate)};
        for (int h = 0; h < H; ++h)
            clause.push_back(pos(x[p][h]));
        s.add_clause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.add_clause(neg(x[p1][h]), neg(x[p2][h]));

    std::vector<std::vector<Lit>> sets{{pos(gate)}, {pos(gate)},
                                       {pos(gate)}};
    auto outcomes = s.solve_batch(sets, /*conflict_budget=*/40);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].result, Solver::Result::Unknown);
    for (size_t q = 1; q < outcomes.size(); ++q) {
        EXPECT_EQ(outcomes[q].result, Solver::Result::Unknown);
        EXPECT_EQ(outcomes[q].conflicts, 0);
    }
}

TEST(SatSolver, AdderEquivalenceUnsat)
{
    // Miter of two structurally different 1-bit full adders: proving
    // them equivalent is a compact end-to-end UNSAT exercise.
    Solver s;
    Var a = s.new_var(), b = s.new_var(), c = s.new_var();

    auto mk_xor = [&](Var x, Var y) {
        Var o = s.new_var();
        s.add_clause(neg(o), pos(x), pos(y));
        s.add_clause(neg(o), neg(x), neg(y));
        s.add_clause(pos(o), pos(x), neg(y));
        s.add_clause(pos(o), neg(x), pos(y));
        return o;
    };
    // Version 1: sum = (a^b)^c.
    Var s1 = mk_xor(mk_xor(a, b), c);
    // Version 2: sum = a^(b^c).
    Var s2 = mk_xor(a, mk_xor(b, c));
    // Miter: s1 != s2 must be unsatisfiable.
    Var diff = mk_xor(s1, s2);
    s.add_clause(pos(diff));
    EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

} // namespace
} // namespace vega::sat
