/**
 * @file
 * Incremental k-frame unrolling of a sequential netlist into one
 * long-lived SAT instance.
 */
#pragma once

#include <utility>
#include <vector>

#include "formal/cnf_encoder.h"
#include "netlist/netlist.h"
#include "sat/solver.h"

namespace vega::formal {

/**
 * Unrolls a netlist frame by frame into an owned, persistent solver.
 *
 * The unroller is a long-lived object: frames are appended with
 * ensure_frames()/add_frame() and every clause ever added (including
 * the solver's learned clauses) stays valid, so a deepening BMC loop
 * encodes each frame exactly once instead of re-encoding 1+2+…+K
 * frames across bounds.
 *
 * Bound-specific constraints go through *activation literals*: for a
 * cover target at frame k, cover_activation(k, target) allocates a
 * fresh literal `act` and adds the clause `¬act ∨ target@k`, so the
 * bound-k query is `solver().solve({act})` — Unsat under the
 * assumption leaves the instance reusable for bound k+1, and
 * retire(act) (the unit clause `¬act`) permanently satisfies the
 * bound's clause once it is refuted.
 *
 * Frame 0 state is either the reset state (DFF init values as unit
 * clauses) or free variables, optionally with pairwise equality
 * constraints (used to tie shadow-replica registers to their originals
 * in the inductive unreachability check, §3.3.2/§3.3.4).
 *
 * Assume nets (BmcOptions::assumes) are registered once via
 * set_assumes() before the first frame; add_frame() then pins each of
 * them to 1 in every frame it encodes, so the per-frame assume units
 * are part of the frame itself rather than re-added per bound.
 */
class Unroller
{
  public:
    /**
     * @param nl           netlist to unroll
     * @param free_initial frame-0 DFFs unconstrained instead of reset
     * @param state_equalities net pairs forced equal at frame 0
     */
    Unroller(const Netlist &nl, bool free_initial,
             const std::vector<std::pair<NetId, NetId>> &state_equalities = {});

    /**
     * Register the nets pinned to 1 in every frame. Must be called
     * before the first add_frame(); the constraint is permanent, so
     * every query on this unroller shares it.
     */
    void set_assumes(const std::vector<NetId> &assumes);

    /**
     * Restrict frames added *after* this call to cells with a non-zero
     * mask byte (cone-of-influence reduction). The mask must be
     * support-closed (see encode_combinational) and must contain every
     * assume net's cone and every net later queries will reference.
     * Callers may only shrink the mask between frames (the batched
     * engine drops a retired target's cone); growing it would leave
     * earlier frames missing logic the new cone depends on. An empty
     * mask (the default) encodes everything.
     */
    void set_cell_mask(std::vector<uint8_t> mask);

    /** Append one more frame; returns its index. */
    int add_frame();

    /** Append frames until at least @p k exist. */
    void ensure_frames(int k)
    {
        while (num_frames() < k)
            add_frame();
    }

    int num_frames() const { return static_cast<int>(frames_.size()); }

    /**
     * Activation literal for the cover clause `target@frame`: allocates
     * `act` and adds `¬act ∨ target@frame` on first use, and returns
     * the cached literal on repeat calls (so an escalated retry of the
     * same bound reuses the same clause). The frame must already exist.
     */
    sat::Lit cover_activation(int frame, NetId target);

    /**
     * Activation literal for a *disjunctive* cover clause
     * `term_0 ∨ term_1 ∨ …` where each term is net\@frame: adds
     * `¬act ∨ term_0 ∨ …` on first use and returns the cached literal
     * on repeat calls. The batched engine's per-target form of the
     * free-state check's `target@0 ∨ target@1` clause.
     */
    sat::Lit
    clause_activation(const std::vector<std::pair<int, NetId>> &terms);

    /**
     * Activation literal gating a group of frame-0 state equalities:
     * under the returned literal, every (a, b) pair is constrained
     * equal at frame 0; with the literal free the group is vacuous.
     * Lets one free-initial instance carry each batched target's own
     * shadow-consistency strengthening. Frame 0 must already exist and
     * the unroller must be free-initial.
     */
    sat::Lit equality_activation(
        const std::vector<std::pair<NetId, NetId>> &pairs);

    /**
     * Permanently disable an activation literal (unit clause `¬act`),
     * satisfying its cover clause. Call after the bound is refuted so
     * the dead clause cannot pollute later propagation.
     */
    void retire(sat::Lit act) { solver_.add_clause(~act); }

    sat::Solver &solver() { return solver_; }

    /** Variable of @p net at @p frame. */
    sat::Var var(int frame, NetId net) const
    {
        return frames_[frame].net_var[net];
    }

    /** Model value of @p net at @p frame (after a Sat result). */
    bool value(int frame, NetId net) const
    {
        return solver_.model_value(var(frame, net));
    }

  private:
    const Netlist &nl_;
    sat::Solver solver_;
    std::vector<FrameVars> frames_;
    bool free_initial_;
    std::vector<std::pair<NetId, NetId>> state_equalities_;
    std::vector<NetId> assumes_;
    std::vector<uint8_t> cell_mask_; ///< empty = encode all cells

    struct CoverAct
    {
        int frame;
        NetId target;
        sat::Lit act;
    };
    std::vector<CoverAct> cover_acts_;

    struct ClauseAct
    {
        std::vector<std::pair<int, NetId>> terms;
        sat::Lit act;
    };
    std::vector<ClauseAct> clause_acts_;
};

} // namespace vega::formal
