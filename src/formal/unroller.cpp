#include "formal/unroller.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace vega::formal {

using sat::Lit;
using sat::Var;

Unroller::Unroller(const Netlist &nl, bool free_initial,
                   const std::vector<std::pair<NetId, NetId>> &state_eqs)
    : nl_(nl), free_initial_(free_initial), state_equalities_(state_eqs)
{
}

void
Unroller::set_assumes(const std::vector<NetId> &assumes)
{
    VEGA_CHECK(frames_.empty(), "set_assumes after frames were added");
    assumes_ = assumes;
}

void
Unroller::set_cell_mask(std::vector<uint8_t> mask)
{
    VEGA_CHECK(mask.empty() ||
                   mask.size() == static_cast<size_t>(nl_.num_cells()),
               "cell mask size");
    cell_mask_ = std::move(mask);
}

int
Unroller::add_frame()
{
    static obs::Counter &frames_unrolled =
        obs::counter("bmc.frames_unrolled");
    frames_unrolled.inc();

    const std::vector<uint8_t> *mask =
        cell_mask_.empty() ? nullptr : &cell_mask_;

    FrameVars frame;
    frame.net_var.assign(nl_.num_nets(), -1);
    int f = static_cast<int>(frames_.size());

    // Primary inputs: fresh free variables every frame.
    for (NetId n : nl_.primary_inputs())
        frame.net_var[n] = solver_.new_var();

    // DFF outputs.
    for (CellId c : nl_.dffs()) {
        if (mask && !(*mask)[c])
            continue;
        const Cell &cell = nl_.cell(c);
        if (f == 0) {
            Var v = solver_.new_var();
            frame.net_var[cell.out] = v;
            if (!free_initial_)
                solver_.add_clause(Lit(v, !cell.init));
        } else {
            // Alias: Q at frame f is D at frame f-1.
            frame.net_var[cell.out] = frames_[f - 1].net_var[cell.in[0]];
            VEGA_CHECK(frame.net_var[cell.out] != -1,
                       "cell mask dropped the D cone of a masked-in DFF");
        }
    }

    encode_combinational(nl_, solver_, frame, mask);

    if (f == 0 && free_initial_) {
        for (const auto &[a, b] : state_equalities_) {
            VEGA_CHECK(frame.net_var[a] != -1 && frame.net_var[b] != -1,
                       "state-equality net outside the cell mask");
            Lit la(frame.net_var[a], false), lb(frame.net_var[b], false);
            solver_.add_clause(~la, lb);
            solver_.add_clause(la, ~lb);
        }
    }

    // Assume nets hold in every frame; a permanent part of the frame.
    for (NetId a : assumes_) {
        VEGA_CHECK(frame.net_var[a] != -1,
                   "assume net outside the cell mask");
        solver_.add_clause(Lit(frame.net_var[a], false));
    }

    frames_.push_back(std::move(frame));
    return f;
}

sat::Lit
Unroller::cover_activation(int frame, NetId target)
{
    VEGA_CHECK(frame < num_frames(), "cover_activation beyond last frame");
    for (const CoverAct &ca : cover_acts_)
        if (ca.frame == frame && ca.target == target)
            return ca.act;
    VEGA_CHECK(var(frame, target) != -1,
               "cover target outside the cell mask");
    Lit act(solver_.new_var(), false);
    solver_.add_clause(~act, Lit(var(frame, target), false));
    cover_acts_.push_back({frame, target, act});
    return act;
}

sat::Lit
Unroller::clause_activation(const std::vector<std::pair<int, NetId>> &terms)
{
    VEGA_CHECK(!terms.empty(), "clause_activation with no terms");
    for (const ClauseAct &ca : clause_acts_)
        if (ca.terms == terms)
            return ca.act;
    Lit act(solver_.new_var(), false);
    std::vector<Lit> clause{~act};
    for (const auto &[f, n] : terms) {
        VEGA_CHECK(f < num_frames(), "clause_activation beyond last frame");
        VEGA_CHECK(var(f, n) != -1, "clause term outside the cell mask");
        clause.emplace_back(var(f, n), false);
    }
    solver_.add_clause(std::move(clause));
    clause_acts_.push_back({terms, act});
    return act;
}

sat::Lit
Unroller::equality_activation(
    const std::vector<std::pair<NetId, NetId>> &pairs)
{
    VEGA_CHECK(free_initial_ && num_frames() > 0,
               "equality_activation needs a free-initial frame 0");
    Lit g(solver_.new_var(), false);
    for (const auto &[a, b] : pairs) {
        VEGA_CHECK(var(0, a) != -1 && var(0, b) != -1,
                   "equality net outside the cell mask");
        Lit la(var(0, a), false), lb(var(0, b), false);
        solver_.add_clause(~g, ~la, lb);
        solver_.add_clause(~g, la, ~lb);
    }
    return g;
}

} // namespace vega::formal
