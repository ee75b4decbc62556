#include "reference_bmc.h"

#include <algorithm>

#include "formal/unroller.h"

namespace vega::formal {
namespace {

using sat::Lit;
using Result = sat::Solver::Result;

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

Result
solve(Unroller &unroll, const BmcOptions &opts)
{
    return unroll.solver().solve(opts.conflict_budget);
}

} // namespace

BmcResult
reference_check_cover(const Netlist &nl, NetId target,
                      const BmcOptions &opts)
{
    BmcResult r;

    // Phase 1: can the target rise at frame k-1 from reset? Shortest
    // bound first.
    for (int k = 1; k <= opts.max_frames; ++k) {
        Unroller unroll(nl, /*free_initial=*/false);
        unroll.set_assumes(opts.assumes);
        unroll.ensure_frames(k);
        unroll.solver().add_clause(Lit(unroll.var(k - 1, target), false));
        Result res = solve(unroll, opts);
        if (res == Result::Unsat)
            continue;
        r.status = res == Result::Sat ? BmcStatus::Covered
                                      : BmcStatus::Timeout;
        r.frames = k;
        if (res == Result::Sat)
            r.trace = extract_trace(nl, unroll, k);
        return r;
    }

    // Phase 2: from any shadow-consistent state, can one more cycle
    // raise the target? UNSAT covers every reachable state.
    {
        Unroller unroll(nl, /*free_initial=*/true, opts.state_equalities);
        unroll.set_assumes(opts.assumes);
        unroll.ensure_frames(2);
        unroll.solver().add_clause(Lit(unroll.var(0, target), false),
                                   Lit(unroll.var(1, target), false));
        Result res = solve(unroll, opts);
        if (res == Result::Unsat) {
            r.status = BmcStatus::Unreachable;
            r.proven_by_induction = true;
            return r;
        }
        if (res == Result::Unknown)
            return r; // Timeout
    }

    // Phase 3: k-induction step queries — target low for frames
    // 0..k-1 of a free, shadow-consistent run, high at frame k.
    int max_depth = std::min(opts.kinduction_frames, opts.max_frames);
    for (int k = 2; k <= max_depth; ++k) {
        Unroller unroll(nl, /*free_initial=*/true, opts.state_equalities);
        unroll.set_assumes(opts.assumes);
        unroll.ensure_frames(k + 1);
        for (int j = 0; j < k; ++j)
            unroll.solver().add_clause(Lit(unroll.var(j, target), true));
        unroll.solver().add_clause(Lit(unroll.var(k, target), false));
        Result res = solve(unroll, opts);
        if (res == Result::Unsat) {
            r.status = BmcStatus::Unreachable;
            r.proven_by_induction = true;
            r.kinduction_depth = k;
            return r;
        }
        if (res == Result::Unknown)
            break; // starved: keep the bounded verdict
    }

    // Bound exhausted without a proof.
    r.status = BmcStatus::Unreachable;
    r.frames = opts.max_frames;
    return r;
}

} // namespace vega::formal
