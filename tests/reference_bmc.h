/**
 * @file
 * Reference cover solver for the formal tests.
 *
 * Every query gets a fresh Unroller and SAT instance: bound k from reset
 * on k frames, then the 1-step free-state check, then the k-induction
 * step queries at depths 2..min(kinduction_frames, max_frames). Nothing
 * is carried between queries — no activation literals, cell masks,
 * batching or clause sharing — so its verdicts and witnesses are an
 * independent oracle for formal::CoverBatch and check_cover, its
 * one-target wrapper.
 */
#pragma once

#include "formal/bmc.h"

namespace vega::formal {

/**
 * check_cover's verdict for @p target, recomputed query by query. Each
 * query gets opts.conflict_budget conflicts; the wall budget and
 * portfolio width are ignored. Fills status, frames, trace,
 * proven_by_induction and kinduction_depth.
 */
BmcResult reference_check_cover(const Netlist &nl, NetId target,
                                const BmcOptions &opts);

} // namespace vega::formal
