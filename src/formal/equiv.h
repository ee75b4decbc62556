/**
 * @file
 * Sequential equivalence checking.
 *
 * Builds a miter of two netlists with identical port interfaces (shared
 * inputs, XOR-compared outputs) and asks the BMC engine whether any
 * input sequence from reset can make their outputs differ. Used to
 * prove that instrumentation preserves a module's original behaviour
 * (shadow replicas must not disturb the real outputs) and to exhibit
 * concrete activating inputs for failing netlists.
 */
#pragma once

#include "formal/bmc.h"
#include "netlist/netlist.h"

namespace vega::formal {

enum class EquivStatus { Equivalent, Different, Timeout };

const char *equiv_status_name(EquivStatus status);

struct EquivResult
{
    EquivStatus status = EquivStatus::Timeout;
    /** Different only: inputs + both output sets, diff in last cycle. */
    Waveform counterexample;
    int frames = 0;
    /** Equivalence proven by the free-state check (vs bound exhaustion). */
    bool proven_by_induction = false;
};

/**
 * Compare @p a and @p b, which must declare identical input buses and
 * identical output bus names/widths. @p opts bounds the search (frames,
 * budgets, k-induction depth) of the miter's check_cover; the
 * assume/state-equality fields are ignored.
 */
EquivResult check_equivalence(const Netlist &a, const Netlist &b,
                              const BmcOptions &opts = {});

/**
 * Splice a copy of @p src into @p dst. Primary inputs of @p src bind to
 * the given nets of @p dst (keyed by src NetId); all other nets and all
 * cells are duplicated with @p suffix appended to their names. Returns
 * the src-net to dst-net mapping. Exposed for building custom miters.
 */
std::vector<NetId>
splice_netlist(Netlist &dst, const Netlist &src,
               const std::vector<std::pair<NetId, NetId>> &input_binding,
               const std::string &suffix);

} // namespace vega::formal
