#include "formal/bmc.h"

#include "formal/cover_batch.h"

namespace vega::formal {

const char *
bmc_status_name(BmcStatus status)
{
    switch (status) {
      case BmcStatus::Covered:     return "covered";
      case BmcStatus::Unreachable: return "unreachable";
      case BmcStatus::Timeout:     return "timeout";
    }
    return "?";
}

BmcResult
check_cover(const Netlist &nl, NetId target, const BmcOptions &opts)
{
    CoverBatch batch(nl, opts);
    CoverTargetSpec spec;
    spec.target = target;
    spec.state_equalities = opts.state_equalities;
    batch.add_target(std::move(spec));
    batch.run();
    return batch.result(0);
}

} // namespace vega::formal
