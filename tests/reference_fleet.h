/**
 * @file
 * Reference fleet simulator for the fleet tests.
 *
 * Slot by slot: every device runs its scheduler slots through
 * runtime::Scheduler (the probabilistic policy at the §3.4.2
 * budget-derived dispatch probability), consulting the matrix for each
 * dispatched test, and the whole population is folded serially, in id
 * order, through local obs::Histogram accumulators. No closed-form
 * epoch, no per-run tables, no per-chunk partials — so its outcomes and
 * its report are an independent oracle for fleet::simulate_device and
 * fleet::run_fleet.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/config.h"
#include "fleet/device.h"
#include "fleet/fault_matrix.h"
#include "fleet/report.h"

namespace vega::fleet {

/**
 * Device @p id's whole mission under the validated config @p cfg, one
 * scheduler slot at a time.
 */
DeviceOutcome reference_device(const FleetConfig &cfg,
                               const FaultMatrix &matrix, uint64_t id);

/**
 * Fold per-device outcomes (indexed by id) into a report, serially and
 * in id order. Timing stays zero.
 */
FleetReport reference_aggregate(const FleetConfig &cfg,
                                const FaultMatrix &matrix,
                                const std::vector<DeviceOutcome> &outcomes);

} // namespace vega::fleet
