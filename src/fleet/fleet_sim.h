/**
 * @file
 * Mission-mode fleet simulator (the ROADMAP "millions of devices"
 * deployment question): does the generated library, integrated under a
 * production overhead budget, catch aging faults before they corrupt
 * application data — across a heterogeneous population?
 *
 * Each device is a pure function of (fleet seed, device id): a
 * splitmix64 stream derives its operating corner, workload mix,
 * initial age, per-epoch duty-cycle jitter, fault onset, and the
 * scheduler's draws, so a run is bit-reproducible at any thread count.
 *
 * Per epoch, a device:
 *  1. draws its duty cycle around the mix mean and accrues aging at
 *     `years_per_epoch × corner.stress × mix.stress × duty`;
 *  2. rolls fault onset against the aging hazard
 *     `base_hazard × stress × (1 + age²/25)` (a polynomial wearout
 *     curve — pure arithmetic, no libm, so every platform agrees
 *     bit-for-bit). Onset picks a fault class from the characterized
 *     FaultMatrix: uniformly for organic wear, or concentrated on the
 *     attack's target pair for adversarial devices (arXiv 2508.16868);
 *  3. runs its scheduler slots round-robin over the suite, each slot
 *     dispatching the next test with the §3.4.2 budget-derived
 *     probability p, charging each dispatched test's cycle cost
 *     against the overhead account and consulting the matrix for the
 *     detection outcome. An epoch's dispatches are thus a window of the
 *     suite starting at the device's cursor, so the epoch is computed
 *     in closed form: with the gate open (p = 1) every slot dispatches
 *     up to the first test that flags the fault, found by scanning the
 *     class's per_test row from the cursor; with the gate throttled
 *     (p < 1) the device draws one chance(p) per slot from its
 *     scheduler stream and counts dispatches. Cycles come from prefix
 *     sums over two suite passes;
 *  4. if the fault corrupts the representative workload, rolls the
 *     mix's corruption rate; a corruption event lands silently unless
 *     a detection fired earlier in the epoch (position ordering —
 *     those become `prevented_corruptions`).
 *
 * Detection retires the device from the mission (it is pulled for
 * repair), which is why fleet runs quote device-epochs actually
 * simulated rather than devices × epochs.
 */
#pragma once

#include <vector>

#include "common/error.h"
#include "fleet/config.h"
#include "fleet/device.h"
#include "fleet/fault_matrix.h"
#include "fleet/report.h"

namespace vega::fleet {

/**
 * Simulate one device's whole mission under the validated config
 * @p cfg. Everything the device does derives from campaign-style
 * stream roots of (cfg.seed, id). Derives the run's constants (catalog
 * weights, gate probability, cycle prefix sums) on every call;
 * run_fleet derives them once per run.
 */
DeviceOutcome simulate_device(const FleetConfig &cfg,
                              const FaultMatrix &matrix, uint64_t id);

/**
 * Run the whole fleet over @p cfg.threads workers and aggregate: each
 * 2048-device chunk folds into its own partial report, and the
 * partials merge in id order. The config is validated here; so is the
 * matrix, whose widths and cached suite_cycles / detecting_tests must
 * agree with its tables (InvalidArgument otherwise). Timing fields are
 * filled from the wall clock; everything else in the report is
 * deterministic.
 */
Expected<FleetReport> run_fleet(const FleetConfig &cfg,
                                const FaultMatrix &matrix);

} // namespace vega::fleet
