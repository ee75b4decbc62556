/**
 * @file
 * Structured results of a mission-mode fleet run.
 *
 * The report aggregates per-device outcomes into fleet-wide
 * distributions: detection-latency percentiles (slots and epochs,
 * via obs::histogram_quantile over fixed buckets), a realized-overhead
 * histogram checked against the configured budget, miss rates grouped
 * by corner / workload mix / initial-age band, and the adversarial
 * wearout-attack section with its per-device
 * detection-before-corruption outcomes.
 *
 * Everything except the `timing` object is a pure function of
 * (config, fault matrix), so to_json(false) is byte-identical across
 * runs and thread counts. vega_fleet writes it to BENCH_fleet.json;
 * FleetSim.SameSeedIsByteIdenticalAtAnyThreadCount and
 * FleetSim.ReportMatchesReference pin its bytes across thread counts
 * and against the per-slot reference fleet.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/report.h"
#include "fleet/config.h"
#include "fleet/device.h"
#include "fleet/fault_matrix.h"

namespace vega::fleet {

/** Shared per-group aggregate (corner / mix / age band). */
struct GroupStats
{
    std::string name;
    uint64_t devices = 0;
    uint64_t faulty = 0;   ///< fault onset during the mission
    uint64_t detected = 0;
    uint64_t missed = 0;   ///< >= 1 silent corruption before detection
    uint64_t silent_corruptions = 0; ///< events, not devices

    double detection_rate() const
    {
        return faulty ? double(detected) / double(faulty) : 0.0;
    }
    double miss_rate() const
    {
        return faulty ? double(missed) / double(faulty) : 0.0;
    }
};

/** One adversarial device's mission outcome (report per-device rows). */
struct AdversarialOutcome
{
    uint64_t id = 0;
    uint32_t onset_epoch = 0;
    size_t pair_index = 0;
    bool detected = false;
    runtime::Detection kind = runtime::Detection::None;
    uint32_t detect_epoch = 0;
    uint64_t slots_to_detect = 0;
    uint32_t corruptions = 0;
    uint32_t prevented_corruptions = 0;
    /** "detected-before-corruption" | "silently-corrupted" | "latent" */
    const char *outcome = "latent";
};

/** A rendered histogram: bucket bounds, counts, and percentiles. */
struct Distribution
{
    std::vector<double> bounds;
    std::vector<uint64_t> buckets; ///< bounds.size() + 1 (overflow)
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;

    double mean() const { return count ? sum / double(count) : 0.0; }
};

/** Wall-clock measurements — excluded from deterministic JSON. */
struct FleetTiming
{
    /** run_fleet alone: the device pass and the report fold. */
    double wall_seconds = 0.0;
    double device_epochs_per_sec = 0.0;
    size_t threads = 1;
    uint64_t steals = 0;
    /** Stages before run_fleet, filled by a caller that times them
     *  (vega_fleet); 0 otherwise. */
    double workflow_seconds = 0.0;
    double matrix_seconds = 0.0;
};

struct FleetReport
{
    // Echo of the configuration and matrix that produced the report.
    std::string module;
    uint64_t seed = 0;
    uint64_t num_devices = 0;
    uint32_t epochs = 0;
    uint64_t slots_per_epoch = 0;
    double overhead_budget = 0.0;
    std::string policy;
    size_t suite_size = 0;
    size_t num_pairs = 0;
    size_t fault_classes = 0;
    size_t detectable_classes = 0;
    size_t corrupting_classes = 0;

    // Fleet totals.
    uint64_t device_epochs = 0;
    uint64_t slots = 0;
    uint64_t tests_dispatched = 0;
    uint64_t test_cycles = 0;
    uint64_t app_cycles = 0;
    uint64_t faulty_devices = 0;
    uint64_t detectable_faulty_devices = 0;
    uint64_t detected_devices = 0;
    uint64_t missed_devices = 0; ///< >= 1 silent corruption
    uint64_t silent_corruptions = 0;
    uint64_t prevented_corruptions = 0;
    uint64_t detected_before_any_corruption = 0;
    campaign::DetectionHistogram detections; ///< detected devices

    // Distributions.
    Distribution latency_slots;  ///< detected devices, slots from onset
    Distribution latency_epochs; ///< detected devices, epochs from onset
    Distribution overhead;       ///< all devices, realized overhead

    // Grouped miss rates.
    std::vector<GroupStats> per_corner;
    std::vector<GroupStats> per_mix;
    std::vector<GroupStats> per_age; ///< by initial-age band

    // Adversarial wearout-attack scenario.
    uint64_t adversarial_devices = 0;
    uint64_t adversarial_faulty = 0;
    uint64_t adversarial_detected = 0;
    uint64_t adversarial_detected_before_corruption = 0;
    uint64_t adversarial_silently_corrupted = 0;
    /** Faulty adversarial devices, by id, capped by the config (the
     *  report carries reported vs total so truncation is explicit). */
    std::vector<AdversarialOutcome> adversarial_outcomes;
    uint64_t adversarial_outcomes_total = 0;

    FleetTiming timing;

    double detection_rate() const
    {
        return detectable_faulty_devices
                   ? double(detected_devices) /
                         double(detectable_faulty_devices)
                   : 0.0;
    }
    double mean_overhead() const { return overhead.mean(); }

    /** Deterministic unless @p include_timing adds the wall clock. */
    std::string to_json(bool include_timing = true) const;
};

/*
 * The device pass folds in chunks of consecutive ids. Each chunk starts
 * from empty_report(), takes its devices through fold_device(), and the
 * chunks then merge_report() into one in id order; finish_report()
 * renders the merged buckets.
 */

/**
 * A report that echoes @p cfg and @p matrix with every count at zero:
 * named group rows and empty distributions over the report's bucket
 * bounds.
 */
FleetReport empty_report(const FleetConfig &cfg, const FaultMatrix &matrix);

/**
 * Fold device @p d into @p r: totals, group rows, distribution buckets
 * (not the overhead sum), and its adversarial row while @p r holds
 * fewer than the configured cap.
 */
void fold_device(FleetReport &r, const FleetConfig &cfg,
                 const FaultMatrix &matrix, const DeviceOutcome &d);

/**
 * Add @p next, the fold of the devices that follow @p r's, into @p r.
 * Adversarial rows append in order up to @p adversarial_cap.
 */
void merge_report(FleetReport &r, const FleetReport &next,
                  size_t adversarial_cap);

/**
 * Fill the distributions' percentiles from their buckets, and the
 * overhead sum from @p overheads, every device's realized overhead in
 * id order (a double sum, so its order is part of the report's bytes).
 */
void finish_report(FleetReport &r, const std::vector<double> &overheads);

} // namespace vega::fleet
