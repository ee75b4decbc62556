/**
 * @file
 * Mission-mode fleet simulation configuration.
 *
 * A fleet run instantiates a population of simulated device instances —
 * heterogeneous in aging age, operating corner, duty cycle, and
 * workload mix — each running the generated test library round-robin
 * under a per-device overhead budget (the §3.4.2 probabilistic gating:
 * each slot dispatches the next suite test with a budget-derived
 * probability). Configuration problems surface as
 * vega::Expected errors, never as throws: a fleet service must reject
 * a bad request, not crash on it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "rtl/module.h"

namespace vega::fleet {

/** An operating corner a slice of the fleet runs at. */
struct CornerSpec
{
    std::string name;
    /** Junction temperature, informational (report grouping key). */
    double temp_c = 25.0;
    /** Aging-acceleration multiplier relative to the typical corner. */
    double stress = 1.0;
    /** Population sampling weight (relative, not normalized). */
    double weight = 1.0;
};

/** A workload profile a slice of the fleet runs. */
struct WorkloadMix
{
    std::string name;
    /** Mean fraction of an epoch the functional unit is active. */
    double duty = 0.5;
    /** Multiplier on the per-epoch fault hazard (path stress). */
    double stress = 1.0;
    /**
     * P(the application exercises the broken path during an epoch with
     * an active corrupting fault) — the silent-corruption rate.
     */
    double corruption_rate = 0.2;
    double weight = 1.0;
    /** Wearout-attack profile (arXiv 2508.16868): stress concentrated
     *  on one path class instead of spread across the unit. */
    bool adversarial = false;
    /** Adversarial only: endpoint-pair class the attack concentrates
     *  on (taken modulo the lifted working set; -1 = none). */
    int target_pair = -1;
};

struct FleetConfig
{
    uint64_t seed = 1;
    /** Device instances in the population. */
    uint64_t num_devices = 250000;
    /** Mission epochs simulated per device (early exit on detection). */
    uint32_t epochs = 8;
    /** Worker threads (0 = hardware concurrency). */
    size_t threads = 1;

    /** Mission time one epoch represents. */
    double years_per_epoch = 0.5;
    /** Initial device age is uniform in [min_age_years, max_age_years]. */
    double min_age_years = 0.0;
    double max_age_years = 8.0;

    /** Per-device overhead budget (fraction of application cycles). */
    double overhead_budget = 0.01;
    /** Modeled application cycles per epoch (overhead denominator). */
    uint64_t epoch_cycles = 50000000;
    /** Scheduler slots (test opportunities) per epoch. */
    uint64_t slots_per_epoch = 32;
    /** Per-epoch fault-hazard scale (see fleet_sim.h for the model). */
    double base_hazard = 0.004;
    /** Fraction of the population running the adversarial mix. */
    double adversarial_fraction = 0.02;
    /** Cap on per-device adversarial outcomes embedded in the report
     *  (the rest are summarized; the report states the truncation). */
    size_t adversarial_report_cap = 1024;

    /** Operating corners (empty = corner_catalog() defaults). */
    std::vector<CornerSpec> corners;
    /** Workload mixes (empty = mix_catalog() defaults). */
    std::vector<WorkloadMix> mixes;
};

/** Built-in corner catalog: typ, hot, cold, burnin. */
const std::vector<CornerSpec> &corner_catalog();

/** Built-in mixes: balanced, compute, bursty + the wearout-attack. */
const std::vector<WorkloadMix> &mix_catalog();

/** Catalog lookup by name; InvalidArgument for unknown names. */
Expected<CornerSpec> find_corner(const std::string &name);

/**
 * Resolve a comma-separated corner list ("typ,hot,burnin") against the
 * catalog. Empty input, empty elements, and unknown names are
 * InvalidArgument.
 */
Expected<std::vector<CornerSpec>> parse_corner_list(const std::string &csv);

/**
 * Validate @p cfg and fill defaults (empty corners/mixes pick up the
 * catalogs). Returns the normalized config, or InvalidArgument naming
 * the offending field: zero devices/epochs/slots, probabilities or
 * fractions outside [0, 1], non-positive duty/stress/weights, an age
 * range with min > max, or a mix targeting a negative pair while
 * adversarial devices are requested.
 */
Expected<FleetConfig> validate_config(FleetConfig cfg);

} // namespace vega::fleet
