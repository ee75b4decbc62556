/**
 * @file
 * One simulated device instance of the mission-mode fleet.
 *
 * A device is a pure function of (fleet seed, device id): its corner,
 * workload mix, initial age, duty cycle, and every downstream random
 * draw derive from a private splitmix64 stream, the same discipline the
 * campaign engine uses for jobs. Fleet results are therefore keyed by
 * device id and bit-reproducible at any thread count.
 */
#pragma once

#include <cstdint>

#include "runtime/test_case.h"

namespace vega::fleet {

/**
 * Everything a device run records. The device pass folds each outcome
 * into its chunk's partial report as soon as it is simulated; only the
 * realized overhead outlives the chunk.
 */
struct DeviceOutcome
{
    uint64_t id = 0;
    uint32_t corner = 0; ///< index into FleetConfig::corners
    uint32_t mix = 0;    ///< index into FleetConfig::mixes
    bool adversarial = false;

    double age_start = 0.0; ///< years at mission start
    double age_end = 0.0;   ///< years when the run ended
    /** §3.4.2 dispatch probability after budget throttling. */
    double gate_probability = 1.0;
    /** Epochs actually simulated (detection pulls the device early). */
    uint32_t epochs_run = 0;

    // Fault lifecycle.
    bool fault = false; ///< a wearout fault onset during the mission
    uint32_t onset_epoch = 0;
    uint32_t fault_index = 0; ///< index into FaultMatrix::faults
    bool fault_corrupts = false;
    bool fault_detectable = false;

    // Detection.
    bool detected = false;
    runtime::Detection kind = runtime::Detection::None;
    uint32_t detect_epoch = 0;
    /** Scheduler slots from fault onset to the detecting dispatch. */
    uint64_t slots_to_detect = 0;

    // Scheduler / overhead accounting.
    uint64_t slots = 0;
    uint64_t tests_dispatched = 0;
    uint64_t test_cycles = 0;
    uint64_t app_cycles = 0;

    // Silent-data-corruption accounting.
    /** Epochs where the workload consumed the corrupted path while the
     *  fault was still undetected — the missed-SDC events. */
    uint32_t corruptions = 0;
    /** Corruption attempts in the detection epoch that landed *after*
     *  the detecting dispatch: the test pulled the device first. */
    uint32_t prevented_corruptions = 0;
    uint32_t first_corruption_epoch = 0;

    double realized_overhead() const
    {
        uint64_t total = app_cycles + test_cycles;
        return total ? double(test_cycles) / double(total) : 0.0;
    }
    /** The headline mission outcome for a faulty corrupting device. */
    bool detected_before_corruption() const
    {
        return detected && corruptions == 0;
    }
};

} // namespace vega::fleet
