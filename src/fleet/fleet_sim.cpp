#include "fleet/fleet_sim.h"

#include <algorithm>
#include <chrono>

#include "campaign/job.h"
#include "campaign/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::fleet {

namespace {

/** What every device of one run reads, computed once per run. */
struct RunConstants
{
    std::vector<double> corner_weights;
    double corner_total = 0.0;
    /** Organic devices sample mixes by weight; adversarial ones do not. */
    std::vector<double> mix_weights;
    double mix_total = 0.0;
    int adversarial_mix = -1;
    /** §3.4.2 dispatch probability after budget throttling. */
    double gate = 1.0;
    size_t constants_per_pair = 0;
    /** Cycles of the first i tests of two back-to-back suite passes,
     *  so a window of fewer than n tests from cursor c costs
     *  prefix[c + len] - prefix[c]. */
    std::vector<uint64_t> prefix;
};

/**
 * Weighted index pick; weights need not be normalized. @p total is
 * their sum in index order.
 */
size_t
weighted_pick(Rng &rng, const std::vector<double> &weights, double total)
{
    double r = rng.uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0)
            return i;
    }
    return weights.size() - 1;
}

/**
 * §3.4.2: when the full-rate overhead estimate exceeds the budget,
 * dispatch probabilistically at budget/estimate.
 */
double
gate_probability(const FleetConfig &cfg, const FaultMatrix &matrix)
{
    double est = double(cfg.slots_per_epoch) *
                 matrix.mean_test_cycles() / double(cfg.epoch_cycles);
    if (est <= cfg.overhead_budget || est <= 0.0)
        return 1.0;
    return cfg.overhead_budget / est;
}

RunConstants
run_constants(const FleetConfig &cfg, const FaultMatrix &matrix)
{
    RunConstants k;
    for (const CornerSpec &c : cfg.corners) {
        k.corner_weights.push_back(c.weight);
        k.corner_total += c.weight;
    }
    for (size_t i = 0; i < cfg.mixes.size(); ++i) {
        const WorkloadMix &m = cfg.mixes[i];
        if (m.adversarial && k.adversarial_mix < 0)
            k.adversarial_mix = int(i);
        k.mix_weights.push_back(m.adversarial ? 0.0 : m.weight);
        k.mix_total += k.mix_weights.back();
    }
    k.gate = gate_probability(cfg, matrix);
    k.constants_per_pair =
        matrix.num_pairs ? matrix.faults.size() / matrix.num_pairs : 0;
    size_t n = matrix.num_tests;
    k.prefix.assign(2 * n + 1, 0);
    for (size_t i = 0; i < 2 * n; ++i)
        k.prefix[i + 1] = k.prefix[i] + matrix.test_cycles[i % n];
    return k;
}

/**
 * Per-epoch fault-onset probability. Polynomial wearout curve: the
 * hazard grows with the square of accumulated (stress-accelerated)
 * age, normalized so a typical device crosses ~2x base hazard around
 * year 7. Pure arithmetic keeps it bit-identical across platforms.
 */
double
onset_hazard(double base, double stress, double age_years)
{
    double h = base * stress * (1.0 + age_years * age_years / 25.0);
    return std::clamp(h, 0.0, 1.0);
}

/**
 * Dispatches from suite test @p cursor on through the first test of
 * @p fc that flags the fault, or 0 when none does (the suite repeats,
 * so one pass decides).
 */
uint64_t
dispatches_to_detect(const FaultClass &fc, size_t cursor)
{
    size_t n = fc.per_test.size();
    for (size_t k = 0; k < n; ++k) {
        size_t t = cursor + k < n ? cursor + k : cursor + k - n;
        if (fc.per_test[t] != runtime::Detection::None)
            return k + 1;
    }
    return 0;
}

DeviceOutcome
device_mission(const FleetConfig &cfg, const FaultMatrix &matrix,
               const RunConstants &k, uint64_t id)
{
    DeviceOutcome out;
    out.id = id;

    uint64_t stream = campaign::job_stream(cfg.seed, id);
    Rng rng(splitmix64(stream));
    Rng sched(splitmix64(stream));

    out.corner = uint32_t(
        weighted_pick(rng, k.corner_weights, k.corner_total));
    out.adversarial = k.adversarial_mix >= 0 &&
                      rng.chance(cfg.adversarial_fraction);
    out.mix = out.adversarial
                  ? uint32_t(k.adversarial_mix)
                  : uint32_t(weighted_pick(rng, k.mix_weights,
                                           k.mix_total));
    const CornerSpec &corner = cfg.corners[out.corner];
    const WorkloadMix &mix = cfg.mixes[out.mix];

    out.age_start = cfg.min_age_years +
                    rng.uniform() *
                        (cfg.max_age_years - cfg.min_age_years);
    out.age_end = out.age_start;
    out.gate_probability = k.gate;

    const uint64_t slots = cfg.slots_per_epoch;
    const size_t n = matrix.num_tests;
    const bool open_gate = k.gate >= 1.0;
    const FaultClass *fc = nullptr;
    uint64_t slots_at_onset = 0;
    size_t cursor = 0; // the round-robin's next suite test

    for (uint32_t e = 0; e < cfg.epochs; ++e) {
        out.epochs_run = e + 1;
        // Duty jitters ±25% around the mix mean epoch to epoch.
        double duty = std::clamp(
            mix.duty * (0.75 + 0.5 * rng.uniform()), 0.01, 1.0);
        double stress = corner.stress * mix.stress * duty;
        out.age_end += kYearsPerEpoch * stress;

        if (!out.fault &&
            rng.chance(onset_hazard(cfg.base_hazard, stress,
                                    out.age_end))) {
            out.fault = true;
            out.onset_epoch = e;
            slots_at_onset = out.slots;
            if (out.adversarial && mix.target_pair >= 0 &&
                k.constants_per_pair) {
                // The wearout attack concentrates stress on one path
                // class: onset always lands on the targeted pair.
                size_t pair =
                    size_t(mix.target_pair) % matrix.num_pairs;
                out.fault_index =
                    uint32_t(pair * k.constants_per_pair +
                             rng.below(k.constants_per_pair));
            } else {
                out.fault_index = uint32_t(rng.below(
                    std::max<uint64_t>(1, matrix.faults.size())));
            }
            fc = &matrix.faults[out.fault_index];
            out.fault_corrupts = fc->corrupts;
            out.fault_detectable = fc->detecting_tests > 0;
        }

        // Pre-draw this epoch's corruption attempt and its position in
        // the epoch; it is resolved against the detection position
        // after the slots run.
        bool corrupt_attempt = false;
        double corrupt_pos = 0.0;
        if (out.fault && out.fault_corrupts &&
            rng.chance(mix.corruption_rate)) {
            corrupt_attempt = true;
            corrupt_pos = rng.uniform();
        }

        // The epoch's dispatches run the suite from the cursor on; the
        // device is pulled at dispatch `hit` (0: no test flags it).
        uint64_t hit = fc ? dispatches_to_detect(*fc, cursor) : 0;
        uint64_t used = slots, dispatched = 0;
        if (open_gate) {
            dispatched = hit && hit <= slots ? hit : slots;
            used = dispatched;
        } else {
            // One draw per slot from the scheduler stream, in slot
            // order, exactly as a per-slot gate would draw.
            for (uint64_t s = 0; s < slots; ++s) {
                if (sched.chance(k.gate) && ++dispatched == hit) {
                    used = s + 1;
                    break;
                }
            }
        }
        // Whole suite passes, then the partial window from the cursor.
        uint64_t wrap = dispatched % n;
        out.slots += used;
        out.tests_dispatched += dispatched;
        out.test_cycles += dispatched / n * k.prefix[n] +
                           k.prefix[cursor + wrap] - k.prefix[cursor];
        out.app_cycles += cfg.epoch_cycles;

        double detect_pos = 2.0; // past end of epoch = no detection
        if (hit && dispatched == hit) {
            out.detected = true;
            out.kind = fc->per_test[(cursor + hit - 1) % n];
            out.detect_epoch = e;
            out.slots_to_detect = out.slots - slots_at_onset;
            detect_pos = double(used) / double(slots);
        }
        cursor = (cursor + wrap) % n;

        if (corrupt_attempt) {
            if (out.detected && detect_pos <= corrupt_pos) {
                // The detecting dispatch pulled the device before the
                // application reached the broken path.
                ++out.prevented_corruptions;
            } else {
                if (out.corruptions == 0)
                    out.first_corruption_epoch = e;
                ++out.corruptions;
            }
        }
        if (out.detected)
            break;
    }
    return out;
}

/** Cross-field consistency the closed-form epoch relies on. */
Expected<void>
check_matrix(const FaultMatrix &matrix)
{
    if (matrix.faults.empty() || matrix.num_tests == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "fleet run needs a non-empty fault matrix");
    if (matrix.test_cycles.size() != matrix.num_tests)
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix test_cycles/num_tests mismatch");
    uint64_t suite_cycles = 0;
    for (uint64_t c : matrix.test_cycles)
        suite_cycles += c;
    if (suite_cycles != matrix.suite_cycles)
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix suite_cycles is not the sum of "
                          "test_cycles");
    for (const FaultClass &f : matrix.faults) {
        if (f.per_test.size() != matrix.num_tests)
            return make_error(
                ErrorCode::InvalidArgument,
                "fault matrix per_test width mismatch");
        uint64_t flagged = uint64_t(std::count_if(
            f.per_test.begin(), f.per_test.end(),
            [](runtime::Detection d) {
                return d != runtime::Detection::None;
            }));
        if (flagged != f.detecting_tests)
            return make_error(ErrorCode::InvalidArgument,
                              "fault matrix detecting_tests disagrees "
                              "with per_test");
    }
    return {};
}

} // namespace

DeviceOutcome
simulate_device(const FleetConfig &cfg, const FaultMatrix &matrix,
                uint64_t id)
{
    return device_mission(cfg, matrix, run_constants(cfg, matrix), id);
}

Expected<FleetReport>
run_fleet(const FleetConfig &raw, const FaultMatrix &matrix)
{
    auto validated = validate_config(raw);
    if (!validated)
        return validated.error();
    const FleetConfig cfg = std::move(*validated);
    if (auto ok = check_matrix(matrix); !ok)
        return ok.error();

    VEGA_SPAN("fleet.run");
    auto t0 = std::chrono::steady_clock::now();

    const RunConstants k = run_constants(cfg, matrix);
    // Chunked fan-out: per-device work is well under a microsecond, so
    // batching keeps the pool's queue off the critical path.
    // Each chunk folds its devices into its own partial; only the
    // realized overheads, summed in id order below, outlive a chunk.
    constexpr uint64_t kChunk = 2048;
    const FleetReport blank = empty_report(cfg, matrix);
    std::vector<FleetReport> partials(
        size_t((cfg.num_devices + kChunk - 1) / kChunk), blank);
    std::vector<double> overheads(cfg.num_devices);
    campaign::ThreadPool pool(cfg.threads);
    for (size_t c = 0; c < partials.size(); ++c) {
        uint64_t lo = c * kChunk;
        uint64_t hi = std::min(cfg.num_devices, lo + kChunk);
        pool.submit([&, c, lo, hi] {
            for (uint64_t id = lo; id < hi; ++id) {
                DeviceOutcome d = device_mission(cfg, matrix, k, id);
                overheads[id] = d.realized_overhead();
                fold_device(partials[c], cfg, matrix, d);
            }
        });
    }
    pool.wait_idle();

    FleetReport report = blank;
    for (const FleetReport &part : partials)
        merge_report(report, part, cfg.adversarial_report_cap);
    finish_report(report, overheads);

    auto t1 = std::chrono::steady_clock::now();
    report.timing.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    report.timing.threads = pool.size();
    if (report.timing.wall_seconds > 0)
        report.timing.device_epochs_per_sec =
            double(report.device_epochs) / report.timing.wall_seconds;

    static obs::Counter &devices = obs::counter("fleet.devices");
    static obs::Counter &epochs = obs::counter("fleet.device_epochs");
    static obs::Counter &detections =
        obs::counter("fleet.detections");
    devices.add(cfg.num_devices);
    epochs.add(report.device_epochs);
    detections.add(report.detected_devices);
    return report;
}

} // namespace vega::fleet
