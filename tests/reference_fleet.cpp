#include "reference_fleet.h"

#include <algorithm>

#include "campaign/job.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace vega::fleet {

namespace {

/** Weighted index pick; weights need not be normalized. */
size_t
weighted_pick(Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double r = rng.uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0)
            return i;
    }
    return weights.size() - 1;
}

size_t
pick_corner(Rng &rng, const FleetConfig &cfg)
{
    std::vector<double> w(cfg.corners.size());
    for (size_t i = 0; i < w.size(); ++i)
        w[i] = cfg.corners[i].weight;
    return weighted_pick(rng, w);
}

/** Organic devices sample mixes by weight; adversarial ones do not. */
size_t
pick_mix(Rng &rng, const FleetConfig &cfg)
{
    std::vector<double> w(cfg.mixes.size());
    for (size_t i = 0; i < w.size(); ++i)
        w[i] = cfg.mixes[i].adversarial ? 0.0 : cfg.mixes[i].weight;
    return weighted_pick(rng, w);
}

int
adversarial_mix_index(const FleetConfig &cfg)
{
    for (size_t i = 0; i < cfg.mixes.size(); ++i)
        if (cfg.mixes[i].adversarial)
            return int(i);
    return -1;
}

/** §3.4.2: dispatch at budget/estimate when the estimate exceeds it. */
double
gate_probability(const FleetConfig &cfg, const FaultMatrix &matrix)
{
    double est = double(cfg.slots_per_epoch) *
                 matrix.mean_test_cycles() / double(cfg.epoch_cycles);
    if (est <= cfg.overhead_budget || est <= 0.0)
        return 1.0;
    return cfg.overhead_budget / est;
}

double
onset_hazard(double base, double stress, double age_years)
{
    double h = base * stress * (1.0 + age_years * age_years / 25.0);
    return std::clamp(h, 0.0, 1.0);
}

Distribution
render(const obs::Histogram &h)
{
    Distribution d;
    d.bounds = h.bounds();
    d.buckets.resize(d.bounds.size() + 1);
    for (size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] = h.bucket_count(i);
    d.count = h.count();
    d.sum = h.sum();
    d.p50 = h.p50();
    d.p95 = h.p95();
    d.p99 = h.p99();
    return d;
}

std::vector<double>
slot_bounds(uint64_t max_slots)
{
    std::vector<double> b;
    for (double edge = 1; edge < double(max_slots); edge *= 2)
        b.push_back(edge);
    b.push_back(double(max_slots));
    return b;
}

std::vector<double>
epoch_bounds(uint32_t epochs)
{
    std::vector<double> b;
    for (uint32_t e = 0; e < epochs; ++e)
        b.push_back(double(e));
    return b;
}

std::vector<double>
overhead_bounds(double budget)
{
    static const double kFractions[] = {0.1,  0.25, 0.5, 0.75,
                                        0.9,  1.0,  1.1, 1.5,
                                        2.0};
    std::vector<double> b;
    for (double f : kFractions)
        b.push_back(budget * f);
    return b;
}

const char *
age_band_name(size_t band)
{
    static const char *kNames[] = {"age_q1_youngest", "age_q2",
                                   "age_q3", "age_q4_oldest"};
    return kNames[band < 4 ? band : 3];
}

} // namespace

DeviceOutcome
reference_device(const FleetConfig &cfg, const FaultMatrix &matrix,
                 uint64_t id)
{
    DeviceOutcome out;
    out.id = id;

    uint64_t stream = campaign::job_stream(cfg.seed, id);
    Rng rng(splitmix64(stream));
    uint64_t sched_seed = splitmix64(stream);

    out.corner = uint32_t(pick_corner(rng, cfg));
    int adv_mix = adversarial_mix_index(cfg);
    out.adversarial =
        adv_mix >= 0 && rng.chance(cfg.adversarial_fraction);
    out.mix = out.adversarial ? uint32_t(adv_mix)
                              : uint32_t(pick_mix(rng, cfg));
    const CornerSpec &corner = cfg.corners[out.corner];
    const WorkloadMix &mix = cfg.mixes[out.mix];

    out.age_start = cfg.min_age_years +
                    rng.uniform() *
                        (cfg.max_age_years - cfg.min_age_years);
    out.age_end = out.age_start;
    out.gate_probability = gate_probability(cfg, matrix);

    runtime::Scheduler sched(matrix.num_tests,
                             runtime::SchedulePolicy::Probabilistic,
                             out.gate_probability, sched_seed);

    size_t constants_per_pair =
        matrix.num_pairs ? matrix.faults.size() / matrix.num_pairs : 0;
    const FaultClass *fc = nullptr;
    uint64_t slots_at_onset = 0;

    for (uint32_t e = 0; e < cfg.epochs; ++e) {
        out.epochs_run = e + 1;
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
                constants_per_pair) {
                size_t pair =
                    size_t(mix.target_pair) % matrix.num_pairs;
                out.fault_index =
                    uint32_t(pair * constants_per_pair +
                             rng.below(constants_per_pair));
            } else {
                out.fault_index = uint32_t(rng.below(
                    std::max<uint64_t>(1, matrix.faults.size())));
            }
            fc = &matrix.faults[out.fault_index];
            out.fault_corrupts = fc->corrupts;
            out.fault_detectable = fc->detecting_tests > 0;
        }

        bool corrupt_attempt = false;
        double corrupt_pos = 0.0;
        if (out.fault && out.fault_corrupts &&
            rng.chance(mix.corruption_rate)) {
            corrupt_attempt = true;
            corrupt_pos = rng.uniform();
        }

        double detect_pos = 2.0; // past end of epoch = no detection
        for (uint64_t s = 0; s < cfg.slots_per_epoch; ++s) {
            std::optional<size_t> t = sched.next();
            if (t)
                out.test_cycles += matrix.test_cycles[*t];
            if (out.fault && !out.detected && t &&
                fc->per_test[*t] != runtime::Detection::None) {
                out.detected = true;
                out.kind = fc->per_test[*t];
                out.detect_epoch = e;
                out.slots_to_detect = sched.slots() - slots_at_onset;
                detect_pos =
                    double(s + 1) / double(cfg.slots_per_epoch);
                break;
            }
        }
        out.slots = sched.slots();
        out.tests_dispatched = sched.dispatched();
        out.app_cycles += cfg.epoch_cycles;

        if (corrupt_attempt) {
            if (out.detected && detect_pos <= corrupt_pos) {
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

FleetReport
reference_aggregate(const FleetConfig &cfg, const FaultMatrix &matrix,
                    const std::vector<DeviceOutcome> &outcomes)
{
    FleetReport r;
    r.module = module_kind_name(matrix.module);
    r.seed = cfg.seed;
    r.num_devices = cfg.num_devices;
    r.epochs = cfg.epochs;
    r.slots_per_epoch = cfg.slots_per_epoch;
    r.overhead_budget = cfg.overhead_budget;
    r.policy = runtime::schedule_policy_name(
        runtime::SchedulePolicy::Probabilistic);
    r.suite_size = matrix.num_tests;
    r.num_pairs = matrix.num_pairs;
    r.fault_classes = matrix.faults.size();
    r.detectable_classes = matrix.detectable_classes();
    r.corrupting_classes = matrix.corrupting_classes();

    uint64_t max_slots =
        std::max<uint64_t>(1, cfg.slots_per_epoch * cfg.epochs);
    obs::Histogram lat_slots(slot_bounds(max_slots));
    obs::Histogram lat_epochs(epoch_bounds(cfg.epochs));
    obs::Histogram overhead(overhead_bounds(cfg.overhead_budget));

    r.per_corner.resize(cfg.corners.size());
    for (size_t i = 0; i < cfg.corners.size(); ++i)
        r.per_corner[i].name = cfg.corners[i].name;
    r.per_mix.resize(cfg.mixes.size());
    for (size_t i = 0; i < cfg.mixes.size(); ++i)
        r.per_mix[i].name = cfg.mixes[i].name;
    constexpr size_t kAgeBands = 4;
    double age_span =
        std::max(1e-9, cfg.max_age_years - cfg.min_age_years);
    r.per_age.resize(kAgeBands);
    for (size_t i = 0; i < kAgeBands; ++i)
        r.per_age[i].name = age_band_name(i);

    for (const DeviceOutcome &d : outcomes) {
        r.device_epochs += d.epochs_run;
        r.slots += d.slots;
        r.tests_dispatched += d.tests_dispatched;
        r.test_cycles += d.test_cycles;
        r.app_cycles += d.app_cycles;
        overhead.observe(d.realized_overhead());

        size_t band = size_t((d.age_start - cfg.min_age_years) /
                             age_span * double(kAgeBands));
        band = std::min(band, kAgeBands - 1);
        GroupStats *groups[3] = {nullptr, nullptr, &r.per_age[band]};
        if (d.corner < r.per_corner.size())
            groups[0] = &r.per_corner[d.corner];
        if (d.mix < r.per_mix.size())
            groups[1] = &r.per_mix[d.mix];
        for (GroupStats *g : groups)
            if (g)
                ++g->devices;

        if (d.adversarial)
            ++r.adversarial_devices;
        if (!d.fault)
            continue;

        ++r.faulty_devices;
        if (d.fault_detectable)
            ++r.detectable_faulty_devices;
        r.silent_corruptions += d.corruptions;
        r.prevented_corruptions += d.prevented_corruptions;
        if (d.corruptions)
            ++r.missed_devices;
        if (d.detected) {
            ++r.detected_devices;
            lat_slots.observe(double(d.slots_to_detect));
            lat_epochs.observe(double(d.detect_epoch - d.onset_epoch));
            if (d.corruptions == 0)
                ++r.detected_before_any_corruption;
            switch (d.kind) {
              case runtime::Detection::Mismatch:
                ++r.detections.mismatch;
                break;
              case runtime::Detection::Stall:
                ++r.detections.stall;
                break;
              case runtime::Detection::TagAnomaly:
                ++r.detections.tag_anomaly;
                break;
              case runtime::Detection::WrongAddress:
                ++r.detections.wrong_address;
                break;
              case runtime::Detection::None:
                break;
            }
        }
        for (GroupStats *g : groups) {
            if (!g)
                continue;
            ++g->faulty;
            g->silent_corruptions += d.corruptions;
            if (d.detected)
                ++g->detected;
            if (d.corruptions)
                ++g->missed;
        }

        if (d.adversarial) {
            ++r.adversarial_faulty;
            ++r.adversarial_outcomes_total;
            if (d.detected)
                ++r.adversarial_detected;
            if (d.detected_before_corruption())
                ++r.adversarial_detected_before_corruption;
            if (d.corruptions)
                ++r.adversarial_silently_corrupted;
            if (r.adversarial_outcomes.size() <
                cfg.adversarial_report_cap) {
                AdversarialOutcome a;
                a.id = d.id;
                a.onset_epoch = d.onset_epoch;
                a.pair_index = matrix.faults[d.fault_index].pair_index;
                a.detected = d.detected;
                a.kind = d.kind;
                a.detect_epoch = d.detect_epoch;
                a.slots_to_detect = d.slots_to_detect;
                a.corruptions = d.corruptions;
                a.prevented_corruptions = d.prevented_corruptions;
                a.outcome = d.corruptions ? "silently-corrupted"
                            : d.detected  ? "detected-before-corruption"
                                          : "latent";
                r.adversarial_outcomes.push_back(a);
            }
        }
    }

    r.latency_slots = render(lat_slots);
    r.latency_epochs = render(lat_epochs);
    r.overhead = render(overhead);
    return r;
}

} // namespace vega::fleet
