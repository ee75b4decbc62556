#include "fleet/report.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace vega::fleet {

using obs::kv;

namespace {

void
append_distribution(std::string &out, const Distribution &d)
{
    out += '{';
    kv(out, "count", d.count);
    kv(out, "sum", d.sum);
    kv(out, "mean", d.mean());
    kv(out, "p50", d.p50);
    kv(out, "p95", d.p95);
    kv(out, "p99", d.p99);
    out += "\"bounds\":[";
    for (size_t i = 0; i < d.bounds.size(); ++i) {
        if (i)
            out += ',';
        obs::json_number(out, d.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < d.buckets.size(); ++i) {
        if (i)
            out += ',';
        obs::json_number(out, d.buckets[i]);
    }
    out += "]}";
}

void
append_groups(std::string &out, const char *key,
              const std::vector<GroupStats> &groups)
{
    obs::json_key(out, key);
    out += '[';
    for (size_t i = 0; i < groups.size(); ++i) {
        const GroupStats &g = groups[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "name", g.name);
        kv(out, "devices", g.devices);
        kv(out, "faulty", g.faulty);
        kv(out, "detected", g.detected);
        kv(out, "missed", g.missed);
        kv(out, "silent_corruptions", g.silent_corruptions);
        kv(out, "detection_rate", g.detection_rate());
        kv(out, "miss_rate", g.miss_rate(), false);
        out += '}';
    }
    out += "],";
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

/** Overhead buckets as fractions of the configured budget. */
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

/** Empty distribution over @p bounds (ascending by construction). */
Distribution
empty_distribution(std::vector<double> bounds)
{
    Distribution d;
    d.bounds = std::move(bounds);
    d.buckets.assign(d.bounds.size() + 1, 0);
    return d;
}

/**
 * Count @p v in the first bucket whose upper bound is >= v (the last is
 * the overflow), as obs::Histogram does. The sum is left to the caller.
 */
void
observe(Distribution &d, double v)
{
    size_t i = size_t(
        std::lower_bound(d.bounds.begin(), d.bounds.end(), v) -
        d.bounds.begin());
    ++d.buckets[i];
    ++d.count;
}

void
merge_distribution(Distribution &d, const Distribution &next)
{
    for (size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] += next.buckets[i];
    d.count += next.count;
    d.sum += next.sum;
}

void
finish_distribution(Distribution &d)
{
    d.p50 = obs::histogram_quantile(d.bounds, d.buckets, d.count, 0.50);
    d.p95 = obs::histogram_quantile(d.bounds, d.buckets, d.count, 0.95);
    d.p99 = obs::histogram_quantile(d.bounds, d.buckets, d.count, 0.99);
}

void
merge_group(GroupStats &g, const GroupStats &next)
{
    g.devices += next.devices;
    g.faulty += next.faulty;
    g.detected += next.detected;
    g.missed += next.missed;
    g.silent_corruptions += next.silent_corruptions;
}

constexpr size_t kAgeBands = 4;

} // namespace

std::string
FleetReport::to_json(bool include_timing) const
{
    std::string out;
    out.reserve(8192 + adversarial_outcomes.size() * 160);
    out += "{\"fleet\":{";
    kv(out, "module", module);
    kv(out, "seed", seed);
    kv(out, "num_devices", num_devices);
    kv(out, "epochs", uint64_t(epochs));
    kv(out, "slots_per_epoch", slots_per_epoch);
    kv(out, "overhead_budget", overhead_budget);
    kv(out, "policy", policy);
    kv(out, "suite_size", uint64_t(suite_size));
    kv(out, "num_pairs", uint64_t(num_pairs));
    kv(out, "fault_classes", uint64_t(fault_classes));
    kv(out, "detectable_classes", uint64_t(detectable_classes));
    kv(out, "corrupting_classes", uint64_t(corrupting_classes), false);
    out += "},\"totals\":{";
    kv(out, "device_epochs", device_epochs);
    kv(out, "slots", slots);
    kv(out, "tests_dispatched", tests_dispatched);
    kv(out, "test_cycles", test_cycles);
    kv(out, "app_cycles", app_cycles);
    kv(out, "faulty_devices", faulty_devices);
    kv(out, "detectable_faulty_devices", detectable_faulty_devices);
    kv(out, "detected_devices", detected_devices);
    kv(out, "missed_devices", missed_devices);
    kv(out, "silent_corruptions", silent_corruptions);
    kv(out, "prevented_corruptions", prevented_corruptions);
    kv(out, "detected_before_any_corruption",
       detected_before_any_corruption);
    kv(out, "detection_rate", detection_rate());
    kv(out, "mean_overhead", mean_overhead());
    obs::json_key(out, "detections");
    detections.append_json(out);
    out += "},\"latency_slots\":";
    append_distribution(out, latency_slots);
    out += ",\"latency_epochs\":";
    append_distribution(out, latency_epochs);
    out += ",\"overhead\":";
    append_distribution(out, overhead);
    out += ',';
    append_groups(out, "per_corner", per_corner);
    append_groups(out, "per_mix", per_mix);
    append_groups(out, "per_age", per_age);
    out += "\"adversarial\":{";
    kv(out, "devices", adversarial_devices);
    kv(out, "faulty", adversarial_faulty);
    kv(out, "detected", adversarial_detected);
    kv(out, "detected_before_corruption",
       adversarial_detected_before_corruption);
    kv(out, "silently_corrupted", adversarial_silently_corrupted);
    kv(out, "outcomes_total", adversarial_outcomes_total);
    kv(out, "outcomes_reported", uint64_t(adversarial_outcomes.size()));
    out += "\"outcomes\":[";
    for (size_t i = 0; i < adversarial_outcomes.size(); ++i) {
        const AdversarialOutcome &a = adversarial_outcomes[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "id", a.id);
        kv(out, "onset_epoch", uint64_t(a.onset_epoch));
        kv(out, "pair", uint64_t(a.pair_index));
        kv(out, "detected", uint64_t(a.detected));
        kv(out, "kind", runtime::detection_name(a.kind));
        kv(out, "detect_epoch", uint64_t(a.detect_epoch));
        kv(out, "slots_to_detect", a.slots_to_detect);
        kv(out, "corruptions", uint64_t(a.corruptions));
        kv(out, "prevented_corruptions",
           uint64_t(a.prevented_corruptions));
        kv(out, "outcome", a.outcome, false);
        out += '}';
    }
    out += "]}";
    if (include_timing) {
        out += ",\"timing\":{";
        kv(out, "wall_seconds", timing.wall_seconds);
        kv(out, "device_epochs_per_sec", timing.device_epochs_per_sec);
        kv(out, "threads", uint64_t(timing.threads));
        kv(out, "steals", timing.steals);
        kv(out, "workflow_seconds", timing.workflow_seconds);
        kv(out, "matrix_seconds", timing.matrix_seconds, false);
        out += '}';
    }
    out += '}';
    return out;
}

FleetReport
empty_report(const FleetConfig &cfg, const FaultMatrix &matrix)
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
    r.latency_slots = empty_distribution(slot_bounds(max_slots));
    r.latency_epochs = empty_distribution(epoch_bounds(cfg.epochs));
    r.overhead =
        empty_distribution(overhead_bounds(cfg.overhead_budget));

    r.per_corner.resize(cfg.corners.size());
    for (size_t i = 0; i < cfg.corners.size(); ++i)
        r.per_corner[i].name = cfg.corners[i].name;
    r.per_mix.resize(cfg.mixes.size());
    for (size_t i = 0; i < cfg.mixes.size(); ++i)
        r.per_mix[i].name = cfg.mixes[i].name;
    r.per_age.resize(kAgeBands);
    for (size_t i = 0; i < kAgeBands; ++i)
        r.per_age[i].name = age_band_name(i);
    return r;
}

void
fold_device(FleetReport &r, const FleetConfig &cfg,
            const FaultMatrix &matrix, const DeviceOutcome &d)
{
    r.device_epochs += d.epochs_run;
    r.slots += d.slots;
    r.tests_dispatched += d.tests_dispatched;
    r.test_cycles += d.test_cycles;
    r.app_cycles += d.app_cycles;
    observe(r.overhead, d.realized_overhead());

    // Initial age grouped into quartiles of the configured range.
    double age_span =
        std::max(1e-9, cfg.max_age_years - cfg.min_age_years);
    size_t band = size_t((d.age_start - cfg.min_age_years) / age_span *
                         double(kAgeBands));
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
        return;

    ++r.faulty_devices;
    if (d.fault_detectable)
        ++r.detectable_faulty_devices;
    r.silent_corruptions += d.corruptions;
    r.prevented_corruptions += d.prevented_corruptions;
    if (d.corruptions)
        ++r.missed_devices;
    if (d.detected) {
        ++r.detected_devices;
        // Latencies are whole numbers, so their double sums are exact
        // and the chunk merge reproduces the id-order sum.
        observe(r.latency_slots, double(d.slots_to_detect));
        r.latency_slots.sum += double(d.slots_to_detect);
        observe(r.latency_epochs, double(d.detect_epoch - d.onset_epoch));
        r.latency_epochs.sum += double(d.detect_epoch - d.onset_epoch);
        if (d.corruptions == 0)
            ++r.detected_before_any_corruption;
        r.detections.add(d.kind);
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

    if (!d.adversarial)
        return;
    ++r.adversarial_faulty;
    ++r.adversarial_outcomes_total;
    if (d.detected)
        ++r.adversarial_detected;
    if (d.detected_before_corruption())
        ++r.adversarial_detected_before_corruption;
    if (d.corruptions)
        ++r.adversarial_silently_corrupted;
    if (r.adversarial_outcomes.size() < cfg.adversarial_report_cap) {
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

void
merge_report(FleetReport &r, const FleetReport &next,
             size_t adversarial_cap)
{
    r.device_epochs += next.device_epochs;
    r.slots += next.slots;
    r.tests_dispatched += next.tests_dispatched;
    r.test_cycles += next.test_cycles;
    r.app_cycles += next.app_cycles;
    r.faulty_devices += next.faulty_devices;
    r.detectable_faulty_devices += next.detectable_faulty_devices;
    r.detected_devices += next.detected_devices;
    r.missed_devices += next.missed_devices;
    r.silent_corruptions += next.silent_corruptions;
    r.prevented_corruptions += next.prevented_corruptions;
    r.detected_before_any_corruption +=
        next.detected_before_any_corruption;
    r.detections.merge(next.detections);

    merge_distribution(r.latency_slots, next.latency_slots);
    merge_distribution(r.latency_epochs, next.latency_epochs);
    merge_distribution(r.overhead, next.overhead);
    for (size_t i = 0; i < r.per_corner.size(); ++i)
        merge_group(r.per_corner[i], next.per_corner[i]);
    for (size_t i = 0; i < r.per_mix.size(); ++i)
        merge_group(r.per_mix[i], next.per_mix[i]);
    for (size_t i = 0; i < r.per_age.size(); ++i)
        merge_group(r.per_age[i], next.per_age[i]);

    r.adversarial_devices += next.adversarial_devices;
    r.adversarial_faulty += next.adversarial_faulty;
    r.adversarial_detected += next.adversarial_detected;
    r.adversarial_detected_before_corruption +=
        next.adversarial_detected_before_corruption;
    r.adversarial_silently_corrupted +=
        next.adversarial_silently_corrupted;
    r.adversarial_outcomes_total += next.adversarial_outcomes_total;
    for (const AdversarialOutcome &a : next.adversarial_outcomes) {
        if (r.adversarial_outcomes.size() >= adversarial_cap)
            break;
        r.adversarial_outcomes.push_back(a);
    }
}

void
finish_report(FleetReport &r, const std::vector<double> &overheads)
{
    r.overhead.sum = 0.0;
    for (double v : overheads)
        r.overhead.sum += v;
    finish_distribution(r.latency_slots);
    finish_distribution(r.latency_epochs);
    finish_distribution(r.overhead);
}

} // namespace vega::fleet
