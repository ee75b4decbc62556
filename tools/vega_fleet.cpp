/**
 * @file
 * CLI driver for the mission-mode fleet simulator: runs the Vega
 * workflow on a chosen functional unit, characterizes every lifted
 * fault class against the generated suite once (the FaultMatrix), then
 * simulates a heterogeneous device population running that suite under
 * a production overhead budget.
 *
 *   vega_fleet --module alu --devices 250000 --epochs 8 --threads 8 \
 *              --seed 7 --out fleet_report.json
 *
 * Two JSON artifacts come out: the full report at --out (with wall
 * clock timing), and the timing-free BENCH_fleet.json, which is
 * byte-identical for a fixed seed at any thread count. `--smoke`
 * shrinks the population for CI and redirects the bench artifact to
 * BENCH_fleet.smoke.json so a smoke run can never clobber a pinned
 * full-run BENCH_fleet.json.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fs.h"
#include "fleet/fleet_sim.h"
#include "obs/metrics.h"
#include "vega/workflow.h"

using namespace vega;

namespace {

struct CliOptions
{
    ModuleKind module = ModuleKind::Alu32;
    fleet::FleetConfig fleet;
    size_t workflow_max_pairs = 8;
    std::string corners; ///< empty = full catalog
    std::string out = "fleet_report.json";
    std::string metrics_out;
    bool smoke = false;
};

/** Seconds since the first call; main() calls it first. */
double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double>(clock::now() - t0).count();
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --module alu|fpu|mdu|mem module (default alu)\n"
        "  --devices N              population size (default 250000)\n"
        "  --epochs N               mission epochs per device "
        "(default 8)\n"
        "  --threads N              worker threads, 0 = all cores "
        "(default 1)\n"
        "  --seed S                 fleet seed (default 1)\n"
        "  --budget F               per-device overhead budget "
        "(default 0.01)\n"
        "  --slots N                scheduler slots per epoch "
        "(default 32)\n"
        "  --corners LIST           comma-separated corner names "
        "(default: full catalog)\n"
        "  --adversarial-fraction F wearout-attack population share "
        "(default 0.02)\n"
        "  --max-pairs N            cap on lifted endpoint pairs "
        "(default 8)\n"
        "  --out FILE               report path (default "
        "fleet_report.json)\n"
        "  --metrics-out FILE       write the metrics registry "
        "snapshot as JSON\n"
        "  --smoke                  tiny population for CI; bench "
        "JSON goes to BENCH_fleet.smoke.json\n"
        "options also accept the --flag=value form\n",
        argv0);
}

bool
parse_args(int argc, char **argv, CliOptions &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool have_inline = false;
        size_t eq = arg.find('=');
        if (arg.compare(0, 2, "--") == 0 && eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg.erase(eq);
            have_inline = true;
        }
        auto value = [&]() -> const char * {
            if (have_inline)
                return inline_value.c_str();
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--module") {
            if (!(v = value()))
                return false;
            if (!std::strcmp(v, "alu"))
                opt.module = ModuleKind::Alu32;
            else if (!std::strcmp(v, "fpu"))
                opt.module = ModuleKind::Fpu32;
            else if (!std::strcmp(v, "mdu"))
                opt.module = ModuleKind::Mdu32;
            else if (!std::strcmp(v, "mem"))
                opt.module = ModuleKind::MemDec16;
            else
                return false;
        } else if (arg == "--devices") {
            if (!(v = value()))
                return false;
            opt.fleet.num_devices = std::strtoull(v, nullptr, 10);
        } else if (arg == "--epochs") {
            if (!(v = value()))
                return false;
            opt.fleet.epochs =
                uint32_t(std::strtoull(v, nullptr, 10));
        } else if (arg == "--threads") {
            if (!(v = value()))
                return false;
            opt.fleet.threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seed") {
            if (!(v = value()))
                return false;
            opt.fleet.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--budget") {
            if (!(v = value()))
                return false;
            opt.fleet.overhead_budget = std::strtod(v, nullptr);
        } else if (arg == "--slots") {
            if (!(v = value()))
                return false;
            opt.fleet.slots_per_epoch =
                std::strtoull(v, nullptr, 10);
        } else if (arg == "--corners") {
            if (!(v = value()))
                return false;
            opt.corners = v;
        } else if (arg == "--adversarial-fraction") {
            if (!(v = value()))
                return false;
            opt.fleet.adversarial_fraction = std::strtod(v, nullptr);
        } else if (arg == "--max-pairs") {
            if (!(v = value()))
                return false;
            opt.workflow_max_pairs = std::strtoull(v, nullptr, 10);
        } else if (arg == "--out") {
            if (!(v = value()))
                return false;
            opt.out = v;
        } else if (arg == "--metrics-out") {
            if (!(v = value()))
                return false;
            opt.metrics_out = v;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else {
            return false;
        }
    }
    return true;
}

bool
write_json(const std::string &path, const std::string &json)
{
    Expected<void> wrote = write_file_atomic(path, json + "\n");
    if (!wrote) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     wrote.error().to_string().c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    now_seconds();
    CliOptions opt;
    if (!parse_args(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    if (opt.smoke) {
        // Small enough for CI, big enough that every corner, mix, and
        // the adversarial slice are populated.
        opt.fleet.num_devices = 2000;
        opt.fleet.epochs = 4;
        opt.workflow_max_pairs =
            std::min<size_t>(opt.workflow_max_pairs, 4);
    }
    if (!opt.corners.empty()) {
        auto parsed = fleet::parse_corner_list(opt.corners);
        if (!parsed) {
            std::fprintf(stderr, "bad --corners: %s\n",
                         parsed.error().to_string().c_str());
            return 2;
        }
        opt.fleet.corners = std::move(*parsed);
    }

    std::printf("vega_fleet: module=%s devices=%llu epochs=%u "
                "threads=%zu seed=%llu budget=%.4f%s\n",
                module_kind_name(opt.module),
                (unsigned long long)opt.fleet.num_devices,
                opt.fleet.epochs, opt.fleet.threads,
                (unsigned long long)opt.fleet.seed,
                opt.fleet.overhead_budget,
                opt.smoke ? " [smoke]" : "");

    // Phase 1+2: the workflow lifts the aging error models and
    // generates the suite the whole fleet will run.
    HwModule module = make_module(opt.module);
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    WorkflowConfig wf_cfg;
    wf_cfg.aging.max_trace = 4000;
    wf_cfg.lift.max_pairs = opt.workflow_max_pairs;
    wf_cfg.lift.bmc.max_frames = 4;
    wf_cfg.lift.bmc.conflict_budget = 400000;
    wf_cfg.lift.formal_attempts = 2;
    wf_cfg.lift.formal_budget_growth = 4.0;
    wf_cfg.lift.degrade_to_fuzz = true;
    std::printf("running workflow (max_pairs=%zu)...\n",
                opt.workflow_max_pairs);
    const auto &trace = is_mem_module(opt.module) ? mem_workload_trace()
                                                  : minver_trace();
    double t = now_seconds();
    WorkflowResult wf = run_workflow(module, lib, trace, wf_cfg);
    double workflow_s = now_seconds() - t;
    std::printf("workflow: %zu lifted pairs, %zu suite tests\n",
                wf.lift.pairs.size(), wf.suite.size());
    if (wf.suite.empty()) {
        std::printf("no tests lifted; nothing to deploy to a fleet\n");
        return 1;
    }

    // Characterize every fault class once; the fleet shares the matrix.
    std::vector<sta::EndpointPair> pairs;
    pairs.reserve(wf.lift.pairs.size());
    for (const auto &pr : wf.lift.pairs)
        pairs.push_back(pr.pair);
    const std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero, lift::FaultConstant::One};
    std::printf("characterizing %zu fault classes against %zu "
                "tests...\n",
                pairs.size() * constants.size(), wf.suite.size());
    t = now_seconds();
    Expected<fleet::FaultMatrix> matrix = fleet::build_fault_matrix(
        module, pairs, wf.suite, constants, opt.fleet.threads,
        opt.fleet.seed);
    double matrix_s = now_seconds() - t;
    if (!matrix) {
        std::fprintf(stderr, "characterization failed: %s\n",
                     matrix.error().to_string().c_str());
        return 1;
    }
    std::printf("matrix: %zu classes, %zu detectable, %zu "
                "corrupting\n",
                matrix->faults.size(), matrix->detectable_classes(),
                matrix->corrupting_classes());

    // Mission mode: the fleet.
    t = now_seconds();
    Expected<fleet::FleetReport> run =
        fleet::run_fleet(opt.fleet, *matrix);
    double fleet_s = now_seconds() - t;
    if (!run) {
        std::fprintf(stderr, "fleet run failed: %s\n",
                     run.error().to_string().c_str());
        return 1;
    }
    fleet::FleetReport report = std::move(run).value();

    std::printf("\nfleet of %llu devices, %llu device-epochs:\n",
                (unsigned long long)report.num_devices,
                (unsigned long long)report.device_epochs);
    std::printf("  faulty       %llu (%llu detectable)\n",
                (unsigned long long)report.faulty_devices,
                (unsigned long long)report.detectable_faulty_devices);
    std::printf("  detected     %llu (%.1f%% of detectable)\n",
                (unsigned long long)report.detected_devices,
                100.0 * report.detection_rate());
    std::printf("  missed SDCs  %llu events on %llu devices "
                "(%llu prevented by detection)\n",
                (unsigned long long)report.silent_corruptions,
                (unsigned long long)report.missed_devices,
                (unsigned long long)report.prevented_corruptions);
    std::printf("  latency      p50=%.1f p95=%.1f p99=%.1f slots\n",
                report.latency_slots.p50, report.latency_slots.p95,
                report.latency_slots.p99);
    std::printf("  overhead     mean=%.5f p99=%.5f (budget %.5f)\n",
                report.mean_overhead(), report.overhead.p99,
                report.overhead_budget);
    std::printf("  adversarial  %llu devices, %llu faulty, %llu "
                "detected-before-corruption, %llu silently "
                "corrupted\n",
                (unsigned long long)report.adversarial_devices,
                (unsigned long long)report.adversarial_faulty,
                (unsigned long long)
                    report.adversarial_detected_before_corruption,
                (unsigned long long)
                    report.adversarial_silently_corrupted);
    std::printf("  time         workflow %.2fs, fault matrix %.2fs, "
                "fleet %.2fs; process %.2fs\n",
                workflow_s, matrix_s, fleet_s, now_seconds());
    std::printf("  epoch loop   %.2fs wall, %.0f device-epochs/s, "
                "%zu threads\n",
                report.timing.wall_seconds,
                report.timing.device_epochs_per_sec,
                report.timing.threads);

    if (!write_json(opt.out, report.to_json(true)))
        return 1;
    std::printf("report written to %s\n", opt.out.c_str());

    // The bench artifact drops timing: byte-identical for a fixed
    // seed across runs and thread counts, so it pins in CI. Smoke
    // runs write a sibling path and never touch the pinned file.
    std::string bench_path =
        opt.smoke ? "BENCH_fleet.smoke.json" : "BENCH_fleet.json";
    if (!write_json(bench_path, report.to_json(false)))
        return 1;
    std::printf("bench artifact written to %s\n", bench_path.c_str());

    if (!opt.metrics_out.empty()) {
        obs::MetricsSnapshot snap = obs::snapshot_metrics();
        if (!write_json(opt.metrics_out, snap.to_json()))
            return 1;
        std::printf("metrics written to %s\n",
                    opt.metrics_out.c_str());
    }
    return 0;
}
