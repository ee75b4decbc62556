/**
 * @file
 * CLI driver for the fault-injection campaign engine: runs the Vega
 * workflow on a chosen functional unit, then fans a Monte Carlo
 * injection campaign out over a thread pool and writes
 * the structured CampaignReport as JSON.
 *
 *   vega_campaign --module alu --jobs 512 --threads 8 \
 *                 --seed 7 --out campaign_report.json
 *
 * The same seed yields a bit-identical report (timing aside) at any
 * thread count, so campaign results are citable and diffable.
 *
 * Fleet mode shards one campaign across processes, each with a
 * checksummed crash-safe journal, merged by an integrity-verifying
 * aggregator (docs/ARCHITECTURE.md "Sharded campaigns"):
 *
 *   vega_campaign --jobs 512 --shards 4 --shard-id K --journal-dir D
 *       # for K = 0..3, any order, any machines sharing D; kill and
 *       # --resume any shard freely
 *   vega_campaign --aggregate D --out fleet_report.json
 *
 * The aggregated report is byte-identical to an unsharded run of the
 * same campaign (timing aside — use --no-timing to diff).
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/aggregator.h"
#include "campaign/campaign.h"
#include "campaign/shard.h"
#include "common/fs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vega/workflow.h"

using namespace vega;

namespace {

struct CliOptions
{
    ModuleKind module = ModuleKind::Alu32;
    campaign::CampaignConfig campaign;
    size_t workflow_max_pairs = 8;
    std::string out = "campaign_report.json";
    std::string trace_out;
    std::string metrics_out;
    std::string journal_dir;
    std::string aggregate_dir;
    std::string manifest_out;
    bool metrics_summary = false;
    bool quiet = false;
    bool per_job_json = true;
    bool include_timing = true;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --module alu|fpu|mdu|mem  module under campaign "
        "(default alu)\n"
        "  --jobs N               injection jobs to run (default 256)\n"
        "  --threads N            worker threads, 0 = all cores "
        "(default 1)\n"
        "  --seed S               campaign seed (default 1)\n"
        "  --probability P        probabilistic-policy dispatch rate "
        "(default 0.5)\n"
        "  --max-pairs N          cap on lifted endpoint pairs "
        "(default 8)\n"
        "  --max-slots N          per-job scheduler slot budget "
        "(default 2x suite)\n"
        "  --out FILE             report path (default "
        "campaign_report.json)\n"
        "  --journal FILE         checkpoint completed jobs to FILE "
        "(crash-safe)\n"
        "  --journal-flush-every N  journal group-commit size "
        "(default 16)\n"
        "  --resume               reload the journal and skip "
        "recorded jobs\n"
        "  --shards N             split the campaign across N worker "
        "processes\n"
        "  --shard-id K           which shard this process runs "
        "(0..N-1)\n"
        "  --journal-dir DIR      per-shard checksummed journals in "
        "DIR (shard-K-of-N.journal)\n"
        "  --aggregate DIR        merge + verify the shard journals "
        "in DIR; no jobs run\n"
        "  --manifest FILE        integrity-manifest path (default "
        "<out>.manifest.json)\n"
        "  --kill-after N         raise SIGKILL after N completed "
        "jobs (kill-and-resume testing)\n"
        "  --no-timing            omit wall-clock timing from the "
        "JSON (diffable reports)\n"
        "  --trace-out FILE       write a Chrome trace-event JSON "
        "(open in Perfetto)\n"
        "  --metrics-out FILE     write the metrics registry snapshot "
        "as JSON\n"
        "  --metrics              print a metrics summary to stderr "
        "at exit\n"
        "  --aggregate-only       omit the per-job array from the "
        "JSON\n"
        "  --quiet                suppress progress lines\n"
        "options also accept the --flag=value form\n",
        argv0);
}

bool
parse_args(int argc, char **argv, CliOptions &opt)
{
    for (int i = 1; i < argc; ++i) {
        // Accept both `--flag value` and `--flag=value`.
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
        if (arg == "--module") {
            const char *v = value();
            if (!v)
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
        } else if (arg == "--jobs") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.num_jobs = std::strtoull(v, nullptr, 10);
        } else if (arg == "--threads") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seed") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--probability") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.probability = std::strtod(v, nullptr);
        } else if (arg == "--max-pairs") {
            const char *v = value();
            if (!v)
                return false;
            opt.workflow_max_pairs = std::strtoull(v, nullptr, 10);
        } else if (arg == "--max-slots") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.max_slots = std::strtoull(v, nullptr, 10);
        } else if (arg == "--out") {
            const char *v = value();
            if (!v)
                return false;
            opt.out = v;
        } else if (arg == "--journal") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.journal_path = v;
        } else if (arg == "--journal-flush-every") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.journal_flush_every =
                std::strtoull(v, nullptr, 10);
        } else if (arg == "--resume") {
            opt.campaign.resume = true;
        } else if (arg == "--shards") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.num_shards = std::strtoull(v, nullptr, 10);
        } else if (arg == "--shard-id") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.shard_id = std::strtoull(v, nullptr, 10);
        } else if (arg == "--journal-dir") {
            const char *v = value();
            if (!v)
                return false;
            opt.journal_dir = v;
        } else if (arg == "--aggregate") {
            const char *v = value();
            if (!v)
                return false;
            opt.aggregate_dir = v;
        } else if (arg == "--manifest") {
            const char *v = value();
            if (!v)
                return false;
            opt.manifest_out = v;
        } else if (arg == "--kill-after") {
            const char *v = value();
            if (!v)
                return false;
            opt.campaign.kill_after_jobs = std::strtoull(v, nullptr, 10);
        } else if (arg == "--no-timing") {
            opt.include_timing = false;
        } else if (arg == "--trace-out") {
            const char *v = value();
            if (!v)
                return false;
            opt.trace_out = v;
        } else if (arg == "--metrics-out") {
            const char *v = value();
            if (!v)
                return false;
            opt.metrics_out = v;
        } else if (arg == "--metrics") {
            opt.metrics_summary = true;
        } else if (arg == "--aggregate-only") {
            opt.per_job_json = false;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else {
            return false;
        }
    }
    // User errors exit via usage, not via the engine's invariant checks.
    if (!opt.aggregate_dir.empty())
        return true;
    if (opt.campaign.num_shards == 0 ||
        opt.campaign.shard_id >= opt.campaign.num_shards)
        return false;
    // A sharded run without a journal could never be aggregated.
    if (opt.campaign.num_shards > 1 && opt.journal_dir.empty() &&
        opt.campaign.journal_path.empty())
        return false;
    if (!opt.journal_dir.empty())
        opt.campaign.journal_path = campaign::shard_journal_path(
            opt.journal_dir, opt.campaign.shard_id,
            opt.campaign.num_shards);
    return opt.campaign.num_jobs > 0;
}

/** --aggregate mode: merge + verify shard journals; no jobs run. */
int
run_aggregate(const CliOptions &opt)
{
    std::printf("vega_campaign: aggregating shard journals in %s\n",
                opt.aggregate_dir.c_str());
    Expected<campaign::AggregateResult> agg =
        campaign::aggregate_shard_dir(opt.aggregate_dir);
    if (!agg) {
        std::fprintf(stderr, "aggregation refused: %s\n",
                     agg.error().to_string().c_str());
        return 1;
    }
    const campaign::IntegrityManifest &m = agg->manifest;
    std::printf("verified %llu shards, %llu job + %llu quarantine "
                "records:\n",
                (unsigned long long)m.num_shards,
                (unsigned long long)m.total_completed,
                (unsigned long long)m.total_failed);
    for (const campaign::ShardVerdict &s : m.shards)
        std::printf("  shard %llu: %llu jobs, %llu failed, crc %s — "
                    "%s\n",
                    (unsigned long long)s.shard_id,
                    (unsigned long long)s.completed,
                    (unsigned long long)s.failed,
                    crc32c_hex(s.crc).c_str(), s.detail.c_str());

    const campaign::CampaignReport &report = agg->report;
    std::printf("fleet totals: %zu jobs, %llu detected, %llu SDC "
                "escapes, %llu quarantined\n",
                report.jobs.size(), (unsigned long long)report.detected,
                (unsigned long long)report.escapes,
                (unsigned long long)report.failed);

    // Timing is always omitted: an aggregate has no single wall clock,
    // and this keeps the report diffable against an unsharded run.
    std::string json = report.to_json(false, opt.per_job_json);
    Expected<void> wrote = write_file_atomic(opt.out, json + "\n");
    if (!wrote) {
        std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                     wrote.error().to_string().c_str());
        return 1;
    }
    std::printf("report written to %s\n", opt.out.c_str());

    std::string manifest_path = opt.manifest_out.empty()
                                    ? opt.out + ".manifest.json"
                                    : opt.manifest_out;
    wrote = write_file_atomic(manifest_path, m.to_json() + "\n");
    if (!wrote) {
        std::fprintf(stderr, "cannot write %s: %s\n",
                     manifest_path.c_str(),
                     wrote.error().to_string().c_str());
        return 1;
    }
    std::printf("integrity manifest written to %s\n",
                manifest_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt;
    if (!parse_args(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    opt.campaign.progress = !opt.quiet;

    if (!opt.aggregate_dir.empty())
        return run_aggregate(opt);

    if (!opt.journal_dir.empty()) {
        Expected<void> made = make_dirs(opt.journal_dir);
        if (!made) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         opt.journal_dir.c_str(),
                         made.error().to_string().c_str());
            return 1;
        }
    }

    // Tracing must be live before the workflow so SAT/BMC/STA spans
    // from campaign setup land in the same trace as the jobs.
    if (!opt.trace_out.empty())
        obs::trace_enable();

    std::printf("vega_campaign: module=%s jobs=%zu threads=%zu "
                "seed=%llu\n",
                module_kind_name(opt.module), opt.campaign.num_jobs,
                opt.campaign.threads,
                (unsigned long long)opt.campaign.seed);

    // Phase 1+2: workflow — aging analysis and error lifting produce
    // the endpoint pairs and the runtime suite the campaign screens
    // faults with.
    HwModule module = make_module(opt.module);
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    WorkflowConfig wf_cfg;
    wf_cfg.aging.max_trace = 4000;
    wf_cfg.lift.max_pairs = opt.workflow_max_pairs;
    wf_cfg.lift.bmc.max_frames = 4;
    // The bench-suite budget: hard unreachability proofs give up as
    // Timeout instead of stalling the campaign setup — after climbing
    // the retry ladder (escalating budgets, then a fuzz fallback)
    // rather than on the first stall.
    wf_cfg.lift.bmc.conflict_budget = 400000;
    wf_cfg.lift.formal_attempts = 2;
    wf_cfg.lift.formal_budget_growth = 4.0;
    wf_cfg.lift.degrade_to_fuzz = true;
    std::printf("running workflow (max_pairs=%zu)...\n",
                opt.workflow_max_pairs);
    const auto &trace = is_mem_module(opt.module) ? mem_workload_trace()
                                                  : minver_trace();
    auto t0 = std::chrono::steady_clock::now();
    WorkflowResult wf = run_workflow(module, lib, trace, wf_cfg);
    double workflow_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("workflow: %zu lifted pairs, %zu suite tests\n",
                wf.lift.pairs.size(), wf.suite.size());
    if (wf.suite.empty()) {
        std::printf("no tests lifted; nothing to campaign against\n");
        return 1;
    }

    // Phase 3 at scale: the injection campaign.
    std::vector<sta::EndpointPair> pairs;
    pairs.reserve(wf.lift.pairs.size());
    for (const auto &pr : wf.lift.pairs)
        pairs.push_back(pr.pair);
    Expected<campaign::CampaignReport> run = campaign::try_run_campaign(
        module, pairs, wf.suite, opt.campaign);
    if (!run) {
        std::fprintf(stderr, "campaign failed: %s\n",
                     run.error().to_string().c_str());
        return 1;
    }
    campaign::CampaignReport report = std::move(run).value();
    report.timing.workflow_seconds = workflow_s;

    std::printf("\ncampaign totals over %zu jobs:\n",
                report.jobs.size());
    std::printf("  detected    %llu (%.1f%%)\n",
                (unsigned long long)report.detected,
                100.0 * report.detection_rate());
    std::printf("  corrupting  %llu\n",
                (unsigned long long)report.corrupting);
    std::printf("  SDC escapes %llu (%.1f%% of corrupting)\n",
                (unsigned long long)report.escapes,
                100.0 * report.escape_rate());
    std::printf("  benign      %llu\n",
                (unsigned long long)report.benign);
    if (report.failed)
        std::printf("  quarantined %llu (see failed_jobs in the "
                    "report)\n",
                    (unsigned long long)report.failed);
    std::printf("  mean detection latency %.2f scheduler slots\n",
                report.mean_latency_slots());
    std::printf("  %.2fs wall, %.1f jobs/s, %.0f sims/s, %zu "
                "threads, peak queue %llu\n",
                report.timing.wall_seconds, report.timing.jobs_per_sec,
                report.timing.sims_per_sec, report.timing.threads,
                (unsigned long long)report.timing.peak_queue_depth);
    if (report.timing.journal_flushes)
        std::printf("  journal: %llu flushes, %llu bytes\n",
                    (unsigned long long)report.timing.journal_flushes,
                    (unsigned long long)report.timing.journal_bytes);

    // Write-temp-then-rename: a crash mid-write never leaves a
    // truncated report where a previous good one stood.
    std::string json = report.to_json(opt.include_timing,
                                      opt.per_job_json);
    Expected<void> wrote = write_file_atomic(opt.out, json + "\n");
    if (!wrote) {
        std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                     wrote.error().to_string().c_str());
        return 1;
    }
    std::printf("report written to %s\n", opt.out.c_str());

    // Observability exports come last so they cover the whole run.
    if (!opt.trace_out.empty()) {
        Expected<void> tw = obs::write_chrome_trace(opt.trace_out);
        if (!tw) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         opt.trace_out.c_str(),
                         tw.error().to_string().c_str());
            return 1;
        }
        uint64_t dropped = obs::trace_dropped();
        std::printf("trace written to %s%s\n", opt.trace_out.c_str(),
                    dropped ? " (ring overflow: oldest spans dropped)"
                            : "");
    }
    if (!opt.metrics_out.empty()) {
        obs::MetricsSnapshot snap = obs::snapshot_metrics();
        Expected<void> mw =
            write_file_atomic(opt.metrics_out, snap.to_json() + "\n");
        if (!mw) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         opt.metrics_out.c_str(),
                         mw.error().to_string().c_str());
            return 1;
        }
        std::printf("metrics written to %s\n", opt.metrics_out.c_str());
    }
    if (opt.metrics_summary)
        std::fputs(obs::snapshot_metrics().summary().c_str(), stderr);
    return 0;
}
