/**
 * @file
 * Pipeline benchmark program: runs one Vega workload end to end through
 * the library's public API, checks its outputs, and prints every metric
 * by name with its unit.
 *
 *   vega_perfbench --workload lift-fpu|campaign-alu|fleet-alu|campaign-mem
 *                  --seed N --seconds S --trace 0|1
 *                  [--scratch DIR] [--detail FILE]
 *
 * --trace 0 repeats the workload, untraced, until S seconds have passed
 * and reports the end-to-end metrics of the fastest repetition (the
 * deterministic ones as medians). --trace 1 alternates
 * untraced and traced repetitions; the traced ones run the workflow as
 * its public steps, collect the library's spans and obs counters, and
 * give the per-layer metrics. Both modes gate correctness on a CRC32C
 * digest of the workload's timing-free output, which must not change
 * between repetitions or between traced and untraced runs.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. --detail writes provenance, the span
 * summary and per-repetition values as JSON.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/checksum.h"
#include "fleet/fleet_sim.h"
#include "mem/decoder_lift.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/suite_io.h"
#include "vega/workflow.h"

using namespace vega;

namespace {

/** Worker threads for the campaign, the fault matrix and the fleet. */
constexpr size_t kThreads = 4;
/** Set-up samples before the repetitions, and after each one. A sample
 *  is the mean of kSetupBatch back-to-back set-ups (one takes a few
 *  ms); setup_s is the median of the samples. */
constexpr int kSetupBatch = 8;
constexpr int kSetupSamples = 6;
constexpr int kSetupSamplesPerRep = 4;
/** Measured repetitions per run, at the least; on --trace 1 that is
 *  two untraced and one traced. */
constexpr size_t kMinReps = 3;
/** Span ring per thread: campaign-mem records ~33k job spans on each
 *  of its 4 workers. */
constexpr size_t kTraceRing = size_t(1) << 20;
constexpr uint32_t kFleetEpochs = 8;

// ---------------------------------------------------------------------
// Workloads

struct WorkloadSpec
{
    const char *name;
    ModuleKind module;
    size_t max_pairs;
    /** Campaign jobs (0 = no campaign). */
    size_t campaign_jobs = 0;
    /** Journal group-commit size (0 = no journal). */
    size_t journal_flush_every = 0;
    /** Fleet devices, each run for kFleetEpochs (0 = no fleet). */
    uint64_t fleet_devices = 0;
};

// campaign-mem commits its journal every 1024 jobs, not every 16 as the
// CLI does: 8k fsyncs per repetition made its wall time follow the
// disk's fsync latency (run-to-run spread over 40%) rather than the code.
const WorkloadSpec kWorkloads[] = {
    {"lift-fpu", ModuleKind::Fpu32, 41},
    {"campaign-alu", ModuleKind::Alu32, 8, 32768},
    {"fleet-alu", ModuleKind::Alu32, 8, 0, 0, 1000000},
    {"campaign-mem", ModuleKind::MemDec16, 8, 131072, 1024},
};

const WorkloadSpec *
find_workload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** The workflow settings vega_campaign and vega_fleet use. */
WorkflowConfig
workflow_config(const WorkloadSpec &w)
{
    WorkflowConfig cfg;
    cfg.aging.max_trace = 4000;
    cfg.lift.max_pairs = w.max_pairs;
    cfg.lift.bmc.max_frames = 4;
    cfg.lift.bmc.conflict_budget = 400000;
    cfg.lift.formal_attempts = 2;
    cfg.lift.formal_budget_growth = 4.0;
    cfg.lift.degrade_to_fuzz = true;
    return cfg;
}

// ---------------------------------------------------------------------
// Benchmark spans: one per public call, on the tracer's clock so they
// nest with the library's own spans in the summary.

uint64_t
now_ns()
{
    return obs::detail::now_ns();
}

struct BenchSpan
{
    uint64_t run_id = 0;
    uint32_t id = 0;
    int64_t parent = -1; ///< index into SpanLog::spans, -1 = root
    const char *name = nullptr;
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;
};

struct SpanLog
{
    std::vector<BenchSpan> spans;
    std::vector<size_t> open;
    uint64_t run_id = 0;

    size_t begin(const char *name)
    {
        BenchSpan s;
        s.run_id = run_id;
        s.id = uint32_t(spans.size());
        s.parent = open.empty() ? -1 : int64_t(open.back());
        s.name = name;
        s.ts_ns = now_ns();
        spans.push_back(s);
        open.push_back(spans.size() - 1);
        return spans.size() - 1;
    }
    double end(size_t idx)
    {
        spans[idx].dur_ns = now_ns() - spans[idx].ts_ns;
        open.pop_back();
        return double(spans[idx].dur_ns) * 1e-9;
    }
};

SpanLog g_spans;

/** Times a scope as one benchmark span; stop() ends it early. */
class Span
{
  public:
    explicit Span(const char *name) : idx_(g_spans.begin(name)) {}
    ~Span()
    {
        if (!done_)
            stop();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span; its duration in seconds. */
    double stop()
    {
        done_ = true;
        return g_spans.end(idx_);
    }

  private:
    size_t idx_;
    bool done_ = false;
};

// ---------------------------------------------------------------------
// Statistics and process counters

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------
// Set-up: timing library, module, workload trace

struct Setup
{
    aging::AgingTimingLibrary lib;
    HwModule module;
    std::vector<cpu::FuTraceEntry> trace;
};

/**
 * The workload's representative trace. Functional units replay the
 * minver kernel's FU trace, memory decoders the crc32 data-memory trace
 * (the CLIs' defaults). On lift-fpu the seed rotates the trace, so each
 * seed ages the FPU under the same operations in a different order;
 * the other workloads keep the CLI trace and take the seed in their
 * campaign or fleet.
 */
std::vector<cpu::FuTraceEntry>
record_trace(const WorkloadSpec &w, uint64_t seed)
{
    if (is_mem_module(w.module))
        return record_mem_workload_trace({workloads::make_crc32().program});
    std::vector<cpu::FuTraceEntry> trace =
        record_workload_trace({workloads::make_minver().program});
    if (w.module == ModuleKind::Fpu32 && !trace.empty())
        std::rotate(trace.begin(),
                    trace.begin() + ptrdiff_t(seed % trace.size()),
                    trace.end());
    return trace;
}

Setup
run_setup(const WorkloadSpec &w, uint64_t seed)
{
    Span total("setup");
    Span s1("aging.AgingTimingLibrary::build");
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    s1.stop();
    Span s2("vega.make_module");
    HwModule module = make_module(w.module);
    s2.stop();
    Span s3("vega.record_workload_trace");
    std::vector<cpu::FuTraceEntry> trace = record_trace(w, seed);
    s3.stop();
    return Setup{std::move(lib), std::move(module), std::move(trace)};
}

// ---------------------------------------------------------------------
// One repetition of a workload

struct Rep
{
    bool traced = false;
    bool ok = true;
    std::string why; ///< first failed check
    uint32_t digest = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Named values: end-to-end and per-layer, before unit tagging. */
    std::map<std::string, double> v;
};

void
check(Rep &r, bool cond, const char *what)
{
    if (!cond && r.ok) {
        r.ok = false;
        r.why = what;
    }
}

std::vector<sta::EndpointPair>
lifted_pairs(const WorkflowResult &wf)
{
    std::vector<sta::EndpointPair> pairs;
    pairs.reserve(wf.lift.pairs.size());
    for (const auto &pr : wf.lift.pairs)
        pairs.push_back(pr.pair);
    return pairs;
}

/**
 * The workflow as its public steps (the traced decomposition of
 * run_workflow): aging analysis, then error lifting — or decoder
 * lifting on memory modules, folded into the same result shape.
 */
WorkflowResult
run_workflow_steps(Setup &s, const WorkflowConfig &cfg)
{
    WorkflowResult wf;
    {
        Span sp("vega.run_aging_analysis");
        wf.aging = run_aging_analysis(s.module, s.lib, s.trace, cfg.aging);
    }
    if (is_mem_module(s.module.kind)) {
        Span sp("mem.run_decoder_lifting");
        mem::MemLiftConfig mc;
        mc.max_pairs = cfg.lift.max_pairs;
        mem::MemLiftResult ml = mem::run_decoder_lifting(
            s.module, wf.aging.liftable_pairs(), mc);
        for (const mem::MemPairResult &mp : ml.pairs) {
            lift::PairResult pr;
            pr.pair = mp.pair;
            pr.status = mp.status;
            wf.lift.pairs.push_back(std::move(pr));
        }
        wf.lift.n_success = ml.n_success;
        wf.lift.n_unreachable = ml.n_unreachable;
        wf.lift.n_conversion_failed = ml.n_conversion_failed;
        wf.suite = std::move(ml.suite);
        return wf;
    }
    Span sp("lift.run_error_lifting");
    wf.lift = lift::run_error_lifting(s.module, wf.aging.liftable_pairs(),
                                      cfg.lift);
    wf.suite = wf.lift.suite();
    return wf;
}

/** Lifting outcome: accounting, quality and the suite's digest input. */
void
account_lifting(Rep &r, const WorkflowResult &wf, Crc32c &crc)
{
    const lift::LiftResult &lr = wf.lift;
    size_t n = lr.pairs.size();
    check(r, n > 0, "no endpoint pairs analyzed");
    check(r, !wf.suite.empty(), "lifting produced an empty suite");
    check(r,
          lr.n_success + lr.n_unreachable + lr.n_timeout +
                  lr.n_conversion_failed ==
              n,
          "pair statuses do not add up to pairs analyzed");
    r.attempted += n;
    r.failed += lr.n_timeout;

    uint64_t configs = 0, validated = 0, attempts = 0, fallbacks = 0;
    for (const lift::PairResult &pr : lr.pairs) {
        for (const lift::ConfigOutcome &c : pr.configs) {
            ++configs;
            validated += c.validated;
            attempts += uint64_t(c.attempts);
            fallbacks += c.degraded_to_fuzz;
        }
        crc.update(lift::pair_status_name(pr.status));
    }
    crc.update(runtime::serialize_suite(wf.suite));

    r.v["lift_success_ratio"] = n ? double(lr.n_success) / double(n) : 0;
    r.v["lift.pairs_success"] = double(lr.n_success);
    r.v["lift.pairs_unreachable"] = double(lr.n_unreachable);
    r.v["lift.pairs_timeout"] = double(lr.n_timeout);
    r.v["lift.pairs_conversion_failed"] = double(lr.n_conversion_failed);
    r.v["lift.formal_attempts"] = double(attempts);
    r.v["lift.fuzz_fallbacks"] = double(fallbacks);
    r.v["lift.suite_tests"] = double(wf.suite.size());
    // Memory lifting has no per-configuration outcomes: its suite
    // detects every Success pair by construction.
    r.v["lift.validated_ratio"] =
        configs ? double(validated) / double(configs)
                : (n ? double(lr.n_success) / double(n) : 0.0);
}

Rep
run_rep(const WorkloadSpec &w, Setup &s, uint64_t seed, bool traced,
        const std::string &scratch, int index)
{
    Rep r;
    r.traced = traced;
    g_spans.run_id = uint64_t(index);
    WorkflowConfig cfg = workflow_config(w);

    std::string journal_dir;
    campaign::CampaignConfig cc;
    cc.seed = seed;
    cc.num_jobs = w.campaign_jobs;
    cc.threads = kThreads;
    if (w.journal_flush_every) {
        journal_dir = scratch + "/journal-" + std::to_string(getpid()) +
                      "-" + std::to_string(index);
        std::filesystem::remove_all(journal_dir);
        std::filesystem::create_directories(journal_dir);
        cc.journal_path = journal_dir + "/campaign.journal";
        cc.journal_flush_every = w.journal_flush_every;
    }
    fleet::FleetConfig fc;
    fc.seed = seed;
    fc.num_devices = w.fleet_devices;
    fc.epochs = kFleetEpochs;
    fc.threads = kThreads;

    // The timed window: run_workflow through the workload's last call.
    WorkflowResult wf;
    std::optional<campaign::CampaignReport> crep;
    std::optional<fleet::FaultMatrix> matrix;
    std::optional<fleet::FleetReport> frep;
    double run_s = 0, json_s = 0, matrix_s = 0, fleet_s = 0;
    double cpu0 = cpu_seconds();
    {
        Span total("workload");
        if (traced) {
            wf = run_workflow_steps(s, cfg);
        } else {
            Span sp("vega.run_workflow");
            wf = run_workflow(s.module, s.lib, s.trace, cfg);
        }
        std::vector<sta::EndpointPair> pairs = lifted_pairs(wf);
        if (w.campaign_jobs) {
            Span sp("campaign.try_run_campaign");
            Expected<campaign::CampaignReport> got =
                campaign::try_run_campaign(s.module, pairs, wf.suite, cc);
            run_s = sp.stop();
            if (!got) {
                std::fprintf(stderr, "campaign failed: %s\n",
                             got.error().to_string().c_str());
                check(r, false, "try_run_campaign failed");
                return r;
            }
            crep = std::move(got).value();
            Span js("campaign.CampaignReport::to_json");
            check(r, !crep->to_json().empty(), "empty campaign report");
            json_s = js.stop();
        }
        if (w.fleet_devices) {
            Span ms("fleet.build_fault_matrix");
            Expected<fleet::FaultMatrix> got = fleet::build_fault_matrix(
                s.module, pairs, wf.suite,
                {lift::FaultConstant::Zero, lift::FaultConstant::One},
                kThreads, seed);
            matrix_s = ms.stop();
            if (!got) {
                std::fprintf(stderr, "matrix failed: %s\n",
                             got.error().to_string().c_str());
                check(r, false, "build_fault_matrix failed");
                return r;
            }
            matrix = std::move(got).value();
            Span fs("fleet.run_fleet");
            Expected<fleet::FleetReport> ran = fleet::run_fleet(fc, *matrix);
            fleet_s = fs.stop();
            if (!ran) {
                std::fprintf(stderr, "fleet failed: %s\n",
                             ran.error().to_string().c_str());
                check(r, false, "run_fleet failed");
                return r;
            }
            frep = std::move(ran).value();
            Span js("fleet.FleetReport::to_json");
            check(r, !frep->to_json().empty(), "empty fleet report");
            js.stop();
        }
        r.wall_s = total.stop();
    }
    r.cpu_s = cpu_seconds() - cpu0;
    if (!journal_dir.empty())
        std::filesystem::remove_all(journal_dir);

    // Checks, accounting and the digest of the timing-free output.
    Crc32c crc;
    account_lifting(r, wf, crc);
    r.v["items_per_s"] = double(wf.lift.pairs.size()) / r.wall_s;
    r.v["screen_detection_ratio"] = r.v["lift.validated_ratio"];
    if (crep) {
        const campaign::CampaignReport &rep = *crep;
        uint64_t completed = rep.jobs.size();
        check(r, rep.detected + rep.escapes + rep.benign == completed,
              "detected + escapes + benign != completed jobs");
        check(r, completed + rep.failed == cc.num_jobs,
              "completed + failed != jobs");
        check(r, rep.corrupting > 0, "no corrupting injections");
        r.attempted += cc.num_jobs;
        r.failed += rep.failed;
        crc.update(rep.to_json(false));

        const campaign::CampaignTiming &t = rep.timing;
        r.v["items_per_s"] = double(cc.num_jobs) / (run_s + json_s);
        r.v["screen_detection_ratio"] =
            rep.corrupting ? double(rep.corrupting - rep.escapes) /
                                 double(rep.corrupting)
                           : 0.0;
        r.v["campaign.run_s"] = run_s;
        r.v["campaign.report_json_s"] = json_s;
        r.v["campaign.characterize_s"] = t.characterize_seconds;
        r.v["campaign.simulate_s"] = t.simulate_seconds;
        r.v["campaign.journal_s"] = t.journal_seconds;
        r.v["campaign.aggregate_s"] = t.aggregate_seconds;
        r.v["campaign.journal_wait_ratio"] =
            t.simulate_seconds > 0
                ? t.journal_seconds /
                      (double(kThreads) * t.simulate_seconds)
                : 0.0;
        r.v["campaign.journal_flushes"] = double(t.journal_flushes);
        r.v["campaign.journal_bytes"] = double(t.journal_bytes);
        r.v["campaign.steals"] = double(t.steals);
        r.v["campaign.peak_queue_depth"] = double(t.peak_queue_depth);
        r.v["campaign.jobs"] = double(cc.num_jobs);
        r.v["campaign.jobs_failed"] = double(rep.failed);
        r.v["campaign.detection_rate"] = rep.detection_rate();
        r.v["campaign.sdc_escape_rate"] = rep.escape_rate();
        r.v["campaign.detect_latency_slots"] = rep.mean_latency_slots();
    }
    if (frep) {
        const fleet::FleetReport &rep = *frep;
        check(r, rep.device_epochs > 0, "no device-epochs simulated");
        check(r, rep.faulty_devices > 0, "no faulty devices");
        check(r,
              rep.detected_devices <= rep.faulty_devices &&
                  rep.missed_devices <= rep.faulty_devices,
              "fleet detections exceed faulty devices");
        check(r, matrix->faults.size() == 2 * wf.lift.pairs.size(),
              "matrix is missing fault classes");
        r.attempted += fc.num_devices;
        crc.update(rep.to_json(false));

        r.v["items_per_s"] =
            double(rep.device_epochs) / (matrix_s + fleet_s);
        r.v["screen_detection_ratio"] = rep.detection_rate();
        r.v["fleet.build_fault_matrix_s"] = matrix_s;
        r.v["fleet.run_fleet_s"] = fleet_s;
        r.v["fleet.matrix_share"] = matrix_s / (matrix_s + fleet_s);
        r.v["fleet.device_epochs"] = double(rep.device_epochs);
        r.v["fleet.detection_rate"] = rep.detection_rate();
        r.v["fleet.miss_rate"] =
            rep.faulty_devices ? double(rep.missed_devices) /
                                     double(rep.faulty_devices)
                               : 0.0;
    }
    r.digest = crc.value();
    r.v["wall_s"] = r.wall_s;
    r.v["proc.cpu_s"] = r.cpu_s;
    r.v["proc.cpu_util"] = r.cpu_s / (double(kThreads) * r.wall_s);
    return r;
}

// ---------------------------------------------------------------------
// Span summary: count, total and self time per name, with self time
// derived from nesting on each thread.

struct SpanStat
{
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
};

struct FlatSpan
{
    const char *name;
    uint32_t tid;
    uint64_t ts, dur;
};

std::map<std::string, SpanStat>
span_summary(std::vector<FlatSpan> events)
{
    std::sort(events.begin(), events.end(),
              [](const FlatSpan &a, const FlatSpan &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  return a.dur > b.dur;
              });
    std::map<std::string, SpanStat> out;
    struct Open
    {
        const FlatSpan *e;
        uint64_t child_ns;
    };
    std::vector<Open> stack;
    auto close = [&](const Open &o) {
        SpanStat &st = out[o.e->name];
        st.self_ns += o.e->dur > o.child_ns ? o.e->dur - o.child_ns : 0;
    };
    uint32_t tid = 0;
    for (const FlatSpan &e : events) {
        if (e.tid != tid) {
            for (; !stack.empty(); stack.pop_back())
                close(stack.back());
            tid = e.tid;
        }
        while (!stack.empty() &&
               stack.back().e->ts + stack.back().e->dur <= e.ts) {
            close(stack.back());
            stack.pop_back();
        }
        SpanStat &st = out[e.name];
        ++st.count;
        // A span nested in a same-named one adds no new wall time.
        bool nested_same = false;
        for (const Open &o : stack)
            nested_same |= !std::strcmp(o.e->name, e.name);
        if (!nested_same)
            st.total_ns += e.dur;
        if (!stack.empty())
            stack.back().child_ns += e.dur;
        stack.push_back({&e, 0});
    }
    for (; !stack.empty(); stack.pop_back())
        close(stack.back());
    return out;
}

/** Library spans plus the benchmark's own spans since @p first, the
 *  latter placed on the main thread's tracer id. */
std::vector<FlatSpan>
merged_spans(const std::vector<obs::TraceEvent> &lib, uint32_t main_tid,
             size_t first)
{
    std::vector<FlatSpan> out;
    out.reserve(lib.size() + g_spans.spans.size() - first);
    for (const obs::TraceEvent &e : lib)
        out.push_back({e.name, e.tid, e.ts_ns, e.dur_ns});
    for (size_t i = first; i < g_spans.spans.size(); ++i) {
        const BenchSpan &b = g_spans.spans[i];
        out.push_back({b.name, main_tid, b.ts_ns, b.dur_ns});
    }
    return out;
}

uint64_t
counter_value(const obs::MetricsSnapshot &snap, const char *name)
{
    for (const auto &[n, v] : snap.counters)
        if (n == name)
            return v;
    return 0;
}

/** Per-layer values a traced repetition reads from spans and counters. */
void
layer_values(Rep &r, const std::map<std::string, SpanStat> &sum,
             const obs::MetricsSnapshot &snap)
{
    auto total_s = [&](const char *name) {
        auto it = sum.find(name);
        return it == sum.end() ? 0.0 : double(it->second.total_ns) * 1e-9;
    };
    auto count = [&](const char *name) {
        auto it = sum.find(name);
        return it == sum.end() ? 0.0 : double(it->second.count);
    };
    auto ctr = [&](const char *name) {
        return double(counter_value(snap, name));
    };
    r.v["vega.aging_analysis_s"] = total_s("vega.run_aging_analysis");
    r.v["lift.error_lifting_s"] = total_s("lift.run_error_lifting") +
                                  total_s("mem.run_decoder_lifting");
    r.v["sta.run_s"] = total_s("sta.run");
    r.v["sta.paths_enumerated"] = ctr("sta.paths_enumerated");
    r.v["bmc.batch_run_s"] = total_s("bmc.batch_run");
    r.v["bmc.frames_unrolled"] = ctr("bmc.frames_unrolled");
    r.v["bmc.kinduction_proofs"] = ctr("bmc.kinduction_proofs");
    r.v["sat.solve_s"] = total_s("sat.solve");
    r.v["sat.solves"] = ctr("sat.solves");
    r.v["sat.conflicts"] = ctr("sat.conflicts");
    r.v["sat.propagations"] = ctr("sat.propagations");
    double lifting = r.v["lift.error_lifting_s"];
    r.v["lift.bmc_share"] = lifting > 0 ? r.v["bmc.batch_run_s"] / lifting
                                        : 0.0;
    double bc = ctr("sim.batch_cycles");
    r.v["sim.batch_cycles"] = bc;
    r.v["sim.batch_evals"] = ctr("sim.batch_evals");
    r.v["sim.batch_evals_per_edge"] = bc > 0 ? ctr("sim.batch_evals") / bc
                                             : 0.0;
    r.v["sim.lane_occupancy"] =
        bc > 0 ? ctr("sim.lane_cycles") / (64.0 * bc) : 0.0;
    r.v["sim.cycles"] = ctr("sim.cycles");
    r.v["sim.evals"] = ctr("sim.evals");
    r.v["sim.tape_builds"] = ctr("sim.tape_builds");
    r.v["campaign.waves"] = count("campaign.wave");
    double matrix_s = r.v["fleet.build_fault_matrix_s"];
    r.v["fleet.matrix_parallel_eff"] =
        matrix_s > 0
            ? total_s("fleet.characterize") / (double(kThreads) * matrix_s)
            : 0.0;
}

// ---------------------------------------------------------------------
// Output

/** Metric name → unit, end-to-end (trace 0) then per-layer (trace 1). */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"lift_success_ratio", "ratio"},
    {"screen_detection_ratio", "ratio"},
};

const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"aging.timing_library_s", "s"},
    {"rtl.make_module_s", "s"},
    {"cpu.workload_trace_s", "s"},
    {"vega.aging_analysis_s", "s"},
    {"sta.run_s", "s"},
    {"sta.paths_enumerated", "count"},
    {"lift.error_lifting_s", "s"},
    {"lift.pairs_success", "count"},
    {"lift.pairs_unreachable", "count"},
    {"lift.pairs_timeout", "count"},
    {"lift.pairs_conversion_failed", "count"},
    {"lift.formal_attempts", "count"},
    {"lift.fuzz_fallbacks", "count"},
    {"lift.suite_tests", "count"},
    {"lift.bmc_share", "ratio"},
    {"bmc.batch_run_s", "s"},
    {"bmc.frames_unrolled", "count"},
    {"bmc.kinduction_proofs", "count"},
    {"sat.solve_s", "s"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sim.batch_cycles", "count"},
    {"sim.batch_evals", "count"},
    {"sim.batch_evals_per_edge", "ratio"},
    {"sim.lane_occupancy", "ratio"},
    {"sim.cycles", "count"},
    {"sim.evals", "count"},
    {"sim.tape_builds", "count"},
    {"campaign.run_s", "s"},
    {"campaign.characterize_s", "s"},
    {"campaign.simulate_s", "s"},
    {"campaign.waves", "count"},
    {"campaign.journal_s", "s"},
    {"campaign.journal_wait_ratio", "ratio"},
    {"campaign.journal_flushes", "count"},
    {"campaign.journal_bytes", "bytes"},
    {"campaign.report_json_s", "s"},
    {"campaign.aggregate_s", "s"},
    {"campaign.steals", "count"},
    {"campaign.peak_queue_depth", "count"},
    {"campaign.jobs", "count"},
    {"campaign.jobs_failed", "count"},
    {"campaign.detection_rate", "ratio"},
    {"campaign.sdc_escape_rate", "ratio"},
    {"campaign.detect_latency_slots", "slots"},
    {"fleet.build_fault_matrix_s", "s"},
    {"fleet.run_fleet_s", "s"},
    {"fleet.matrix_share", "ratio"},
    {"fleet.matrix_parallel_eff", "ratio"},
    {"fleet.device_epochs", "count"},
    {"fleet.detection_rate", "ratio"},
    {"fleet.miss_rate", "ratio"},
    {"proc.cpu_s", "s"},
    {"proc.cpu_util", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.dropped", "count"},
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
metrics_json(const std::vector<std::pair<const char *, const char *>> &set,
             const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < set.size(); ++i) {
        auto it = values.find(set[i].first);
        double v = it == values.end() ? 0.0 : it->second;
        out += (i ? ", " : "") + quoted(set[i].first) + ": {\"value\": " +
               num(v) + ", \"unit\": " + quoted(set[i].second) + "}";
    }
    return out + "}";
}

/**
 * Each named value over the selected repetitions: the median, except
 * that wall_s is the least and items_per_s the most. Host load only
 * ever slows a repetition down, so the fastest one is the steadiest
 * estimate of what the code costs.
 */
std::map<std::string, double>
summarize(const std::vector<Rep> &reps, bool traced)
{
    std::map<std::string, std::vector<double>> all;
    for (const Rep &r : reps)
        if (r.traced == traced)
            for (const auto &[k, v] : r.v)
                all[k].push_back(v);
    std::map<std::string, double> out;
    for (auto &[k, vs] : all) {
        if (k == "wall_s")
            out[k] = *std::min_element(vs.begin(), vs.end());
        else if (k == "items_per_s")
            out[k] = *std::max_element(vs.begin(), vs.end());
        else
            out[k] = median(vs);
    }
    return out;
}

struct Options
{
    const WorkloadSpec *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
    std::string detail;
};

bool
parse_args(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = find_workload(v);
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--scratch")
            o.scratch = v;
        else if (k == "--detail")
            o.detail = v;
        else
            return false;
    }
    return argc % 2 == 1 && o.workload && o.seconds > 0;
}

std::string
provenance_json(const Options &o)
{
    bool optimized = false;
#ifdef __OPTIMIZE__
    optimized = true;
#endif
    bool asserts = true;
#ifdef NDEBUG
    asserts = false;
#endif
    std::string s = "{";
    s += "\"workload\": " + quoted(o.workload->name);
    s += ", \"seed\": " + std::to_string(o.seed);
    s += ", \"threads\": " + std::to_string(kThreads);
    s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    s += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
    s += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
    s += ", \"cxx_flags\": " + quoted(PERFBENCH_CXX_FLAGS);
    s += ", \"optimized\": " + std::string(optimized ? "true" : "false");
    s += ", \"asserts\": " + std::string(asserts ? "true" : "false");
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse_args(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: %s --workload lift-fpu|campaign-alu|"
                     "fleet-alu|campaign-mem --seed N --seconds S "
                     "--trace 0|1 [--scratch DIR] [--detail FILE]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadSpec &w = *o.workload;
    std::string prov = provenance_json(o);
    std::fprintf(stderr, "perfbench: %s\n", prov.c_str());

    // Set-up samples, several before the repetitions and more after
    // each, so they span the run: setup_s is their median.
    std::vector<double> setup_s, lib_s, module_s, trace_s;
    auto time_setups = [&](int samples) {
        for (int i = 0; i < samples; ++i) {
            double total = 0, lib = 0, module = 0, trace = 0;
            for (int k = 0; k < kSetupBatch; ++k) {
                size_t first = g_spans.spans.size();
                run_setup(w, o.seed);
                const BenchSpan *sp = &g_spans.spans[first];
                total += double(sp[0].dur_ns);
                lib += double(sp[1].dur_ns);
                module += double(sp[2].dur_ns);
                trace += double(sp[3].dur_ns);
            }
            double per = 1e-9 / kSetupBatch;
            setup_s.push_back(total * per);
            lib_s.push_back(lib * per);
            module_s.push_back(module * per);
            trace_s.push_back(trace * per);
        }
    };
    // One untraced warm-up repetition, checked but not reported, so the
    // allocator and page cache are warm before anything is timed. Then
    // the first set-up samples, and repetitions until --seconds (all of
    // this included) are used: untraced only on --trace 0, untraced and
    // traced alternately on --trace 1. A repetition starts only if it
    // is expected to end in time; kMinReps always run.
    std::vector<Rep> reps;
    std::vector<std::map<std::string, SpanStat>> summaries;
    uint64_t dropped = 0;
    auto t0 = std::chrono::steady_clock::now();
    Setup setup = run_setup(w, o.seed);
    Rep warm = run_rep(w, setup, o.seed, false, o.scratch, 0);
    std::fprintf(stderr, "perfbench: warm-up wall %.3fs digest %08x\n",
                 warm.wall_s, warm.digest);
    time_setups(kSetupSamples);
    for (int i = 0; warm.ok; ++i) {
        bool traced = o.trace && i % 2 == 1;
        size_t first_span = g_spans.spans.size();
        uint32_t main_tid = 0;
        if (traced) {
            obs::reset_metrics();
            obs::trace_enable(kTraceRing);
        }
        Rep r;
        {
            obs::ScopedSpan marker("perfbench.rep");
            r = run_rep(w, setup, o.seed, traced, o.scratch, i + 1);
        }
        if (traced) {
            obs::trace_disable();
            std::vector<obs::TraceEvent> lib = obs::trace_collect();
            for (const obs::TraceEvent &e : lib)
                if (!std::strcmp(e.name, "perfbench.rep"))
                    main_tid = e.tid;
            dropped += obs::trace_dropped();
            summaries.push_back(
                span_summary(merged_spans(lib, main_tid, first_span)));
            layer_values(r, summaries.back(), obs::snapshot_metrics());
        }
        std::fprintf(stderr,
                     "perfbench: rep %d%s wall %.3fs digest %08x%s%s\n", i,
                     traced ? " (traced)" : "", r.wall_s, r.digest,
                     r.ok ? "" : " CHECK FAILED: ", r.why.c_str());
        reps.push_back(std::move(r));
        if (!reps.back().ok)
            break;
        time_setups(kSetupSamplesPerRep);
        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        double per_rep = elapsed / double(reps.size() + 1);
        if (reps.size() >= kMinReps && elapsed + per_rep > o.seconds)
            break;
    }

    // Correctness: every check passed and every digest agrees, the
    // warm-up's included.
    bool correct = warm.ok;
    uint64_t attempted = warm.attempted, failed = warm.failed;
    for (const Rep &r : reps) {
        correct &= r.ok && r.digest == warm.digest;
        attempted += r.attempted;
        failed += r.failed;
    }
    if (o.trace)
        correct &= dropped == 0;

    std::map<std::string, double> values;
    if (!o.trace) {
        values = summarize(reps, false);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peak_rss_mb();
    } else {
        values = summarize(reps, true);
        std::map<std::string, double> plain = summarize(reps, false);
        values["proc.cpu_s"] = plain["proc.cpu_s"];
        values["proc.cpu_util"] = plain["proc.cpu_util"];
        values["trace.overhead_ratio"] =
            plain["wall_s"] > 0 ? values["wall_s"] / plain["wall_s"] : 0.0;
        values["trace.dropped"] = double(dropped);
        values["aging.timing_library_s"] = median(lib_s);
        values["rtl.make_module_s"] = median(module_s);
        values["cpu.workload_trace_s"] = median(trace_s);
    }

    if (!o.detail.empty()) {
        std::string d = "{\"provenance\": " + prov;
        d += ", \"correct\": " + std::string(correct ? "true" : "false");
        d += ", \"digest\": " + quoted(crc32c_hex(warm.digest));
        d += ", \"setup_s\": [";
        for (size_t i = 0; i < setup_s.size(); ++i)
            d += (i ? ", " : "") + num(setup_s[i]);
        d += "], \"reps\": [";
        for (size_t i = 0; i < reps.size(); ++i) {
            const Rep &r = reps[i];
            d += std::string(i ? ", " : "") + "{\"traced\": " +
                 (r.traced ? "true" : "false") + ", \"ok\": " +
                 (r.ok ? "true" : "false") + ", \"why\": " + quoted(r.why) +
                 ", \"digest\": " + quoted(crc32c_hex(r.digest)) +
                 ", \"values\": {";
            size_t k = 0;
            for (const auto &[name, v] : r.v)
                d += (k++ ? ", " : "") + quoted(name) + ": " + num(v);
            d += "}}";
        }
        d += "], \"span_summary\": {";
        if (!summaries.empty()) {
            size_t k = 0;
            for (const auto &[name, st] : summaries.back())
                d += (k++ ? ", " : "") + quoted(name) +
                     ": {\"count\": " + std::to_string(st.count) +
                     ", \"total_s\": " + num(double(st.total_ns) * 1e-9) +
                     ", \"self_s\": " + num(double(st.self_ns) * 1e-9) +
                     "}";
        }
        d += "}, \"bench_spans\": [";
        for (size_t i = 0; i < g_spans.spans.size(); ++i) {
            const BenchSpan &b = g_spans.spans[i];
            d += std::string(i ? ", " : "") + "{\"run\": " +
                 std::to_string(b.run_id) + ", \"id\": " +
                 std::to_string(b.id) + ", \"parent\": " +
                 std::to_string(b.parent) + ", \"name\": " +
                 quoted(b.name) + ", \"dur_s\": " +
                 num(double(b.dur_ns) * 1e-9) + "}";
        }
        d += "]}\n";
        if (FILE *f = std::fopen(o.detail.c_str(), "w")) {
            std::fputs(d.c_str(), f);
            std::fclose(f);
        }
    }

    // Human-readable span summary for the traced run.
    if (!summaries.empty()) {
        std::fprintf(stderr, "%-40s %8s %12s %12s\n", "span", "count",
                     "total s", "self s");
        for (const auto &[name, st] : summaries.back())
            std::fprintf(stderr, "%-40s %8llu %12.4f %12.4f\n",
                         name.c_str(), (unsigned long long)st.count,
                         double(st.total_ns) * 1e-9,
                         double(st.self_ns) * 1e-9);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed,
                metrics_json(o.trace ? kPerLayer : kEndToEnd, values)
                    .c_str());
    return 0;
}
