#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <mutex>
#include <optional>
#include <variant>

#include "campaign/journal.h"
#include "campaign/shard.h"
#include "campaign/thread_pool.h"
#include "campaign/wave.h"
#include "common/fs.h"
#include "common/logging.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::campaign {

namespace {

/**
 * Per-worker job counter (`campaign.jobs.w<N>`), resolved once per
 * worker via thread-local caching — the registry lookup (a map probe
 * under a mutex) only happens on each worker's first job.
 */
obs::Counter &
worker_jobs_counter()
{
    static obs::Counter &fallback = obs::counter("campaign.jobs.main");
    thread_local obs::Counter *c = [] {
        int w = ThreadPool::current_worker();
        if (w < 0)
            return &fallback;
        return &obs::counter("campaign.jobs.w" + std::to_string(w));
    }();
    return *c;
}

/**
 * Resolve job @p id from its splitmix64 stream. Pairs are covered
 * round-robin (every pair in the working set gets injected); the
 * constant, policy, and downstream seed are Monte Carlo draws.
 */
JobSpec
make_spec(const CampaignConfig &cfg, size_t npairs, uint64_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.pair_index = size_t(id % npairs);
    uint64_t stream = job_stream(cfg.seed, id);
    spec.constant_index =
        size_t(splitmix64(stream) % kFaultConstants.size());
    spec.constant = kFaultConstants[spec.constant_index];
    spec.policy = kPolicies[splitmix64(stream) % kPolicies.size()];
    spec.probability = cfg.probability;
    spec.seed = splitmix64(stream);
    spec.max_slots = cfg.max_slots;
    return spec;
}

/**
 * One march-test injection: the classified wrong-address fault mounted
 * as the ISS's data-memory backend, screened slot by slot by the aging
 * library until the suite fires or the slot budget runs out.
 */
JobResult
run_mem_job(const mem::MemFaultClass &cls,
            const std::vector<runtime::TestCase> &suite, const JobSpec &spec)
{
    JobResult res;
    res.id = spec.id;
    res.pair_index = spec.pair_index;
    res.constant = spec.constant;
    res.policy = spec.policy;

    mem::MarchEngine engine(cls);
    runtime::AgingLibraryOptions opt;
    opt.policy = spec.policy;
    opt.probability = spec.probability;
    opt.seed = spec.seed;
    runtime::AgingLibrary lib(&suite, opt);

    for (uint64_t slot = 0; slot < spec.max_slots; ++slot) {
        runtime::Detection d = lib.run_next(engine);
        if (d != runtime::Detection::None) {
            res.detected = true;
            res.kind = d;
            res.slots_to_detect = slot + 1;
            break;
        }
    }
    res.tests_dispatched = lib.runs();
    res.sim_cycles = engine.cycles();
    return res;
}

/**
 * One finished injection batch: the jobs todo[base, base + kWaveLanes),
 * waiting to be settled in order.
 */
struct BatchRun
{
    size_t base = 0;
    /** Bit k: job base + k got a lane (results holds it, in order). */
    uint64_t laned = 0;
    std::vector<JobResult> results;
    /** Per job when the fault hook is set: what it threw, if anything. */
    std::vector<std::string> hook_error;
    /** What the executor threw; it quarantines every laned job. */
    std::string exec_error;
};

} // namespace

Expected<CampaignReport>
try_run_campaign(const HwModule &module,
                 const std::vector<sta::EndpointPair> &pairs,
                 const std::vector<runtime::TestCase> &suite,
                 const CampaignConfig &config)
{
    if (pairs.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs endpoint pairs");
    if (suite.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs a non-empty suite");
    if (config.num_jobs == 0)
        return make_error(ErrorCode::InvalidArgument,
                          "campaign needs jobs");
    if (config.num_shards == 0 ||
        config.shard_id >= config.num_shards)
        return make_error(ErrorCode::InvalidArgument,
                          "shard id " + std::to_string(config.shard_id) +
                              " out of range for " +
                              std::to_string(config.num_shards) +
                              " shards");

    CampaignConfig cfg = config;
    if (cfg.max_slots == 0)
        cfg.max_slots = 2 * suite.size();
    size_t npairs = pairs.size();
    size_t nconst = kFaultConstants.size();

    JournalHeader header;
    header.module = module_kind_name(module.kind);
    header.seed = cfg.seed;
    header.num_jobs = cfg.num_jobs;
    header.num_pairs = npairs;
    header.num_constants = nconst;
    header.num_policies = kPolicies.size();
    header.max_slots = cfg.max_slots;
    header.suite_size = suite.size();
    header.probability = cfg.probability;
    header.num_shards = cfg.num_shards;
    header.shard_id = cfg.shard_id;
    ShardSpec shard{cfg.num_shards, cfg.shard_id};

    // Results keyed by job id; `skip` marks jobs already settled by a
    // prior run (completed or quarantined — quarantine is sticky).
    std::vector<std::optional<JobResult>> done(cfg.num_jobs);
    std::vector<FailedJob> failed;
    std::vector<char> skip(cfg.num_jobs, 0);

    JournalWriter journal;
    if (!cfg.journal_path.empty()) {
        JournalState prior;
        const JournalState *prior_ptr = nullptr;
        if (cfg.resume && file_exists(cfg.journal_path)) {
            Expected<JournalState> st = read_journal(cfg.journal_path);
            if (!st)
                return st.error();
            if (!(st->header == header))
                return make_error(
                    ErrorCode::JournalMismatch,
                    cfg.journal_path + ": journal '" +
                        st->header.to_string() +
                        "' was written by a different campaign "
                        "configuration ('" +
                        header.to_string() + "')");
            prior = std::move(*st);
            prior_ptr = &prior;
            for (const JobResult &r : prior.completed)
                if (r.id < cfg.num_jobs && !skip[r.id]) {
                    done[r.id] = r;
                    skip[r.id] = 1;
                }
            for (const FailedJob &f : prior.failed)
                if (f.id < cfg.num_jobs && !skip[f.id]) {
                    failed.push_back(f);
                    skip[f.id] = 1;
                }
        }
        Expected<void> opened =
            journal.open(cfg.journal_path, header, prior_ptr,
                         cfg.journal_flush_every);
        if (!opened)
            return opened.error();
    }

    // The work list: job ids this shard owns and no prior run has
    // settled. Specs are pure functions of (seed, id), so shards can
    // compute them independently and the union over shards is exactly
    // the unsharded job set.
    std::vector<uint64_t> todo;
    todo.reserve(size_t(shard_job_count(shard, cfg.num_jobs)));
    std::vector<char> needed(npairs * nconst, 0);
    for (uint64_t id = 0; id < cfg.num_jobs; ++id) {
        if (!shard_owns(shard, id) || skip[id])
            continue;
        todo.push_back(id);
        JobSpec spec = make_spec(cfg, npairs, id);
        needed[spec.pair_index * nconst + spec.constant_index] = 1;
    }
    size_t needed_count = 0;
    for (char n : needed)
        needed_count += size_t(n);

    auto t0 = std::chrono::steady_clock::now();
    auto since_start = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    ThreadPool pool(cfg.threads);
    std::optional<ProgressMeter> meter;
    if (cfg.progress || cfg.progress_sink)
        meter.emplace(needed_count + todo.size(),
                      cfg.progress_interval, cfg.progress_sink);

    // Executors. Functional-unit faults all live in ONE bank netlist
    // (disabled faults are exact pass-throughs) compiled to ONE shared
    // tape, and run as 64-lane waves over it; memory faults run on the
    // march engine, a batch's jobs one after another. Either way jobs
    // are bucketed, in id order, into batches of kWaveLanes, one pool
    // task each.
    const bool mem_module = is_mem_module(module.kind);
    std::vector<size_t> pending_faults;
    pending_faults.reserve(needed_count);
    for (size_t idx = 0; idx < npairs * nconst; ++idx)
        if (needed[idx])
            pending_faults.push_back(idx);

    // Characterization pass: once per unique fault — never per job —
    // probe whether the fault corrupts the representative workload.
    // Only faults some pending job of this shard actually injects are
    // probed, so shards (and resumed runs) don't redo the whole matrix.
    // A batch that throws poisons only the jobs that depend on its
    // faults; they quarantine instead of crashing the run.
    std::vector<mem::MemFaultClass> mem_faults(
        mem_module ? npairs * nconst : 0);
    std::vector<char> corrupts(npairs * nconst, 0);
    std::vector<std::string> char_error(npairs * nconst);
    WaveContext wave_ctx;
    std::vector<size_t> bank_pos(npairs * nconst, SIZE_MAX);
    if (!mem_module && !pending_faults.empty()) {
        std::vector<lift::FailureModelSpec> bank_specs;
        for (size_t idx : pending_faults) {
            bank_pos[idx] = bank_specs.size();
            bank_specs.push_back(fault_spec(pairs[idx / nconst],
                                            kFaultConstants[idx % nconst]));
        }
        try {
            VEGA_SPAN("campaign.build_bank");
            wave_ctx = make_wave_context(module, bank_specs);
            wave_ctx.suite = &suite;
        } catch (...) {
            std::string why = current_exception_text();
            for (size_t idx : pending_faults)
                char_error[idx] = why;
            pending_faults.clear();
        }
    }

    // Characterization batches, one pool task each: functional-unit
    // faults in kWaveLanes-wide chunks, one probe wave per chunk. A
    // memory fault is its pair's slow decoder gate — the constant axis
    // does not apply — so memory slots are grouped by gate, and each
    // gate is classified once for all of its (pair, C) slots.
    std::vector<std::vector<size_t>> char_batches;
    std::vector<CellId> mem_gates; // per batch, memory modules only
    if (mem_module) {
        for (size_t idx : pending_faults) {
            CellId gate = mem::pick_decoder_gate(module.netlist,
                                                 pairs[idx / nconst].worst);
            size_t b = size_t(std::find(mem_gates.begin(), mem_gates.end(),
                                        gate) -
                              mem_gates.begin());
            if (b == mem_gates.size()) {
                mem_gates.push_back(gate);
                char_batches.emplace_back();
            }
            char_batches[b].push_back(idx);
        }
    } else {
        for (size_t base = 0; base < pending_faults.size();
             base += kWaveLanes) {
            size_t end = std::min(base + kWaveLanes, pending_faults.size());
            char_batches.emplace_back(pending_faults.begin() + long(base),
                                      pending_faults.begin() + long(end));
        }
    }

    auto characterize = [&](size_t b) {
        const std::vector<size_t> &batch = char_batches[b];
        if (mem_module) {
            if (mem_gates[b] == kInvalidId)
                throw std::runtime_error("no decode gate on worst path");
            mem::MemFaultClass cls =
                mem::classify_slow_gate(module.netlist, mem_gates[b]);
            bool corrupting = mem::mem_workload_corrupts(cls);
            for (size_t idx : batch) {
                mem_faults[idx] = cls;
                corrupts[idx] = corrupting;
            }
            return;
        }
        std::vector<Episode> probes;
        probes.reserve(batch.size());
        for (size_t idx : batch)
            probes.push_back(probe_episode(
                module.kind, bank_pos[idx],
                job_stream(~cfg.seed, uint64_t(idx))));
        std::vector<EpisodeResult> got = characterize_wave(wave_ctx, probes);
        for (size_t i = 0; i < batch.size(); ++i)
            corrupts[batch[i]] = probe_corrupts(module.kind, got[i]);
    };
    // Injection pass: the Monte Carlo jobs proper. Results land in
    // slots keyed by job id, so completion order is irrelevant. Every
    // settled job is checkpointed to the journal before its batch's
    // task moves on.
    std::mutex state_mu;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> journal_nanos{0};
    size_t completed_this_run = 0;
    size_t settled_this_run = 0;
    uint64_t cycles_this_run = 0;

    // A functional-unit injection wave does not need its fault's
    // verdict to run: only a job's corrupts_workload and escape fields
    // (and a characterization quarantine) do. So both passes run at
    // once, and a batch that finishes while verdicts are outstanding
    // parks; the last characterization batch settles what is parked.
    std::mutex park_mu;
    size_t verdicts_left = char_batches.size(); // guarded by park_mu
    std::vector<BatchRun> parked;               // guarded by park_mu
    double characterize_wall = 0.0;

    // Settle a finished batch once every verdict is in. Each job's
    // outcome, a result or a quarantine, is resolved outside any lock;
    // one state_mu section then stores the outcomes in id order. Stop
    // and kill stay per job: the section ends at the job that reaches
    // stop_after_jobs or kill_after_jobs, and a stop raised earlier
    // drops the batch's remaining jobs, which a resume re-runs. The
    // settled jobs' records are then framed outside every lock and
    // appended in one call (journal.h). Record order across threads is
    // arbitrary, which is fine: replay is keyed by job id. A failed
    // write is sticky in the writer, and sealing the journal returns
    // it.
    const bool journaling = journal.is_open();
    auto batch_jobs = [&](size_t base) {
        return std::min(kWaveLanes, todo.size() - base);
    };
    auto settle_batch = [&](const BatchRun &run) {
        // One span per settled batch of jobs, not one per job.
        VEGA_SPAN("campaign.job");
        const size_t n = batch_jobs(run.base);
        // Each job's outcome, in id order.
        std::vector<std::variant<JobResult, FailedJob>> outcomes;
        outcomes.reserve(n);
        size_t ri = 0;
        for (size_t k = 0; k < n; ++k) {
            JobSpec s = make_spec(cfg, npairs, todo[run.base + k]);
            size_t idx = s.pair_index * nconst + s.constant_index;
            const JobResult *ran = nullptr;
            if ((run.laned >> k) & 1 && run.exec_error.empty())
                ran = &run.results[ri++];
            std::string why;
            if (!char_error[idx].empty())
                why = "characterization: " + char_error[idx];
            else if (!run.hook_error.empty() && !run.hook_error[k].empty())
                why = run.hook_error[k];
            else if (!run.exec_error.empty())
                why = run.exec_error;
            if (why.empty()) {
                JobResult &jr =
                    std::get<JobResult>(outcomes.emplace_back(*ran));
                jr.corrupts_workload = corrupts[idx] != 0;
                jr.escape = jr.corrupts_workload && !jr.detected;
                continue;
            }
            FailedJob f;
            f.id = s.id;
            f.pair_index = s.pair_index;
            // A job whose characterization failed never ran.
            f.attempts = char_error[idx].empty() ? 1 : 0;
            f.error = make_error(ErrorCode::JobFailed, std::move(why));
            outcomes.emplace_back(std::move(f));
        }

        size_t settled = 0;
        uint64_t cycles = 0;
        bool kill = false;
        {
            std::lock_guard<std::mutex> lk(state_mu);
            for (; settled < n && !kill &&
                   !stop.load(std::memory_order_relaxed);
                 ++settled) {
                const auto &o = outcomes[settled];
                if (const auto *f = std::get_if<FailedJob>(&o)) {
                    failed.push_back(*f);
                    continue;
                }
                const JobResult &jr = std::get<JobResult>(o);
                done[jr.id] = jr;
                cycles += jr.sim_cycles;
                ++completed_this_run;
                if (cfg.stop_after_jobs &&
                    completed_this_run >= cfg.stop_after_jobs)
                    stop.store(true, std::memory_order_relaxed);
                kill = cfg.kill_after_jobs &&
                       completed_this_run >= cfg.kill_after_jobs;
            }
            settled_this_run += settled;
            cycles_this_run += cycles;
        }
        static obs::Counter &jobs_counter = obs::counter("campaign.jobs");
        jobs_counter.add(settled);
        worker_jobs_counter().add(settled);

        if (journaling && settled > 0) {
            auto jt0 = std::chrono::steady_clock::now();
            JournalBatch lines;
            for (size_t k = 0; k < settled; ++k)
                std::visit([&lines](const auto &o) { lines.add(o); },
                           outcomes[k]);
            (void)journal.append(lines);
            journal_nanos.fetch_add(
                uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - jt0)
                             .count()),
                std::memory_order_relaxed);
        }
        // The real thing, not a simulation: SIGKILL is uncatchable, so
        // buffered journal records die with the process exactly as in
        // a production OOM kill. The trigger lands mid-batch: the
        // batch's later jobs ran but never settle.
        if (kill)
            std::raise(SIGKILL);
        if (meter)
            for (size_t k = 0; k < settled; ++k) {
                const auto *jr = std::get_if<JobResult>(&outcomes[k]);
                meter->job_done(jr ? jr->sim_cycles : 0);
            }
    };

    // Characterization batches are queued first, and the pool starts
    // tasks in submit order, so every probe wave starts before any
    // injection batch.
    for (size_t b = 0; b < char_batches.size(); ++b) {
        pool.submit([&, b] {
            {
                VEGA_SPAN("campaign.characterize");
                const std::vector<size_t> &batch = char_batches[b];
                try {
                    characterize(b);
                } catch (...) {
                    std::string why = current_exception_text();
                    for (size_t idx : batch)
                        char_error[idx] = why;
                }
                if (meter)
                    for (size_t i = 0; i < batch.size(); ++i)
                        meter->job_done(0);
            }
            std::vector<BatchRun> ready;
            {
                std::lock_guard<std::mutex> lk(park_mu);
                if (--verdicts_left > 0)
                    return;
                characterize_wall = since_start();
                ready.swap(parked);
            }
            for (const BatchRun &run : ready)
                settle_batch(run);
        });
    }
    // The march executor needs its classified fault, so memory
    // campaigns characterize first.
    if (mem_module)
        pool.wait_idle();
    if (char_batches.empty())
        characterize_wall = since_start();

    auto execute = [&](const std::vector<WaveJob> &lanes) {
        if (!mem_module) {
            VEGA_SPAN("campaign.wave");
            return run_wave(wave_ctx, lanes);
        }
        std::vector<JobResult> results;
        results.reserve(lanes.size());
        for (const WaveJob &job : lanes) {
            const JobSpec &s = job.spec;
            results.push_back(run_mem_job(
                mem_faults[s.pair_index * nconst + s.constant_index], suite,
                s));
        }
        return results;
    };

    auto run_batch = [&](size_t base) {
        if (stop.load(std::memory_order_relaxed))
            return;
        bool verdicts_in;
        {
            std::lock_guard<std::mutex> lk(park_mu);
            verdicts_in = verdicts_left == 0;
        }
        BatchRun run;
        run.base = base;
        if (cfg.job_fault_hook)
            run.hook_error.resize(batch_jobs(base));
        // A job whose characterization is known to have failed gets no
        // lane. The fault hook runs per job before the job gets a lane;
        // a throw quarantines the job.
        std::vector<WaveJob> lanes;
        for (size_t k = 0; k < batch_jobs(base); ++k) {
            JobSpec spec = make_spec(cfg, npairs, todo[base + k]);
            size_t idx = spec.pair_index * nconst + spec.constant_index;
            if (verdicts_in && !char_error[idx].empty())
                continue;
            if (cfg.job_fault_hook) {
                try {
                    cfg.job_fault_hook(spec);
                } catch (...) {
                    run.hook_error[k] = current_exception_text();
                    continue;
                }
            }
            run.laned |= uint64_t(1) << k;
            lanes.push_back({spec, bank_pos[idx]});
        }
        // An executor that throws quarantines every job it held.
        if (!lanes.empty()) {
            try {
                run.results = execute(lanes);
            } catch (...) {
                run.exec_error = current_exception_text();
            }
        }
        {
            std::lock_guard<std::mutex> lk(park_mu);
            if (verdicts_left > 0) {
                static obs::Counter &parked_counter =
                    obs::counter("campaign.jobs_parked");
                parked_counter.add(batch_jobs(base));
                parked.push_back(std::move(run));
                return;
            }
        }
        settle_batch(run);
    };
    // A task carries only its batch's first index, small enough for
    // std::function's inline storage.
    for (size_t base = 0; base < todo.size(); base += kWaveLanes)
        pool.submit([&run_batch, base] { run_batch(base); });
    pool.wait_idle();
    double simulate_wall = since_start();
    if (journaling) {
        // Every owned job settled => the shard is complete: seal the
        // journal with its integrity trailer so the aggregator will
        // accept it. An early stop leaves the journal trailerless —
        // resumable, but rejected at aggregation as shard-incomplete.
        auto jt0 = std::chrono::steady_clock::now();
        bool complete = settled_this_run == todo.size();
        Expected<void> sealed =
            complete ? journal.finalize() : journal.sync();
        journal_nanos.fetch_add(
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - jt0)
                         .count()),
            std::memory_order_relaxed);
        if (!sealed)
            return sealed.error();
    }

    auto t_agg = std::chrono::steady_clock::now();
    std::vector<JobResult> results;
    results.reserve(cfg.num_jobs);
    for (uint64_t id = 0; id < cfg.num_jobs; ++id)
        if (done[id])
            results.push_back(*done[id]);

    CampaignReport report =
        aggregate_report(header, std::move(results), std::move(failed));

    double wall = since_start();
    report.timing.wall_seconds = wall;
    // Rates count this run's work only: a resumed run's report also
    // holds jobs a prior run settled.
    report.timing.jobs_per_sec =
        wall > 0 ? double(completed_this_run) / wall : 0.0;
    report.timing.sims_per_sec =
        wall > 0 ? double(cycles_this_run) / wall : 0.0;
    report.timing.threads = pool.size();
    report.timing.peak_queue_depth = pool.peak_queued();
    report.timing.journal_flushes = journal.flushes();
    report.timing.journal_bytes = journal.bytes_written();
    report.timing.characterize_seconds = characterize_wall;
    report.timing.simulate_seconds = simulate_wall;
    report.timing.journal_seconds =
        double(journal_nanos.load(std::memory_order_relaxed)) * 1e-9;
    report.timing.aggregate_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_agg)
            .count();
    if (meter)
        meter->finish();
    return report;
}

CampaignReport
run_campaign(const HwModule &module,
             const std::vector<sta::EndpointPair> &pairs,
             const std::vector<runtime::TestCase> &suite,
             const CampaignConfig &config)
{
    Expected<CampaignReport> report =
        try_run_campaign(module, pairs, suite, config);
    VEGA_CHECK(report.ok(), "campaign: ", report.error().to_string());
    return std::move(report).value();
}

} // namespace vega::campaign
