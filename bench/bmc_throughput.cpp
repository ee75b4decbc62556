/**
 * @file
 * Formal-engine throughput: what suite-level batched cover solving buys
 * over solving the same targets one at a time.
 *
 * Both sides run the identical lift-corpus workload — aged-STA endpoint
 * pairs of the ALU32 and FPU32, shadow-instrumented exactly as
 * run_error_lifting submits them. Each pair contributes its Table-4
 * per-config trace targets (usually covered at a shallow bound) plus a
 * per-config detection-latency obligation (unreachable: walks every
 * bound before settling — the deepening-heavy half of the workload):
 *
 *  - "per-query": a loop of one-target check_cover calls, each on its
 *    own single-cone shadow netlist;
 *  - "batched":   ONE formal::CoverBatch suite per module over a
 *    lift::build_shadow_bank netlist holding every fault cone — the
 *    module logic is unrolled once per frame for the whole suite, every
 *    still-open target is resolved at each bound, and clauses learned
 *    refuting one target prune its siblings.
 *
 * Before timing counts, every target's verdict is cross-checked between
 * the two paths — a speedup on diverging results would be meaningless.
 * Results land in BENCH_bmc.json; `--smoke` shrinks the workload for CI
 * (numbers get noisy, schema and cross-check do not).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "formal/bmc.h"
#include "formal/cover_batch.h"
#include "lift/failure_model.h"
#include "netlist/builder.h"
#include "lift/instruction_builder.h"
#include "obs/metrics.h"
#include "sim/batch_sim.h"
#include "sim/sp_profiler.h"
#include "sta/sta.h"

using namespace vega;

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/** The test_lift aging recipe: tight calibration + parked-input SP so
 *  STA yields real violating pairs without a full workload profile. */
struct Corpus
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
};

Corpus
build_corpus(ModuleKind kind)
{
    Corpus c;
    c.module = kind == ModuleKind::Alu32 ? rtl::make_alu32()
                                         : rtl::make_fpu32();
    sta::calibrate_timing_scale(c.module, bench::timing_library(), 0.99);
    BatchSimulator sim(c.module.netlist);
    SpProfile profile = profile_signal_probability(
        sim, 64, [](BatchSimulator &, uint64_t) {});
    sta::AgedTiming aged = sta::compute_aged_timing(
        c.module, profile, bench::timing_library(), 10.0);
    c.pairs = sta::run_sta(c.module, aged).pairs;
    return c;
}

/** One per-query cover obligation of the workload. */
struct Query
{
    Netlist netlist{"q"};
    NetId target = kInvalidId;
    formal::BmcOptions opts;
};

/** Append a frame counter and the gated target "mismatch still firing
 *  at cycle n" to @p nl; n past max_frames makes every bound UNSAT, so
 *  the deepening loop walks the whole schedule — the encoding-bound
 *  query shape where shared frames pay off the most. */
NetId
add_latency_target(Netlist &nl, NetId mismatch, int max_frames,
                   const std::string &suffix)
{
    Builder b(nl, "lat" + suffix);
    const int bits = 5;
    const int n = max_frames + 2; // unreachable within the bound
    std::vector<NetId> cnt;
    for (int i = 0; i < bits; ++i)
        cnt.push_back(nl.new_net("lat_q" + suffix + std::to_string(i)));
    NetId carry = b.const1();
    for (int i = 0; i < bits; ++i) {
        NetId d = b.xor_(cnt[size_t(i)], carry);
        carry = b.and_(cnt[size_t(i)], carry);
        nl.add_dff("lat_ff" + suffix + std::to_string(i), d,
                   cnt[size_t(i)], false);
    }
    std::vector<NetId> at_n;
    for (int i = 0; i < bits; ++i)
        at_n.push_back((n >> i) & 1 ? cnt[size_t(i)]
                                    : b.not_(cnt[size_t(i)]));
    return b.and_(mismatch, b.and_n(at_n));
}

/**
 * The whole workload of one module, built both ways: index-aligned
 * per-query obligations (one shadow netlist each) and CoverBatch
 * target specs against one multi-cone shadow-bank netlist.
 */
struct Suite
{
    Netlist bank_netlist{"bank"};
    formal::BmcOptions bank_opts;
    std::vector<formal::CoverTargetSpec> targets;
    std::vector<Query> queries;
};

Suite
build_suite(const Corpus &c, ModuleKind kind, size_t max_pairs,
            int max_frames)
{
    Suite s;

    std::vector<lift::FailureModelSpec> specs;
    size_t used = 0;
    for (const sta::EndpointPair &pair : c.pairs) {
        if (pair.launch == kInvalidId)
            continue;
        for (lift::FaultConstant fc :
             {lift::FaultConstant::Zero, lift::FaultConstant::One}) {
            lift::FailureModelSpec spec;
            spec.launch = pair.launch;
            spec.capture = pair.capture;
            spec.is_setup = pair.is_setup;
            spec.constant = fc;
            specs.push_back(spec);
        }
        if (++used >= max_pairs)
            break;
    }

    // Per-query side: a single-cone shadow netlist per obligation. The
    // queries vector is fully built first so the batch specs can hold
    // stable witness-netlist pointers into it.
    for (const lift::FailureModelSpec &spec : specs) {
        lift::ShadowInstrumentation shadow =
            lift::build_shadow_instrumentation(c.module.netlist, spec);

        // The detection-latency obligation of this config...
        {
            Netlist lnl = shadow.netlist;
            NetId lt =
                add_latency_target(lnl, shadow.mismatch, max_frames, "");
            lnl.add_output_bus("latency_hit", {lt});
            Query lq;
            lq.target = lt;
            lq.opts.max_frames = max_frames;
            lq.opts.assumes = lift::build_assumes(lnl, kind);
            lq.opts.state_equalities = shadow.state_pairs;
            lq.netlist = std::move(lnl);
            s.queries.push_back(std::move(lq));
        }

        // ...plus the Table-4 trace target itself (usually covered at
        // a shallow bound).
        Query q;
        q.opts.max_frames = max_frames;
        q.opts.assumes = lift::build_assumes(shadow.netlist, kind);
        q.opts.state_equalities = shadow.state_pairs;
        q.target = shadow.mismatch;
        q.netlist = std::move(shadow.netlist);
        s.queries.push_back(std::move(q));
    }

    // Batch side: one bank netlist with every cone, one shared frame
    // counter gating every latency target, one assume set.
    lift::ShadowBank bank = lift::build_shadow_bank(c.module.netlist, specs);
    std::vector<NetId> latency_hits;
    size_t qi = 0;
    for (size_t j = 0; j < specs.size(); ++j) {
        {
            NetId lt = add_latency_target(
                bank.netlist, bank.cones[j].mismatch, max_frames,
                "_c" + std::to_string(j));
            latency_hits.push_back(lt);
            formal::CoverTargetSpec ts;
            ts.target = lt;
            ts.state_equalities = bank.cones[j].state_pairs;
            // Unreachable by construction: no witness netlist needed.
            s.targets.push_back(std::move(ts));
            ++qi;
        }
        formal::CoverTargetSpec ts;
        ts.target = bank.cones[j].mismatch;
        ts.state_equalities = bank.cones[j].state_pairs;
        ts.witness_netlist = &s.queries[qi].netlist;
        ts.witness_target = s.queries[qi].target;
        ts.witness_assumes = s.queries[qi].opts.assumes;
        s.targets.push_back(std::move(ts));
        ++qi;
    }
    bank.netlist.add_output_bus("latency_hit", latency_hits);
    s.bank_opts.max_frames = max_frames;
    s.bank_opts.assumes = lift::build_assumes(bank.netlist, kind);
    bank.netlist.validate();
    s.bank_netlist = std::move(bank.netlist);
    return s;
}

struct SideTotals
{
    double sec = 0;
    uint64_t frames_encoded = 0;
    std::vector<formal::BmcResult> results;
};

SideTotals
run_per_query(const Suite &s)
{
    SideTotals t;
    obs::Counter &encoded = obs::counter("bmc.frames_unrolled");
    uint64_t enc0 = encoded.value();
    double start = now_seconds();
    for (const Query &q : s.queries)
        t.results.push_back(formal::check_cover(q.netlist, q.target,
                                                q.opts));
    t.sec = now_seconds() - start;
    t.frames_encoded = encoded.value() - enc0;
    return t;
}

SideTotals
run_batched(const Suite &s)
{
    SideTotals t;
    obs::Counter &encoded = obs::counter("bmc.frames_unrolled");
    uint64_t enc0 = encoded.value();
    double start = now_seconds();
    formal::CoverBatch batch(s.bank_netlist, s.bank_opts);
    for (const formal::CoverTargetSpec &ts : s.targets)
        batch.add_target(ts);
    batch.run();
    t.sec = now_seconds() - start;
    for (int i = 0; i < batch.num_targets(); ++i)
        t.results.push_back(batch.result(i));
    t.frames_encoded = encoded.value() - enc0;
    return t;
}

struct ModuleResult
{
    std::string name;
    size_t targets = 0;
    int covered = 0, unreachable = 0, timeouts = 0;
    SideTotals per_query, batched;

    double speedup() const
    {
        return batched.sec > 0 ? per_query.sec / batched.sec : 0;
    }
};

ModuleResult
bench_module(ModuleKind kind, size_t max_pairs, int max_frames)
{
    ModuleResult r;
    r.name = kind == ModuleKind::Alu32 ? "alu32" : "fpu32";
    Corpus c = build_corpus(kind);
    Suite suite = build_suite(c, kind, max_pairs, max_frames);
    r.targets = suite.targets.size();

    r.per_query = run_per_query(suite);
    r.batched = run_batched(suite);

    // Cross-check: identical verdicts or the timing is meaningless.
    for (size_t i = 0; i < r.targets; ++i) {
        const formal::BmcResult &q = r.per_query.results[i];
        const formal::BmcResult &b = r.batched.results[i];
        if (q.status != b.status || q.frames != b.frames ||
            q.proven_by_induction != b.proven_by_induction ||
            q.kinduction_depth != b.kinduction_depth) {
            std::printf("PATH MISMATCH %s target %zu: per-query %s/%d vs "
                        "batched %s/%d\n",
                        r.name.c_str(), i,
                        formal::bmc_status_name(q.status), q.frames,
                        formal::bmc_status_name(b.status), b.frames);
            std::exit(1);
        }
        switch (q.status) {
          case formal::BmcStatus::Covered:     ++r.covered; break;
          case formal::BmcStatus::Unreachable: ++r.unreachable; break;
          case formal::BmcStatus::Timeout:     ++r.timeouts; break;
        }
    }

    std::printf("%-6s | %3zu targets (%2dS %2dUR %2dFF) | per-query "
                "%7.3fs (%5llu frames) | batched %7.3fs (%5llu frames) "
                "| %5.2fx\n",
                r.name.c_str(), r.targets, r.covered, r.unreachable,
                r.timeouts, r.per_query.sec,
                (unsigned long long)r.per_query.frames_encoded,
                r.batched.sec,
                (unsigned long long)r.batched.frames_encoded,
                r.speedup());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;

    // Deepening-heavy bound: the latency obligations walk every bound
    // before settling, which is where one shared frame encoding per
    // bound (instead of one per target) separates the paths.
    const int max_frames = smoke ? 4 : 12;
    const size_t max_pairs = smoke ? 1 : 6;

    bench::banner(std::string("BMC suite throughput: per-query loop vs "
                              "batched cover solving") +
                  (smoke ? " [smoke]" : ""));

    std::vector<ModuleResult> results;
    results.push_back(bench_module(ModuleKind::Alu32, max_pairs,
                                   max_frames));
    results.push_back(bench_module(ModuleKind::Fpu32,
                                   smoke ? 1 : 4, max_frames));

    double per_query_total = 0, batched_total = 0;
    for (const ModuleResult &r : results) {
        per_query_total += r.per_query.sec;
        batched_total += r.batched.sec;
    }
    double overall =
        batched_total > 0 ? per_query_total / batched_total : 0;
    std::printf("overall: per-query %.3fs vs batched %.3fs -> %.2fx\n",
                per_query_total, batched_total, overall);

    std::string json = "{\"bmc_throughput\":{";
    bench::kv_bool(json, "smoke", smoke);
    obs::kv(json, "max_frames", uint64_t(max_frames));
    obs::json_key(json, "modules");
    json += '[';
    for (size_t i = 0; i < results.size(); ++i) {
        const ModuleResult &r = results[i];
        json += i ? ",{" : "{";
        obs::kv(json, "module", r.name);
        obs::kv(json, "targets", uint64_t(r.targets));
        obs::kv(json, "covered", uint64_t(r.covered));
        obs::kv(json, "unreachable", uint64_t(r.unreachable));
        obs::kv(json, "timeouts", uint64_t(r.timeouts));
        obs::kv(json, "per_query_sec", r.per_query.sec);
        obs::kv(json, "batched_sec", r.batched.sec);
        obs::kv(json, "frames_per_query", r.per_query.frames_encoded);
        obs::kv(json, "frames_batched", r.batched.frames_encoded);
        obs::kv(json, "speedup", r.speedup(), false);
        json += '}';
    }
    json += "],";
    obs::kv(json, "speedup_overall", overall, false);
    json += "}}";
    bench::write_bench_json("bmc", smoke, json);
    return 0;
}
