/**
 * @file
 * Lockstep contract of wave execution: a campaign run in 64-lane waves
 * over a fault-bank tape must reproduce, job for job, the scalar
 * reference executor (tests/reference_campaign.h) — every JobResult
 * equal, at every thread count, on every module family — and its
 * report JSON must be byte-identical across thread counts. Plus unit
 * checks of the two properties the contract rests on: disabled
 * fault-bank muxes are exact pass-throughs, and wave characterization
 * reproduces the reference workload_corrupts() verdict for verdict.
 */
#include "campaign/wave.h"

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "cpu/alu_ops.h"
#include "cpu/softfp.h"
#include "lift/failure_model.h"
#include "obs/metrics.h"
#include "reference_campaign.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "vega/workflow.h"

namespace vega::campaign {
namespace {

struct WaveEnv
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
};

runtime::TestCase
alu_test(const char *name, AluOp op, uint32_t a, uint32_t b, int pair)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Alu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    tc.checks = {{0, alu_compute(op, a, b), false}};
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

runtime::TestCase
fpu_test(const char *name, fp::FpuOp op, uint32_t a, uint32_t b, int pair,
         bool check_flags)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Fpu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    fp::FpResult r = fp::fpu_compute(op, a, b);
    bool to_xreg = op == fp::FpuOp::Eq || op == fp::FpuOp::Lt ||
                   op == fp::FpuOp::Le;
    tc.checks = {{0, r.bits, to_xreg}};
    if (check_flags) {
        tc.check_final_flags = true;
        tc.expected_flags = r.flags;
    }
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

const WaveEnv &
alu_env()
{
    static WaveEnv *e = [] {
        auto *env = new WaveEnv;
        env->module = rtl::make_alu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged =
            run_aging_analysis(env->module, lib, minver_trace(), cfg);
        env->pairs = aged.liftable_pairs();
        if (env->pairs.size() > 2)
            env->pairs.resize(2);
        env->suite = {
            alu_test("c0", AluOp::Add, 0xffffffff, 1, 0),
            alu_test("c1", AluOp::Sub, 0, 1, 0),
            alu_test("c2", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
            alu_test("c3", AluOp::Sll, 1, 31, 1),
        };
        return env;
    }();
    return *e;
}

const WaveEnv &
fpu_env()
{
    static WaveEnv *e = [] {
        auto *env = new WaveEnv;
        env->module = rtl::make_fpu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged =
            run_aging_analysis(env->module, lib, minver_trace(), cfg);
        env->pairs = aged.liftable_pairs();
        if (env->pairs.size() > 2)
            env->pairs.resize(2);
        // The synthetic screen covers every wave transaction kind: ops
        // writing f-regs, a compare writing an x-reg, and an fflags
        // check (csrr/csrw fflags through the split protocol).
        env->suite = {
            fpu_test("f0", fp::FpuOp::Add, 0x3f800000, 0x3f800000, 0,
                     false),
            fpu_test("f1", fp::FpuOp::Mul, 0x40490fdb, 0x3eaaaaab, 0,
                     true),
            fpu_test("f2", fp::FpuOp::Lt, 0xbf800000, 0x3f800000, 1,
                     false),
            fpu_test("f3", fp::FpuOp::Sub, 0x7f7fffff, 0xff7fffff, 1,
                     true),
        };
        return env;
    }();
    return *e;
}

CampaignConfig
base_config(uint64_t seed, size_t threads)
{
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.num_jobs = 18;
    cfg.threads = threads;
    cfg.max_slots = 6;
    return cfg;
}

std::vector<lift::FailureModelSpec>
all_fault_specs(const WaveEnv &e,
                const std::vector<lift::FaultConstant> &constants)
{
    std::vector<lift::FailureModelSpec> specs;
    for (const auto &pair : e.pairs)
        for (lift::FaultConstant c : constants)
            specs.push_back(fault_spec(pair, c));
    return specs;
}

/** Every job of @p cfg rendered as a journal record, in id order. */
std::vector<std::string>
reference_records(const WaveEnv &e, const CampaignConfig &cfg)
{
    std::vector<std::string> out;
    for (const JobResult &r :
         reference_campaign(e.module, e.pairs, e.suite, cfg))
        out.push_back(render_record(r));
    return out;
}

/** @p report holds every job, each equal to its reference result. */
void
expect_reference_jobs(const std::vector<std::string> &reference,
                      const CampaignReport &report)
{
    ASSERT_EQ(report.jobs.size(), reference.size());
    EXPECT_TRUE(report.failed_jobs.empty());
    for (const JobResult &j : report.jobs) {
        ASSERT_LT(j.id, reference.size());
        EXPECT_EQ(reference[j.id], render_record(j)) << "job " << j.id;
    }
}

TEST(WaveCampaign, FaultBankDisabledLanesArePassThrough)
{
    const WaveEnv &e = alu_env();
    auto specs = all_fault_specs(
        e, {lift::FaultConstant::Zero, lift::FaultConstant::One});
    lift::FaultBank bank =
        lift::build_fault_bank(e.module.netlist, specs);
    EXPECT_EQ(bank.num_faults, specs.size());
    ASSERT_EQ(bank.fault_random.size(), specs.size());

    // With every enable low the bank must behave exactly like the
    // healthy module: the representative workload runs clean.
    EXPECT_FALSE(workload_corrupts(e.module.kind, bank.netlist,
                                   bank.has_random_input, 1));
}

TEST(WaveCampaign, CharacterizeWaveMatchesScalarVerdicts)
{
    const WaveEnv &e = alu_env();
    std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero, lift::FaultConstant::One};
    auto specs = all_fault_specs(e, constants);
    WaveContext ctx = make_wave_context(e.module, specs);

    std::vector<Episode> probes;
    std::vector<char> scalar(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        uint64_t seed = job_stream(~uint64_t(99), i);
        probes.push_back(probe_episode(e.module.kind, i, seed));
        lift::FailingNetlist f =
            lift::build_failing_netlist(e.module.netlist, specs[i]);
        scalar[i] = workload_corrupts(e.module.kind, f.netlist,
                                      f.has_random_input, seed);
    }
    std::vector<EpisodeResult> wave = characterize_wave(ctx, probes);
    ASSERT_EQ(wave.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(int(probe_corrupts(e.module.kind, wave[i])),
                  int(scalar[i]))
            << "fault " << i;
}

TEST(WaveCampaign, LaneCyclesCountOnlyOccupiedLanes)
{
    // sim.lane_cycles counts lane-cycles that carry an episode: a
    // 3-episode wave adds at most 3 per tape pass, not all 64 lanes.
    const WaveEnv &e = alu_env();
    auto specs = all_fault_specs(
        e, {lift::FaultConstant::Zero, lift::FaultConstant::One});
    ASSERT_GE(specs.size(), 3u);
    WaveContext ctx = make_wave_context(e.module, specs);
    std::vector<Episode> probes;
    for (size_t i = 0; i < 3; ++i)
        probes.push_back(
            probe_episode(e.module.kind, i, job_stream(~uint64_t(5), i)));

    obs::Counter &lane_cycles = obs::counter("sim.lane_cycles");
    obs::Counter &passes = obs::counter("sim.batch_cycles");
    uint64_t lanes0 = lane_cycles.value(), passes0 = passes.value();
    characterize_wave(ctx, probes);
    uint64_t lanes = lane_cycles.value() - lanes0;
    uint64_t edges = passes.value() - passes0;
    EXPECT_GT(lanes, 0u);
    EXPECT_LE(lanes, 3 * edges);
}

TEST(WaveCampaign, ProbeWaveSettlesOncePerCommittedEdge)
{
    // Op and fflags results come from next-state planes, not from
    // speculative edges, and posting a round's inputs settles only
    // their fanout: a probe wave runs one full settle per clock edge,
    // plus at most the one before its first edge.
    const WaveEnv &e = alu_env();
    auto specs = all_fault_specs(
        e, {lift::FaultConstant::Zero, lift::FaultConstant::One});
    WaveContext ctx = make_wave_context(e.module, specs);
    std::vector<Episode> probes;
    for (size_t i = 0; i < specs.size(); ++i)
        probes.push_back(
            probe_episode(e.module.kind, i, job_stream(~uint64_t(7), i)));

    obs::Counter &edges = obs::counter("sim.batch_cycles");
    obs::Counter &settles = obs::counter("sim.batch_evals");
    uint64_t edges0 = edges.value(), settles0 = settles.value();
    characterize_wave(ctx, probes);
    uint64_t wave_edges = edges.value() - edges0;
    uint64_t wave_settles = settles.value() - settles0;
    EXPECT_GT(wave_edges, 0u);
    EXPECT_LE(wave_settles, wave_edges + 1);
}

TEST(WaveCampaign, AluJobsMatchReferenceAtAnyThreadCount)
{
    const WaveEnv &e = alu_env();
    for (uint64_t seed : {99ull, 31ull}) {
        std::vector<std::string> reference =
            reference_records(e, base_config(seed, 1));
        std::string golden;
        for (size_t threads : {1, 2, 4, 8}) {
            CampaignReport wave = run_campaign(e.module, e.pairs, e.suite,
                                               base_config(seed, threads));
            expect_reference_jobs(reference, wave);
            if (golden.empty())
                golden = wave.to_json(false);
            EXPECT_EQ(golden, wave.to_json(false))
                << "seed " << seed << " threads " << threads;
        }
    }
}

TEST(WaveCampaign, OneWorkerCharacterizesBeforeInjecting)
{
    // Probe and injection waves share the pool, which starts tasks in
    // submit order, and the probe waves are queued first. On one worker
    // the probe therefore runs first and no batch waits for a verdict.
    // Either way the report is the same bytes as a 4-thread run's.
    const WaveEnv &e = alu_env();
    CampaignConfig cfg = base_config(99, 1);
    cfg.num_jobs = 4 * kWaveLanes;
    cfg.max_slots = 4;
    ASSERT_LE(e.pairs.size() * kFaultConstants.size(), kWaveLanes)
        << "needs a one-probe-wave campaign";
    obs::Counter &parked = obs::counter("campaign.jobs_parked");
    uint64_t parked0 = parked.value();
    CampaignReport one = run_campaign(e.module, e.pairs, e.suite, cfg);
    EXPECT_EQ(parked.value() - parked0, 0u);
    EXPECT_EQ(one.jobs.size(), cfg.num_jobs);
    cfg.threads = 4;
    CampaignReport four = run_campaign(e.module, e.pairs, e.suite, cfg);
    EXPECT_EQ(one.to_json(false), four.to_json(false));
}

TEST(WaveCampaign, MultiWaveCampaignMatchesReference)
{
    // More jobs than one 64-lane wave holds: exercises wave bucketing
    // and cross-wave result assembly.
    const WaveEnv &e = alu_env();
    CampaignConfig cfg = base_config(7, 2);
    cfg.num_jobs = kWaveLanes + 9;
    cfg.max_slots = 4;
    CampaignReport r = run_campaign(e.module, e.pairs, e.suite, cfg);
    expect_reference_jobs(reference_records(e, cfg), r);
}

TEST(WaveCampaign, FpuJobsMatchReference)
{
    const WaveEnv &e = fpu_env();
    CampaignConfig cfg = base_config(7, 2);
    cfg.num_jobs = 12;
    CampaignReport r = run_campaign(e.module, e.pairs, e.suite, cfg);
    expect_reference_jobs(reference_records(e, cfg), r);
    EXPECT_GT(r.detected + r.escapes + r.benign, 0u);
}

TEST(WaveCampaign, StopAfterJobsHonoredMidWave)
{
    // One wave holds all 18 jobs; the stop flag must still land after
    // ~5 completions, not at the wave boundary.
    const WaveEnv &e = alu_env();
    CampaignConfig cfg = base_config(99, 1);
    cfg.stop_after_jobs = 5;
    CampaignReport r = run_campaign(e.module, e.pairs, e.suite, cfg);
    EXPECT_GE(r.jobs.size(), 5u);
    EXPECT_LT(r.jobs.size(), 18u);
}

} // namespace
} // namespace vega::campaign
