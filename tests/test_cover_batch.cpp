/**
 * @file
 * Cover solving: check_cover and CoverBatch byte-identical to the
 * fresh-instance reference (reference_bmc.h) on the real lift corpus
 * (in any target order), the k-induction post-pass cross-checked
 * against exhaustive unrolling, and timeout resume.
 */
#include "formal/cover_batch.h"

#include <gtest/gtest.h>

#include <numeric>

#include "aging/timing_library.h"
#include "common/rng.h"
#include "lift/failure_model.h"
#include "lift/instruction_builder.h"
#include "netlist/builder.h"
#include "obs/metrics.h"
#include "reference_bmc.h"
#include "rtl/alu32.h"
#include "rtl/blocks.h"
#include "rtl/fpu32.h"
#include "sim/batch_sim.h"
#include "sim/sp_profiler.h"
#include "sta/sta.h"

namespace vega::formal {
namespace {

using aging::AgingTimingLibrary;
using aging::RdModelParams;

const AgingTimingLibrary &
lib()
{
    static AgingTimingLibrary l = AgingTimingLibrary::build(RdModelParams{});
    return l;
}

/** The test_lift aging recipe: tight calibration + parked-input SP so
 *  STA yields real violating pairs. */
struct Corpus
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
};

const Corpus &
corpus(ModuleKind kind)
{
    static Corpus alu = [] {
        Corpus c;
        c.module = rtl::make_alu32();
        sta::calibrate_timing_scale(c.module, lib(), 0.99);
        BatchSimulator sim(c.module.netlist);
        SpProfile p = profile_signal_probability(
            sim, 64, [](BatchSimulator &, uint64_t) {});
        c.pairs = sta::run_sta(c.module, sta::compute_aged_timing(
                                             c.module, p, lib(), 10.0))
                      .pairs;
        return c;
    }();
    static Corpus fpu = [] {
        Corpus c;
        c.module = rtl::make_fpu32();
        sta::calibrate_timing_scale(c.module, lib(), 0.99);
        BatchSimulator sim(c.module.netlist);
        SpProfile p = profile_signal_probability(
            sim, 64, [](BatchSimulator &, uint64_t) {});
        c.pairs = sta::run_sta(c.module, sta::compute_aged_timing(
                                             c.module, p, lib(), 10.0))
                      .pairs;
        return c;
    }();
    return kind == ModuleKind::Alu32 ? alu : fpu;
}

/** Byte-identity: semantic fields and the full waveform. `conflicts`
 *  is accounting and excluded by contract. */
void
expect_identical(const BmcResult &got, const BmcResult &want,
                 const std::string &label)
{
    ASSERT_EQ(got.status, want.status) << label;
    EXPECT_EQ(got.frames, want.frames) << label;
    EXPECT_EQ(got.proven_by_induction, want.proven_by_induction) << label;
    EXPECT_EQ(got.kinduction_depth, want.kinduction_depth) << label;
    ASSERT_EQ(got.trace.signals(), want.trace.signals()) << label;
    ASSERT_EQ(got.trace.num_cycles(), want.trace.num_cycles()) << label;
    for (const std::string &sig : want.trace.signals())
        for (size_t cyc = 0; cyc < want.trace.num_cycles(); ++cyc)
            EXPECT_TRUE(got.trace.at(sig, cyc) == want.trace.at(sig, cyc))
                << label << " signal " << sig << " cycle " << cyc;
}

/** One lift config with its shadow netlist and reference verdict. */
struct ConfigCase
{
    lift::FailureModelSpec spec;
    lift::ShadowInstrumentation shadow;
    std::vector<NetId> assumes;
    BmcResult oracle;

    /** The config's query on its own shadow netlist. */
    BmcOptions options(const BmcOptions &base) const
    {
        BmcOptions opts = base;
        opts.assumes = assumes;
        opts.state_equalities = shadow.state_pairs;
        return opts;
    }
};

std::vector<ConfigCase>
build_cases(ModuleKind kind, size_t max_pairs, const BmcOptions &base)
{
    const Corpus &c = corpus(kind);
    std::vector<ConfigCase> cases;
    size_t used = 0;
    for (const sta::EndpointPair &pair : c.pairs) {
        if (pair.launch == kInvalidId)
            continue;
        for (lift::FaultConstant fc :
             {lift::FaultConstant::Zero, lift::FaultConstant::One}) {
            ConfigCase cc;
            cc.spec.launch = pair.launch;
            cc.spec.capture = pair.capture;
            cc.spec.is_setup = pair.is_setup;
            cc.spec.constant = fc;
            cc.shadow = lift::build_shadow_instrumentation(
                c.module.netlist, cc.spec);
            cc.assumes = lift::build_assumes(cc.shadow.netlist, kind);
            cc.oracle = reference_check_cover(
                cc.shadow.netlist, cc.shadow.mismatch, cc.options(base));
            cases.push_back(std::move(cc));
        }
        if (++used >= max_pairs)
            break;
    }
    return cases;
}

/** Run the corpus, permuted by @p seed, as one CoverBatch and check
 *  every target against its reference verdict. */
void
check_batch_identity(ModuleKind kind, const std::vector<ConfigCase> &cases,
                     const BmcOptions &base, uint64_t seed)
{
    const Corpus &c = corpus(kind);
    std::vector<size_t> perm(cases.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    Rng rng(seed);
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);

    std::vector<lift::FailureModelSpec> specs;
    for (size_t i : perm)
        specs.push_back(cases[i].spec);
    lift::ShadowBank bank =
        lift::build_shadow_bank(c.module.netlist, specs);

    BmcOptions bopts = base;
    bopts.assumes = lift::build_assumes(bank.netlist, kind);
    CoverBatch batch(bank.netlist, bopts);
    for (size_t i = 0; i < perm.size(); ++i) {
        CoverTargetSpec ts;
        ts.target = bank.cones[i].mismatch;
        ts.state_equalities = bank.cones[i].state_pairs;
        ts.witness_netlist = &cases[perm[i]].shadow.netlist;
        ts.witness_target = cases[perm[i]].shadow.mismatch;
        ts.witness_assumes = cases[perm[i]].assumes;
        batch.add_target(std::move(ts));
    }
    batch.run();
    EXPECT_TRUE(batch.all_settled());
    for (size_t i = 0; i < perm.size(); ++i)
        expect_identical(batch.result(static_cast<int>(i)),
                         cases[perm[i]].oracle,
                         "seed " + std::to_string(seed) + " target " +
                             std::to_string(i));
}

/** check_cover on each config's own shadow netlist against the
 *  reference. */
void
check_cover_identity(ModuleKind kind, size_t max_pairs)
{
    BmcOptions base;
    base.max_frames = 4;
    auto cases = build_cases(kind, max_pairs, base);
    ASSERT_FALSE(cases.empty()) << "corpus produced no liftable pairs";
    for (size_t i = 0; i < cases.size(); ++i) {
        const ConfigCase &cc = cases[i];
        expect_identical(check_cover(cc.shadow.netlist, cc.shadow.mismatch,
                                     cc.options(base)),
                         cc.oracle, "config " + std::to_string(i));
    }
}

TEST(CheckCover, Alu32CorpusMatchesReference)
{
    check_cover_identity(ModuleKind::Alu32, 3);
}

TEST(CheckCover, Fpu32CorpusMatchesReference)
{
    check_cover_identity(ModuleKind::Fpu32, 2);
}

TEST(CoverBatch, AluCorpusByteIdenticalAcrossTargetOrders)
{
    BmcOptions base;
    base.max_frames = 4;
    auto cases = build_cases(ModuleKind::Alu32, 3, base);
    ASSERT_GE(cases.size(), 4u);
    obs::Counter &targets = obs::counter("bmc.batch_targets");
    uint64_t before = targets.value();
    for (uint64_t seed : {1u, 2u})
        check_batch_identity(ModuleKind::Alu32, cases, base, seed);
    EXPECT_EQ(targets.value() - before, 2 * cases.size());
}

TEST(CoverBatch, FpuCorpusByteIdenticalInPermutedOrder)
{
    BmcOptions base;
    base.max_frames = 4;
    auto cases = build_cases(ModuleKind::Fpu32, 2, base);
    ASSERT_GE(cases.size(), 2u);
    check_batch_identity(ModuleKind::Fpu32, cases, base, /*seed=*/7);
}

// ---------------------------------------------------------------------
// Small-netlist cross-checks: k-induction vs exhaustive unrolling, and
// mixed-phase batches on one shared instance.
// ---------------------------------------------------------------------

/** 3-bit counter; target fires when the count reaches @p goal. */
NetId
add_counter(Netlist &nl, unsigned goal, const std::string &suffix)
{
    Builder b(nl, "ctr" + suffix);
    std::vector<NetId> q_nets;
    for (int i = 0; i < 3; ++i)
        q_nets.push_back(nl.new_net("q" + suffix + std::to_string(i)));
    NetId carry = b.const1();
    for (int i = 0; i < 3; ++i) {
        NetId d = b.xor_(q_nets[i], carry);
        carry = b.and_(q_nets[i], carry);
        nl.add_dff("ff" + suffix + std::to_string(i), d, q_nets[i],
                   false);
    }
    std::vector<NetId> bits;
    for (int i = 0; i < 3; ++i)
        bits.push_back((goal >> i) & 1 ? q_nets[i] : b.not_(q_nets[i]));
    return b.and_n(bits);
}

/** Two swapping flops initialized (1,0); target = both 1 — unreachable
 *  from reset, invisible to the 1-step free-state check (a free (1,1)
 *  start satisfies it), but closed by k-induction at depth 2: from any
 *  state with the target low, two swaps never raise it. */
NetId
add_swap(Netlist &nl, const std::string &suffix)
{
    Builder b(nl, "swap" + suffix);
    NetId a = nl.new_net("swap_a" + suffix);
    NetId bq = nl.new_net("swap_b" + suffix);
    nl.add_dff("swap_fa" + suffix, bq, a, /*init=*/true);
    nl.add_dff("swap_fb" + suffix, a, bq, /*init=*/false);
    return b.and_(a, bq);
}

TEST(CoverBatch, KInductionUpgradesBoundExhaustionToProof)
{
    Netlist nl("kind");
    NetId swap_t = add_swap(nl, "");
    nl.add_output_bus("hit", {swap_t});
    nl.validate();

    // Exhaustive unrolling far past the 4-state diameter: never covered.
    BmcOptions deep;
    deep.max_frames = 16;
    BmcResult exhaustive = reference_check_cover(nl, swap_t, deep);
    EXPECT_EQ(exhaustive.status, BmcStatus::Unreachable);
    EXPECT_FALSE(exhaustive.proven_by_induction);

    // The k-induction post-pass turns the same verdict into a proof at
    // depth 2 — reference and batch alike, byte-identically.
    BmcOptions opts;
    opts.max_frames = 4;
    opts.kinduction_frames = 4;
    BmcResult reference = reference_check_cover(nl, swap_t, opts);
    EXPECT_EQ(reference.status, BmcStatus::Unreachable);
    EXPECT_TRUE(reference.proven_by_induction);
    EXPECT_EQ(reference.kinduction_depth, 2);

    CoverBatch batch(nl, opts);
    CoverTargetSpec ts;
    ts.target = swap_t;
    int idx = batch.add_target(std::move(ts));
    obs::Counter &proofs = obs::counter("bmc.kinduction_proofs");
    uint64_t before = proofs.value();
    batch.run();
    EXPECT_GT(proofs.value(), before);
    expect_identical(batch.result(idx), reference, "kinduction batch");
}

TEST(CoverBatch, KInductionNeverFalselyProvesReachableTargets)
{
    // count == 5 is reachable at frame 6; a shallow bound of 3 must
    // stay a bounded (unproven) verdict even with k-induction armed,
    // because every step query has the free-state counterexample
    // count = 4. Exhaustive unrolling confirms reachability.
    Netlist nl("reach");
    NetId ctr_t = add_counter(nl, 5, "");
    nl.add_output_bus("hit", {ctr_t});
    nl.validate();

    BmcOptions deep;
    deep.max_frames = 16;
    BmcResult exhaustive = reference_check_cover(nl, ctr_t, deep);
    ASSERT_EQ(exhaustive.status, BmcStatus::Covered);
    EXPECT_EQ(exhaustive.frames, 6);

    BmcOptions opts;
    opts.max_frames = 3;
    opts.kinduction_frames = 3;
    BmcResult reference = reference_check_cover(nl, ctr_t, opts);
    EXPECT_EQ(reference.status, BmcStatus::Unreachable);
    EXPECT_FALSE(reference.proven_by_induction);
    EXPECT_EQ(reference.kinduction_depth, 0);

    CoverBatch batch(nl, opts);
    CoverTargetSpec ts;
    ts.target = ctr_t;
    int idx = batch.add_target(std::move(ts));
    batch.run();
    expect_identical(batch.result(idx), reference, "no false proof");
}

TEST(CoverBatch, MixedPhaseTargetsShareOneInstance)
{
    // One netlist, three targets retiring in different phases: a
    // covered counter hit, a k-induction proof, and a bounded verdict.
    Netlist nl("mixed");
    NetId ctr_t = add_counter(nl, 5, "_a");   // covered at frame 6
    NetId swap_t = add_swap(nl, "_b");        // k-induction at depth 2
    NetId never_t = add_counter(nl, 7, "_c"); // beyond the bound
    nl.add_output_bus("hit", {ctr_t, swap_t, never_t});
    nl.validate();

    BmcOptions opts;
    opts.max_frames = 6;
    opts.kinduction_frames = 4;

    std::vector<NetId> targets{ctr_t, swap_t, never_t};
    CoverBatch batch(nl, opts);
    for (NetId t : targets) {
        CoverTargetSpec ts;
        ts.target = t;
        batch.add_target(std::move(ts));
    }
    batch.run();
    for (size_t i = 0; i < targets.size(); ++i)
        expect_identical(batch.result(static_cast<int>(i)),
                         reference_check_cover(nl, targets[i], opts),
                         "mixed target " + std::to_string(i));
}

TEST(CoverBatch, MidBatchTimeoutResumesWhereItStopped)
{
    // A cheap counter target (tens of conflicts end to end) next to a
    // prime-"factoring" target (hundreds of conflicts per bound): a
    // small per-target conflict pool settles the first, parks the
    // second, and the resumed run finishes byte-identical to the
    // reference.
    Netlist nl("resume");
    Builder b(nl, "mul");
    NetId ctr_t = add_counter(nl, 5, "_r");
    auto a = nl.add_input_bus("a", 10);
    auto bb = nl.add_input_bus("b", 10);
    Bus aq, bq;
    for (int i = 0; i < 10; ++i) {
        aq.push_back(b.dff(a[size_t(i)]));
        bq.push_back(b.dff(bb[size_t(i)]));
    }
    Bus p = rtl::multiply(b, aq, bq);
    // 524287 is prime, so the product equality is unsatisfiable at
    // every bound — and refuting it costs the solver far more than the
    // pool below, so the target must park while the counter runs.
    NetId mul_t = rtl::bus_eq(b, p, b.const_bus(20, 524287));
    nl.add_output_bus("hit", {ctr_t, mul_t});
    nl.add_output_bus("p", p);
    nl.validate();

    BmcOptions opts;
    opts.max_frames = 6;

    CoverBatch batch(nl, opts);
    CoverTargetSpec ts1, ts2;
    ts1.target = ctr_t;
    ts2.target = mul_t;
    int ctr_idx = batch.add_target(std::move(ts1));
    int mul_idx = batch.add_target(std::move(ts2));

    batch.run(/*conflict_budget=*/40);
    EXPECT_TRUE(batch.settled(ctr_idx));
    EXPECT_FALSE(batch.settled(mul_idx));
    EXPECT_FALSE(batch.all_settled());
    EXPECT_EQ(batch.result(mul_idx).status, BmcStatus::Timeout);

    // The escalation rung resumes the starved target only.
    batch.run();
    EXPECT_TRUE(batch.all_settled());
    expect_identical(batch.result(ctr_idx),
                     reference_check_cover(nl, ctr_t, opts),
                     "resume counter");
    expect_identical(batch.result(mul_idx),
                     reference_check_cover(nl, mul_t, opts),
                     "resume multiplier");
}

/** a * b == 143 (11 × 13) over registered 4-bit operands: covered at
 *  bound 2, and only after real search. */
NetId
add_mul_cover(Netlist &nl)
{
    Builder b(nl, "mul");
    auto a = nl.add_input_bus("a", 4);
    auto bb = nl.add_input_bus("b", 4);
    Bus aq, bq;
    for (int i = 0; i < 4; ++i) {
        aq.push_back(b.dff(a[size_t(i)]));
        bq.push_back(b.dff(bb[size_t(i)]));
    }
    Bus p = rtl::multiply(b, aq, bq);
    nl.add_output_bus("p", p);
    return rtl::bus_eq(b, p, b.const_bus(8, 143));
}

TEST(CoverBatch, StarvedTargetResumesToOneShotResult)
{
    // A one-conflict run parks the lone target; the run with the full
    // budget resumes it on the same instance and lands on the one-shot
    // answer, trace included.
    Netlist nl("mul");
    NetId target = add_mul_cover(nl);
    BmcOptions opts;
    opts.max_frames = 4;
    BmcResult oneshot = reference_check_cover(nl, target, opts);
    ASSERT_EQ(oneshot.status, BmcStatus::Covered);

    CoverBatch batch(nl, opts);
    CoverTargetSpec ts;
    ts.target = target;
    int idx = batch.add_target(std::move(ts));
    batch.run(/*conflict_budget=*/1);
    EXPECT_FALSE(batch.settled(idx));
    EXPECT_EQ(batch.result(idx).status, BmcStatus::Timeout);

    batch.run();
    ASSERT_TRUE(batch.settled(idx));
    expect_identical(batch.result(idx), oneshot, "resumed multiplier");
}

TEST(CoverBatch, SettledTargetRerunChargesNoConflicts)
{
    Netlist nl("mul");
    NetId target = add_mul_cover(nl);
    BmcOptions opts;
    opts.max_frames = 4;
    CoverBatch batch(nl, opts);
    CoverTargetSpec ts;
    ts.target = target;
    int idx = batch.add_target(std::move(ts));
    batch.run();
    ASSERT_TRUE(batch.settled(idx));
    BmcResult first = batch.result(idx);
    ASSERT_EQ(first.status, BmcStatus::Covered);
    EXPECT_GT(first.conflicts, 0u);

    batch.run(); // replays the settled answer, no solving
    expect_identical(batch.result(idx), first, "settled re-run");
    EXPECT_EQ(batch.result(idx).conflicts, 0u);
}

} // namespace
} // namespace vega::formal
