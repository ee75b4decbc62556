/**
 * @file
 * Mission-mode fleet simulator tests: config validation through
 * vega::Expected (the negative paths a fleet service must reject
 * without crashing), deterministic population simulation on
 * hand-built fault matrices, checked device by device and report by
 * report against the per-slot reference (reference_fleet.h), and
 * gate-level passes on the real ALU and FPU, checked against the
 * scalar reference characterization.
 */
#include "fleet/fleet_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "campaign/job.h"
#include "cpu/alu_ops.h"
#include "cpu/softfp.h"
#include "fleet/config.h"
#include "fleet/fault_matrix.h"
#include "obs/trace.h"
#include "reference_campaign.h"
#include "reference_fleet.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "vega/workflow.h"

namespace vega::fleet {
namespace {

// ---------------------------------------------------------------------
// Config validation (vega::Expected error paths).

FleetConfig
small_config()
{
    FleetConfig cfg;
    cfg.seed = 7;
    cfg.num_devices = 400;
    cfg.epochs = 6;
    cfg.slots_per_epoch = 16;
    return cfg;
}

TEST(FleetConfig, DefaultsValidateAndFillCatalogs)
{
    auto v = validate_config(FleetConfig{});
    ASSERT_TRUE(v.ok()) << v.error().to_string();
    EXPECT_FALSE(v->corners.empty());
    EXPECT_FALSE(v->mixes.empty());
    // The catalog must include the adversarial wearout-attack mix.
    bool has_attack = false;
    for (const auto &m : v->mixes)
        has_attack |= m.adversarial;
    EXPECT_TRUE(has_attack);
}

TEST(FleetConfig, RejectsBadDeviceCounts)
{
    FleetConfig cfg = small_config();
    cfg.num_devices = 0;
    auto v = validate_config(cfg);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().code, ErrorCode::InvalidArgument);

    cfg = small_config();
    cfg.epochs = 0;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.slots_per_epoch = 0;
    EXPECT_FALSE(validate_config(cfg).ok());
}

TEST(FleetConfig, RejectsBadProbabilities)
{
    FleetConfig cfg = small_config();
    cfg.overhead_budget = 0.0;
    EXPECT_FALSE(validate_config(cfg).ok());
    cfg.overhead_budget = 1.5;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.adversarial_fraction = -0.1;
    EXPECT_FALSE(validate_config(cfg).ok());
    cfg.adversarial_fraction = 1.1;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.base_hazard = 2.0;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.mixes = mix_catalog();
    cfg.mixes[0].corruption_rate = 1.5;
    EXPECT_FALSE(validate_config(cfg).ok());
}

TEST(FleetConfig, RejectsBadAgeRangeAndWeights)
{
    FleetConfig cfg = small_config();
    cfg.min_age_years = 5.0;
    cfg.max_age_years = 2.0;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.corners = corner_catalog();
    for (auto &c : cfg.corners)
        c.weight = 0.0; // nothing to sample from
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.corners = corner_catalog();
    cfg.corners[0].stress = -1.0;
    EXPECT_FALSE(validate_config(cfg).ok());

    cfg = small_config();
    cfg.mixes = mix_catalog();
    cfg.mixes[0].duty = 0.0;
    EXPECT_FALSE(validate_config(cfg).ok());
}

TEST(FleetConfig, RejectsAdversarialMixWithoutTarget)
{
    FleetConfig cfg = small_config();
    cfg.mixes = mix_catalog();
    for (auto &m : cfg.mixes)
        if (m.adversarial)
            m.target_pair = -1;
    cfg.adversarial_fraction = 0.1;
    EXPECT_FALSE(validate_config(cfg).ok());

    // With no adversarial devices requested the same mix is fine.
    cfg.adversarial_fraction = 0.0;
    EXPECT_TRUE(validate_config(cfg).ok());
}

TEST(FleetConfig, CornerLookupAndListParsing)
{
    auto typ = find_corner("typ");
    ASSERT_TRUE(typ.ok());
    EXPECT_EQ(typ->name, "typ");

    auto bad = find_corner("arctic");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::InvalidArgument);

    auto list = parse_corner_list("typ,hot,burnin");
    ASSERT_TRUE(list.ok()) << list.error().to_string();
    ASSERT_EQ(list->size(), 3u);
    EXPECT_EQ((*list)[1].name, "hot");

    EXPECT_FALSE(parse_corner_list("").ok());
    EXPECT_FALSE(parse_corner_list("typ,,hot").ok());
    EXPECT_FALSE(parse_corner_list("typ,venus").ok());
}

// ---------------------------------------------------------------------
// Fleet simulation on a hand-built matrix (no gate-level cost).

FaultMatrix
toy_matrix()
{
    FaultMatrix m;
    m.module = ModuleKind::Alu32;
    m.num_pairs = 4;
    m.num_tests = 6;
    for (size_t t = 0; t < m.num_tests; ++t) {
        m.test_cycles.push_back(3000);
        m.suite_cycles += m.test_cycles.back();
    }
    m.faults.resize(m.num_pairs * 2);
    for (size_t i = 0; i < m.faults.size(); ++i) {
        FaultClass &f = m.faults[i];
        f.pair_index = i / 2;
        f.constant = (i & 1) ? lift::FaultConstant::One
                             : lift::FaultConstant::Zero;
        f.per_test.assign(m.num_tests, runtime::Detection::None);
        if (i % 4 != 3) { // 3 of 4 classes detectable
            f.per_test[i % m.num_tests] =
                (i % 2) ? runtime::Detection::Mismatch
                        : runtime::Detection::Stall;
            f.detecting_tests = 1;
        }
        f.corrupts = (i % 3) != 2;
    }
    return m;
}

TEST(FleetSim, SameSeedIsByteIdenticalAtAnyThreadCount)
{
    FaultMatrix m = toy_matrix();
    FleetConfig cfg = small_config();

    cfg.threads = 1;
    auto r1 = run_fleet(cfg, m);
    ASSERT_TRUE(r1.ok()) << r1.error().to_string();
    auto r1b = run_fleet(cfg, m);
    ASSERT_TRUE(r1b.ok());
    cfg.threads = 4;
    auto r4 = run_fleet(cfg, m);
    ASSERT_TRUE(r4.ok());

    // Deterministic part only: timing differs run to run by design.
    EXPECT_EQ(r1->to_json(false), r1b->to_json(false));
    EXPECT_EQ(r1->to_json(false), r4->to_json(false));

    // A different seed must actually change the population.
    cfg.seed = 8;
    auto other = run_fleet(cfg, m);
    ASSERT_TRUE(other.ok());
    EXPECT_NE(r1->to_json(false), other->to_json(false));
}

/**
 * A matrix that pins the epoch window arithmetic: unequal test cycles,
 * classes with several detecting tests, an undetectable class per
 * half, and a class (0, on the attack's target pair) whose only
 * detecting test is the last in the suite.
 */
FaultMatrix
oracle_matrix()
{
    using D = runtime::Detection;
    const D N = D::None;
    const std::vector<std::vector<D>> per_test = {
        {N, N, N, N, N, D::Mismatch},
        {N, D::Stall, N, D::Mismatch, N, N},
        {D::TagAnomaly, N, D::Mismatch, N, N, D::Stall},
        {N, N, N, N, N, N},
        {N, N, N, D::WrongAddress, N, N},
        {N, N, D::Mismatch, N, N, D::WrongAddress},
        {D::Mismatch, D::Stall, D::Mismatch, D::Stall, D::Mismatch,
         D::Stall},
        {N, N, N, N, N, N},
    };
    FaultMatrix m;
    m.module = ModuleKind::Alu32;
    m.num_pairs = 4;
    m.num_tests = 6;
    m.test_cycles = {1200, 3100, 700, 5000, 2300, 900};
    for (uint64_t c : m.test_cycles)
        m.suite_cycles += c;
    m.faults.resize(per_test.size());
    for (size_t i = 0; i < m.faults.size(); ++i) {
        FaultClass &f = m.faults[i];
        f.pair_index = i / 2;
        f.constant = (i & 1) ? lift::FaultConstant::One
                             : lift::FaultConstant::Zero;
        f.per_test = per_test[i];
        f.detecting_tests = uint64_t(
            std::count_if(f.per_test.begin(), f.per_test.end(),
                          [](D d) { return d != D::None; }));
        f.corrupts = i % 3 != 1;
    }
    return m;
}

/**
 * A fleet where most devices fail early, under one gate regime: @p gate
 * is 1 for the open gate, or the dispatch probability the §3.4.2
 * budget throttle should land near (epoch_cycles is sized for it).
 */
FleetConfig
oracle_config(const FaultMatrix &m, double gate, uint64_t slots,
              double adversarial)
{
    FleetConfig cfg;
    cfg.seed = 11;
    cfg.epochs = 6;
    cfg.slots_per_epoch = slots;
    cfg.base_hazard = 0.5;
    cfg.adversarial_fraction = adversarial;
    cfg.adversarial_report_cap = 8;
    cfg.epoch_cycles =
        gate >= 1.0 ? uint64_t(1) << 40
                    : uint64_t(double(slots) * m.mean_test_cycles() *
                               gate / cfg.overhead_budget);
    return cfg;
}

const double kGates[] = {1.0, 0.2, 0.02};

TEST(FleetSim, DeviceOutcomesMatchReference)
{
    FaultMatrix m = oracle_matrix();
    for (double gate : kGates) {
        auto cfg = validate_config(oracle_config(m, gate, 13, 0.3));
        ASSERT_TRUE(cfg.ok()) << cfg.error().to_string();
        ASSERT_NEAR(reference_device(*cfg, m, 0).gate_probability, gate,
                    1e-3 * gate);
        for (uint64_t id = 0; id < 1000; ++id) {
            DeviceOutcome got = simulate_device(*cfg, m, id);
            DeviceOutcome want = reference_device(*cfg, m, id);
            SCOPED_TRACE(testing::Message()
                         << "gate " << gate << " device " << id);
            EXPECT_EQ(got.id, want.id);
            EXPECT_EQ(got.corner, want.corner);
            EXPECT_EQ(got.mix, want.mix);
            EXPECT_EQ(got.adversarial, want.adversarial);
            EXPECT_EQ(got.age_start, want.age_start);
            EXPECT_EQ(got.age_end, want.age_end);
            EXPECT_EQ(got.gate_probability, want.gate_probability);
            EXPECT_EQ(got.epochs_run, want.epochs_run);
            EXPECT_EQ(got.fault, want.fault);
            EXPECT_EQ(got.onset_epoch, want.onset_epoch);
            EXPECT_EQ(got.fault_index, want.fault_index);
            EXPECT_EQ(got.fault_corrupts, want.fault_corrupts);
            EXPECT_EQ(got.fault_detectable, want.fault_detectable);
            EXPECT_EQ(got.detected, want.detected);
            EXPECT_EQ(got.kind, want.kind);
            EXPECT_EQ(got.detect_epoch, want.detect_epoch);
            EXPECT_EQ(got.slots_to_detect, want.slots_to_detect);
            EXPECT_EQ(got.slots, want.slots);
            EXPECT_EQ(got.tests_dispatched, want.tests_dispatched);
            EXPECT_EQ(got.test_cycles, want.test_cycles);
            EXPECT_EQ(got.app_cycles, want.app_cycles);
            EXPECT_EQ(got.corruptions, want.corruptions);
            EXPECT_EQ(got.prevented_corruptions,
                      want.prevented_corruptions);
            EXPECT_EQ(got.first_corruption_epoch,
                      want.first_corruption_epoch);
            if (testing::Test::HasFailure())
                return;
        }
    }
}

TEST(FleetSim, ReportMatchesReference)
{
    // Sizes straddle the 2048-device chunk; the cap of 8 adversarial
    // rows fills inside the first chunk, so rows pin the merge order.
    const uint64_t kSizes[] = {1, 2047, 2048, 2049, 5000};
    FaultMatrix m = oracle_matrix();
    for (double gate : kGates) {
        for (uint64_t slots : {1, 5, 6, 13, 100}) {
            for (double adversarial : {0.3, 1.0}) {
                FleetConfig cfg =
                    oracle_config(m, gate, slots, adversarial);
                auto valid = validate_config(cfg);
                ASSERT_TRUE(valid.ok()) << valid.error().to_string();
                std::vector<DeviceOutcome> all;
                for (uint64_t id = 0; id < kSizes[4]; ++id)
                    all.push_back(reference_device(*valid, m, id));
                for (uint64_t n : kSizes) {
                    valid->num_devices = n;
                    std::string want =
                        reference_aggregate(
                            *valid, m,
                            {all.begin(), all.begin() + ptrdiff_t(n)})
                            .to_json(false);
                    cfg.num_devices = n;
                    for (size_t threads : {1, 4}) {
                        cfg.threads = threads;
                        auto got = run_fleet(cfg, m);
                        ASSERT_TRUE(got.ok()) << got.error().to_string();
                        EXPECT_EQ(got->to_json(false), want)
                            << "gate " << gate << " slots " << slots
                            << " adversarial " << adversarial
                            << " devices " << n << " threads "
                            << threads;
                    }
                }
            }
        }
    }
}

TEST(FleetSim, AccountingAddsUp)
{
    FaultMatrix m = toy_matrix();
    FleetConfig cfg = small_config();
    cfg.threads = 2;
    auto r = run_fleet(cfg, m);
    ASSERT_TRUE(r.ok());

    // Every device ran at least one epoch and at most all of them.
    EXPECT_GE(r->device_epochs, r->num_devices);
    EXPECT_LE(r->device_epochs,
              uint64_t(r->num_devices) * cfg.epochs);
    EXPECT_EQ(r->overhead.count, r->num_devices);
    // Detected + missed cannot exceed the faulty population.
    EXPECT_LE(r->detected_devices, r->faulty_devices);
    EXPECT_LE(r->detectable_faulty_devices, r->faulty_devices);
    EXPECT_EQ(r->latency_slots.count, r->detected_devices);

    // Percentiles are ordered.
    EXPECT_LE(r->latency_slots.p50, r->latency_slots.p95);
    EXPECT_LE(r->latency_slots.p95, r->latency_slots.p99);
    EXPECT_LE(r->overhead.p50, r->overhead.p99);

    // Group rows partition the population.
    uint64_t corner_devices = 0;
    for (const auto &g : r->per_corner)
        corner_devices += g.devices;
    EXPECT_EQ(corner_devices, r->num_devices);
    uint64_t age_devices = 0;
    for (const auto &g : r->per_age)
        age_devices += g.devices;
    EXPECT_EQ(age_devices, r->num_devices);
}

TEST(FleetSim, BudgetGatesDispatchProbabilistically)
{
    FaultMatrix m = toy_matrix();
    FleetConfig cfg = small_config();
    cfg.num_devices = 600;
    cfg.epochs = 4;
    // Make the full-rate suite far too expensive: 16 slots x 3000
    // cycles against a 100k-cycle epoch is ~0.48 overhead, so §3.4.2
    // gating must throttle dispatch to land near the 1% budget.
    cfg.epoch_cycles = 100000;
    cfg.overhead_budget = 0.01;
    auto r = run_fleet(cfg, m);
    ASSERT_TRUE(r.ok());
    EXPECT_LT(r->mean_overhead(), 3.0 * cfg.overhead_budget);
    EXPECT_GT(r->tests_dispatched, 0u);
    // Sanity: without gating the suite would eat ~half the cycles.
    EXPECT_LT(double(r->test_cycles),
              0.1 * double(r->app_cycles));
}

TEST(FleetSim, AdversarialScenarioReportsPerDeviceOutcomes)
{
    FaultMatrix m = toy_matrix();
    FleetConfig cfg = small_config();
    cfg.num_devices = 3000;
    cfg.adversarial_fraction = 0.25; // make the slice big and faulty
    cfg.base_hazard = 0.05;
    auto r = run_fleet(cfg, m);
    ASSERT_TRUE(r.ok());

    EXPECT_GT(r->adversarial_devices, 0u);
    EXPECT_GT(r->adversarial_faulty, 0u);
    EXPECT_EQ(r->adversarial_outcomes.size(),
              std::min<uint64_t>(r->adversarial_outcomes_total,
                                 cfg.adversarial_report_cap));

    // The attack concentrates every onset on the targeted pair class.
    int attack_mix = -1;
    auto validated = validate_config(cfg);
    ASSERT_TRUE(validated.ok());
    for (size_t i = 0; i < validated->mixes.size(); ++i)
        if (validated->mixes[i].adversarial)
            attack_mix = int(i);
    ASSERT_GE(attack_mix, 0);
    size_t target =
        size_t(validated->mixes[attack_mix].target_pair) % m.num_pairs;
    uint64_t classified = 0;
    for (const auto &a : r->adversarial_outcomes) {
        EXPECT_EQ(a.pair_index, target);
        // Every reported device carries an explicit mission outcome.
        bool known =
            !std::strcmp(a.outcome, "detected-before-corruption") ||
            !std::strcmp(a.outcome, "silently-corrupted") ||
            !std::strcmp(a.outcome, "latent");
        EXPECT_TRUE(known) << a.outcome;
        if (a.detected && a.corruptions == 0) {
            EXPECT_STREQ(a.outcome, "detected-before-corruption");
        }
        ++classified;
    }
    EXPECT_EQ(classified, r->adversarial_outcomes.size());
    // Mission outcomes are disjoint slices of the faulty population.
    EXPECT_LE(r->adversarial_detected_before_corruption +
                  r->adversarial_silently_corrupted,
              r->adversarial_faulty);
    EXPECT_LE(r->adversarial_detected, r->adversarial_faulty);
}

TEST(FleetSim, RejectsEmptyOrMalformedMatrix)
{
    FleetConfig cfg = small_config();
    FaultMatrix empty;
    EXPECT_FALSE(run_fleet(cfg, empty).ok());

    FaultMatrix bad = toy_matrix();
    bad.faults[0].per_test.pop_back();
    auto r = run_fleet(cfg, bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);

    // Cached fields that disagree with the tables they summarize: a
    // zero suite_cycles would zero the overhead estimate and hold the
    // gate open, and a stale detecting_tests would drop detectable
    // devices from detectable_faulty_devices.
    bad = toy_matrix();
    bad.suite_cycles = 0;
    r = run_fleet(cfg, bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);

    bad = toy_matrix();
    bad.faults[0].detecting_tests = 0;
    r = run_fleet(cfg, bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
}

TEST(FleetSim, TracingDoesNotPerturbDeterministicReport)
{
    // Observability must be a pure observer: the deterministic JSON
    // with spans recording is byte-identical to a flags-off run.
    FaultMatrix m = oracle_matrix();
    FleetConfig cfg = oracle_config(m, 0.2, 13, 0.3);
    cfg.num_devices = 3000;
    cfg.threads = 4;
    auto off = run_fleet(cfg, m);
    ASSERT_TRUE(off.ok());
    obs::trace_enable();
    auto on = run_fleet(cfg, m);
    obs::trace_disable();
    ASSERT_TRUE(on.ok());
    EXPECT_EQ(off->to_json(false), on->to_json(false));
    // And the run actually recorded its fleet.run span.
    bool saw_run_span = false;
    for (const obs::TraceEvent &ev : obs::trace_collect())
        if (std::string(ev.name) == "fleet.run")
            saw_run_span = true;
    EXPECT_TRUE(saw_run_span);
}

TEST(FleetMatrix, RejectsEmptyInputs)
{
    HwModule module = rtl::make_alu32();
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
    std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero};
    auto r = build_fault_matrix(module, pairs, suite, constants, 1, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Gate-level integration: one small real-ALU matrix feeding a fleet.

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
    tc.checks = {{0, r.bits, fp::writes_xreg(op)}};
    if (check_flags) {
        tc.check_final_flags = true;
        tc.expected_flags = r.flags;
    }
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

/** The first @p count liftable endpoint pairs of @p module (minver). */
std::vector<sta::EndpointPair>
aged_pairs(HwModule &module, size_t count = 2)
{
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    AgingAnalysisConfig cfg;
    cfg.utilization = 0.99;
    cfg.max_trace = 1500;
    auto aged = run_aging_analysis(module, lib, minver_trace(), cfg);
    auto pairs = aged.liftable_pairs();
    if (pairs.size() > count)
        pairs.resize(count);
    return pairs;
}

/**
 * The wave-built matrix at 1 and 4 threads equals, class for class,
 * the scalar reference: one failing netlist per class, a workload
 * probe, and a fresh engine per test.
 */
void
expect_matrix_matches_reference(HwModule module, size_t npairs,
                                const std::vector<runtime::TestCase> &suite)
{
    std::vector<sta::EndpointPair> pairs = aged_pairs(module, npairs);
    ASSERT_FALSE(pairs.empty());
    std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero, lift::FaultConstant::One};
    const uint64_t seed = 5;
    std::vector<FaultClass> reference;
    for (size_t idx = 0; idx < pairs.size() * constants.size(); ++idx)
        reference.push_back(reference_fault_class(
            module, suite, pairs[idx / constants.size()],
            constants[idx % constants.size()],
            campaign::job_stream(seed, uint64_t(idx))));
    for (size_t threads : {1, 4}) {
        auto m = build_fault_matrix(module, pairs, suite, constants,
                                    threads, seed);
        ASSERT_TRUE(m.ok()) << m.error().to_string();
        ASSERT_EQ(m->faults.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
            const FaultClass &got = m->faults[i];
            EXPECT_EQ(got.corrupts, reference[i].corrupts)
                << "class " << i << " threads " << threads;
            EXPECT_EQ(got.per_test, reference[i].per_test)
                << "class " << i << " threads " << threads;
            EXPECT_EQ(got.detecting_tests, reference[i].detecting_tests)
                << "class " << i << " threads " << threads;
        }
    }
}

TEST(FleetMatrix, WaveMatrixMatchesReference)
{
    expect_matrix_matches_reference(
        rtl::make_alu32(), 2,
        {alu_test("c0", AluOp::Add, 0xffffffff, 1, 0),
         alu_test("c1", AluOp::Sub, 0, 1, 0),
         alu_test("c2", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
         alu_test("c3", AluOp::Sll, 1, 31, 1)});
    // The FPU screens cover every wave transaction kind: ops writing
    // f-regs, a compare writing an x-reg, and fflags checks. One pair
    // keeps the scalar minver probes affordable.
    expect_matrix_matches_reference(
        rtl::make_fpu32(), 1,
        {fpu_test("f0", fp::FpuOp::Add, 0x3f800000, 0x3f800000, 0, false),
         fpu_test("f1", fp::FpuOp::Mul, 0x40490fdb, 0x3eaaaaab, 0, true),
         fpu_test("f2", fp::FpuOp::Lt, 0xbf800000, 0x3f800000, 1, false),
         fpu_test("f3", fp::FpuOp::Sub, 0x7f7fffff, 0xff7fffff, 1, true)});
}

TEST(FleetMatrix, CharacterizesRealAluFaultsDeterministically)
{
    HwModule module = rtl::make_alu32();
    std::vector<sta::EndpointPair> pairs = aged_pairs(module);
    ASSERT_FALSE(pairs.empty());

    std::vector<runtime::TestCase> suite = {
        alu_test("c0", AluOp::Add, 0xffffffff, 1, 0),
        alu_test("c1", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
    };
    std::vector<lift::FaultConstant> constants = {
        lift::FaultConstant::Zero, lift::FaultConstant::One};

    auto m1 = build_fault_matrix(module, pairs, suite, constants, 1, 5);
    ASSERT_TRUE(m1.ok()) << m1.error().to_string();
    auto m4 = build_fault_matrix(module, pairs, suite, constants, 4, 5);
    ASSERT_TRUE(m4.ok());

    EXPECT_EQ(m1->faults.size(), pairs.size() * constants.size());
    EXPECT_EQ(m1->num_tests, suite.size());
    ASSERT_EQ(m1->faults.size(), m4->faults.size());
    for (size_t i = 0; i < m1->faults.size(); ++i) {
        EXPECT_EQ(m1->faults[i].corrupts, m4->faults[i].corrupts) << i;
        EXPECT_EQ(m1->faults[i].per_test, m4->faults[i].per_test) << i;
    }

    // The matrix feeds a small fleet end to end.
    FleetConfig fleet_cfg = small_config();
    fleet_cfg.num_devices = 200;
    fleet_cfg.epochs = 3;
    auto r = run_fleet(fleet_cfg, *m1);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(r->num_pairs, pairs.size());
    EXPECT_GE(r->device_epochs, r->num_devices);
}

} // namespace
} // namespace vega::fleet
