#include <gtest/gtest.h>

#include "cpu/alu_ops.h"
#include "cpu/softfp.h"
#include "equiv.h"
#include "lift/error_lifting.h"
#include "lift/fuzz_lifting.h"
#include "netlist/builder.h"
#include "rtl/adder2.h"
#include "rtl/alu32.h"
#include "runtime/suite_io.h"

namespace vega {
namespace {

// ---- Suite serialization ---------------------------------------------------

TEST(SuiteIo, RoundTripPreservesEverything)
{
    runtime::TestCase tc;
    tc.module = ModuleKind::Alu32;
    tc.name = "roundtrip";
    tc.config = "C=1,rise";
    tc.pair_index = 7;
    tc.stimulus = {{123u, 456u, uint32_t(AluOp::Add), true, false},
                   {7u, 9u, uint32_t(AluOp::Xor), true, false}};
    tc.checks = {{0, 579u, false}, {1, 14u, false}};
    runtime::finalize_test_case(tc);

    std::string text = runtime::serialize_suite({tc});
    auto back = runtime::deserialize_suite(text);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].name, "roundtrip");
    EXPECT_EQ(back[0].config, "C=1,rise");
    EXPECT_EQ(back[0].pair_index, 7);
    EXPECT_EQ(back[0].stimulus.size(), 2u);
    EXPECT_EQ(back[0].stimulus[1].b, 9u);
    EXPECT_EQ(back[0].checks.size(), 2u);
    // Programs are recompiled and re-verified on load.
    EXPECT_EQ(back[0].cycle_cost, tc.cycle_cost);
    EXPECT_EQ(back[0].program.size(), tc.program.size());
}

TEST(SuiteIo, FpuFlagsRoundTrip)
{
    runtime::TestCase tc;
    tc.module = ModuleKind::Fpu32;
    tc.name = "fpu";
    tc.stimulus = {{0x3f800000u, 0x20000000u, uint32_t(fp::FpuOp::Add),
                    true, false}};
    tc.checks = {{0, 0x3f800000u, false}};
    tc.check_final_flags = true;
    tc.expected_flags = fp::kNX;
    runtime::finalize_test_case(tc);

    auto back = runtime::deserialize_suite(runtime::serialize_suite({tc}));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(back[0].check_final_flags);
    EXPECT_EQ(back[0].expected_flags, fp::kNX);
}

TEST(SuiteIo, MalformedInputThrowsWithLineNumber)
{
    EXPECT_THROW(runtime::deserialize_suite("step 1 2 3 4 5\n"),
                 std::runtime_error);
    EXPECT_THROW(runtime::deserialize_suite(
                     "testcase alu32 0 a b\n  bogus\nend\n"),
                 std::runtime_error);
    EXPECT_THROW(runtime::deserialize_suite("testcase mars 0 a b\nend\n"),
                 std::runtime_error);
    EXPECT_THROW(
        runtime::deserialize_suite("testcase alu32 0 a b\n  step 1\n"),
        std::runtime_error);
}

TEST(SuiteIo, CommentsAndBlankLinesIgnored)
{
    auto suite = runtime::deserialize_suite("# header\n\n# nothing\n");
    EXPECT_TRUE(suite.empty());
}

TEST(SuiteIo, GarbageDirectiveIsParseErrorWithLine)
{
    auto r = runtime::try_deserialize_suite(
        "# ok\ntestcase alu32 0 t -\n  zorp 1 2\nend\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().context.find("line 3"), std::string::npos)
        << r.error().context;
    EXPECT_NE(r.error().context.find("zorp"), std::string::npos);
}

TEST(SuiteIo, TruncatedTestcaseIsParseError)
{
    // File ends mid-testcase (the shipping side crashed, or the file
    // was cut during transfer): structured error, not an exception.
    auto r = runtime::try_deserialize_suite(
        "testcase alu32 0 cut -\n  step 1 2 0 1 0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().context.find("unterminated"), std::string::npos)
        << r.error().context;
    EXPECT_NE(r.error().context.find("cut"), std::string::npos);
}

TEST(SuiteIo, FieldSwappedStepFailsGoldenVerification)
{
    // A structurally well-formed testcase whose expected value was
    // corrupted (fields transposed) must be caught by the golden-model
    // re-verification on load, as a ValidationError naming the test.
    auto r = runtime::try_deserialize_suite(
        "testcase alu32 0 swapped -\n"
        "  step 3 4 0 1 0\n"
        "  check 0 99 0\n"
        "end\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ValidationError);
    EXPECT_NE(r.error().context.find("golden model"), std::string::npos)
        << r.error().context;
    EXPECT_NE(r.error().context.find("swapped"), std::string::npos);
}

TEST(SuiteIo, OutOfRangeFieldsAreValidationErrors)
{
    // Opcode beyond the module's ISA.
    auto op = runtime::try_deserialize_suite(
        "testcase alu32 0 t -\n  step 1 2 99 1 0\n  check 0 3 0\nend\n");
    ASSERT_FALSE(op.ok());
    EXPECT_EQ(op.error().code, ErrorCode::ValidationError);

    // Check referencing a step that does not exist.
    auto step = runtime::try_deserialize_suite(
        "testcase alu32 0 t -\n  step 1 2 0 1 0\n  check 7 3 0\nend\n");
    ASSERT_FALSE(step.ok());
    EXPECT_EQ(step.error().code, ErrorCode::ValidationError);
}

// ---- Equivalence checking --------------------------------------------------

TEST(Equiv, IdenticalModulesAreEquivalent)
{
    HwModule a = rtl::make_adder2();
    HwModule b = rtl::make_adder2();
    formal::BmcOptions opts;
    opts.max_frames = 5;
    formal::EquivResult r =
        formal::check_equivalence(a.netlist, b.netlist, opts);
    EXPECT_EQ(r.status, formal::EquivStatus::Equivalent);
}

TEST(Equiv, StructurallyDifferentButFunctionallyEqual)
{
    // Build a second adder with a different sum-bit structure:
    // o0 = (a0 | b0) & !(a0 & b0) instead of a0 ^ b0.
    HwModule a = rtl::make_adder2();

    HwModule b;
    Netlist &nl = b.netlist;
    nl.set_name("adder2_alt");
    Builder bb(nl);
    auto ain = nl.add_input_bus("a", 2);
    auto bin = nl.add_input_bus("b", 2);
    Bus aq, bq;
    for (int i = 0; i < 2; ++i) {
        aq.push_back(bb.dff(ain[size_t(i)]));
        bq.push_back(bb.dff(bin[size_t(i)]));
    }
    NetId s0 = bb.and_(bb.or_(aq[0], bq[0]),
                       bb.not_(bb.and_(aq[0], bq[0])));
    NetId carry = bb.and_(aq[0], bq[0]);
    NetId s1 = bb.xor_(bb.xor_(aq[1], bq[1]), carry);
    NetId o0 = bb.dff(s0);
    NetId o1 = bb.dff(s1);
    nl.add_output_bus("o", {o0, o1});

    formal::BmcOptions opts;
    opts.max_frames = 5;
    formal::EquivResult r =
        formal::check_equivalence(a.netlist, nl, opts);
    EXPECT_EQ(r.status, formal::EquivStatus::Equivalent);
}

TEST(Equiv, FailingNetlistIsProvablyDifferent)
{
    HwModule m = rtl::make_adder2();
    // Inject a fault on the paper's $4 -> $10 path.
    CellId launch = kInvalidId, capture = kInvalidId;
    for (CellId c = 0; c < m.netlist.num_cells(); ++c) {
        if (m.netlist.cell(c).name == "$4")
            launch = c;
        if (m.netlist.cell(c).name == "$10")
            capture = c;
    }
    lift::FailureModelSpec spec;
    spec.launch = launch;
    spec.capture = capture;
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    lift::FailingNetlist failing =
        lift::build_failing_netlist(m.netlist, spec);

    formal::BmcOptions opts;
    opts.max_frames = 6;
    formal::EquivResult r =
        formal::check_equivalence(m.netlist, failing.netlist, opts);
    ASSERT_EQ(r.status, formal::EquivStatus::Different);
    EXPECT_GE(r.frames, 2);
    // The counterexample shows the diverging output.
    EXPECT_EQ(r.counterexample.at("miter_diff", r.frames - 1).to_u64(),
              1u);
    EXPECT_NE(r.counterexample.at("o@a", r.frames - 1).to_u64(),
              r.counterexample.at("o@b", r.frames - 1).to_u64());
}

TEST(Equiv, ShadowInstrumentationPreservesOriginalOutputs)
{
    // The shadow replica must never disturb the module's real outputs:
    // compare the instrumented netlist's original buses against the
    // pristine module.
    HwModule m = rtl::make_adder2();
    CellId launch = kInvalidId, capture = kInvalidId;
    for (CellId c = 0; c < m.netlist.num_cells(); ++c) {
        if (m.netlist.cell(c).name == "$4")
            launch = c;
        if (m.netlist.cell(c).name == "$10")
            capture = c;
    }
    lift::FailureModelSpec spec;
    spec.launch = launch;
    spec.capture = capture;
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    lift::ShadowInstrumentation shadow =
        lift::build_shadow_instrumentation(m.netlist, spec);

    // Trim the shadow netlist's extra output buses for the interface
    // check by wrapping: compare only the shared "o" bus via a custom
    // miter using splice_netlist.
    Netlist miter("shadow_preserves");
    std::vector<std::pair<NetId, NetId>> bind_a, bind_b;
    for (const auto &bus : m.netlist.input_bus_names()) {
        auto shared = miter.add_input_bus(bus, m.netlist.bus(bus).size());
        const auto &na = m.netlist.bus(bus);
        const auto &nb = shadow.netlist.bus(bus);
        for (size_t i = 0; i < shared.size(); ++i) {
            bind_a.emplace_back(na[i], shared[i]);
            bind_b.emplace_back(nb[i], shared[i]);
        }
    }
    auto map_a = formal::splice_netlist(miter, m.netlist, bind_a, "@a");
    auto map_b =
        formal::splice_netlist(miter, shadow.netlist, bind_b, "@b");
    Builder bld(miter, "m");
    std::vector<NetId> diffs;
    for (size_t i = 0; i < m.netlist.bus("o").size(); ++i)
        diffs.push_back(bld.xor_(map_a[m.netlist.bus("o")[i]],
                                 map_b[shadow.netlist.bus("o")[i]]));
    NetId diff = bld.or_n(diffs);
    miter.add_output_bus("diff", {diff});
    miter.validate();

    formal::BmcOptions opts;
    opts.max_frames = 5;
    formal::BmcResult r = formal::check_cover(miter, diff, opts);
    EXPECT_EQ(r.status, formal::BmcStatus::Unreachable);
}

// ---- Fuzzing-based lifting --------------------------------------------------

TEST(FuzzLifting, FindsObservableFaultOnAlu)
{
    HwModule alu = rtl::make_alu32();
    auto dffs = alu.netlist.dffs();
    lift::FailureModelSpec aspec;
    aspec.launch = dffs[0];
    aspec.capture = dffs.back();
    aspec.is_setup = true;
    aspec.constant = lift::FaultConstant::One;
    lift::ShadowInstrumentation ashadow =
        lift::build_shadow_instrumentation(alu.netlist, aspec);

    lift::FuzzConfig cfg;
    cfg.max_episodes = 2000;
    lift::FuzzResult r =
        lift::fuzz_cover(ashadow, ModuleKind::Alu32, cfg);
    ASSERT_TRUE(r.found);
    EXPECT_GT(r.trace.num_cycles(), 0u);
    // Mismatch holds in the final recorded cycle, as with BMC traces.
    EXPECT_EQ(r.trace.at("mismatch", r.trace.num_cycles() - 1).to_u64(),
              1u);
}

TEST(FuzzLifting, FuzzTraceConvertsToWorkingTest)
{
    HwModule alu = rtl::make_alu32();
    auto dffs = alu.netlist.dffs();
    lift::FailureModelSpec spec;
    spec.launch = dffs[1];
    spec.capture = dffs.back();
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    lift::ShadowInstrumentation shadow =
        lift::build_shadow_instrumentation(alu.netlist, spec);

    lift::FuzzConfig cfg;
    cfg.max_episodes = 2000;
    lift::FuzzResult r = lift::fuzz_cover(shadow, ModuleKind::Alu32, cfg);
    ASSERT_TRUE(r.found);

    lift::ConversionResult conv =
        lift::build_test_case(ModuleKind::Alu32, r.trace, 0, "fuzz");
    ASSERT_TRUE(conv.ok) << conv.reason;

    lift::FailingNetlist failing =
        lift::build_failing_netlist(alu.netlist, spec);
    EXPECT_NE(lift::replay_on_module(conv.test, failing.netlist),
              runtime::Detection::None);
}

TEST(FuzzLifting, CannotProveUnreachability)
{
    // A masked fault (C equals the only reachable value): fuzzing just
    // exhausts its budget, while BMC proves unreachability — the §3.3
    // argument for formal methods.
    Netlist nl("masked");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 32);
    auto bb2 = nl.add_input_bus("b", 32);
    auto op = nl.add_input_bus("op", 4);
    (void)bb2;
    (void)op;
    NetId aq = b.dff(a[0]);
    NetId z = b.and_(aq, b.not_(aq));
    NetId o = b.dff(z);
    Bus r_bus{o};
    for (int i = 1; i < 32; ++i)
        r_bus.push_back(b.const0());
    nl.add_output_bus("r", r_bus);

    lift::FailureModelSpec spec;
    spec.launch = nl.net(aq).driver;
    spec.capture = nl.net(o).driver;
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::Zero;
    lift::ShadowInstrumentation shadow =
        lift::build_shadow_instrumentation(nl, spec);

    lift::FuzzConfig cfg;
    cfg.max_episodes = 100;
    lift::FuzzResult fz = lift::fuzz_cover(shadow, ModuleKind::Alu32, cfg);
    EXPECT_FALSE(fz.found);
    EXPECT_EQ(fz.episodes, 100u); // budget exhausted, no verdict

    formal::BmcOptions opts;
    opts.max_frames = 4;
    opts.state_equalities = shadow.state_pairs;
    formal::BmcResult bmc =
        formal::check_cover(shadow.netlist, shadow.mismatch, opts);
    EXPECT_EQ(bmc.status, formal::BmcStatus::Unreachable);
}

} // namespace
} // namespace vega
