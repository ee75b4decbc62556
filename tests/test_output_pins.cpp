/**
 * @file
 * Output pins: CRC32C digests of products that refactors must hold
 * byte-identical. Each digest covers the exact bytes a reader of the
 * product sees, so a change anywhere in its construction fails here
 * even when every behavioural test still passes:
 *
 *  - the §3.3.1 failure-model products (failing netlist, shadow
 *    instrumentation, fault bank, shadow bank) as exported Verilog, for
 *    every ALU liftable pair and every adder2 flop as a same-flop path;
 *  - the lifted suites of the ALU, MDU and FPU under the campaign and
 *    fleet CLIs' workflow settings, with each test's compiled block,
 *    cycle cost and the per-configuration lifting outcomes;
 *  - the SAT search behind ALU and FPU lifting, as its solve, conflict,
 *    propagation, decision and unrolled-frame counts, which move with
 *    any reordered clause or watch list even when no witness does;
 *  - the netlist orders the CNF and the tape are numbered by: every
 *    generated unit's and an ALU shadow bank's topological order and
 *    reader lists.
 *
 * A change that means to move one of these outputs re-pins its digest
 * and says why.
 */
#include <gtest/gtest.h>

#include "aging/timing_library.h"
#include "common/checksum.h"
#include "lift/failure_model.h"
#include "netlist/verilog_writer.h"
#include "obs/metrics.h"
#include "runtime/suite_io.h"
#include "vega/workflow.h"

namespace vega {
namespace {

using lift::FailureModelSpec;
using lift::FaultConstant;
using lift::Mitigation;

const aging::AgingTimingLibrary &
lib()
{
    static aging::AgingTimingLibrary l =
        aging::AgingTimingLibrary::build(aging::RdModelParams{});
    return l;
}

/** The workflow settings vega_campaign and vega_fleet run with. */
WorkflowConfig
cli_workflow_config(size_t max_pairs)
{
    WorkflowConfig cfg;
    cfg.aging.max_trace = 4000;
    cfg.lift.max_pairs = max_pairs;
    cfg.lift.bmc.max_frames = 4;
    cfg.lift.bmc.conflict_budget = 400000;
    cfg.lift.formal_attempts = 2;
    cfg.lift.formal_budget_growth = 4.0;
    cfg.lift.degrade_to_fuzz = true;
    return cfg;
}

/**
 * Every failure-model configuration of each (launch, capture, setup)
 * path: C in {0, 1, rand} x mitigation in {none, rise, fall}.
 */
std::vector<FailureModelSpec>
all_configs(const std::vector<FailureModelSpec> &paths)
{
    std::vector<FailureModelSpec> out;
    for (const FailureModelSpec &path : paths)
        for (FaultConstant c : {FaultConstant::Zero, FaultConstant::One,
                                FaultConstant::RandomInput})
            for (Mitigation m : {Mitigation::None, Mitigation::RisingEdge,
                                 Mitigation::FallingEdge}) {
                FailureModelSpec s = path;
                s.constant = c;
                s.mitigation = m;
                out.push_back(s);
            }
    return out;
}

/**
 * CRC32C over the Verilog of every product of @p specs on @p nl: each
 * spec's failing netlist and (constant C only) its shadow
 * instrumentation with the mismatch net, then one fault bank over all
 * specs and one shadow bank over the constant-C specs.
 */
uint32_t
failure_model_digest(const Netlist &nl,
                     const std::vector<FailureModelSpec> &specs)
{
    Crc32c crc;
    std::vector<FailureModelSpec> constant_specs;
    for (const FailureModelSpec &s : specs) {
        crc.update(to_verilog(lift::build_failing_netlist(nl, s).netlist));
        if (s.constant == FaultConstant::RandomInput)
            continue;
        constant_specs.push_back(s);
        lift::ShadowInstrumentation shadow =
            lift::build_shadow_instrumentation(nl, s);
        crc.update(to_verilog(shadow.netlist));
        crc.update(std::to_string(shadow.mismatch) + " " +
                   shadow.netlist.net(shadow.mismatch).name + "\n");
    }
    crc.update(to_verilog(lift::build_fault_bank(nl, specs).netlist));
    lift::ShadowBank bank = lift::build_shadow_bank(nl, constant_specs);
    crc.update(to_verilog(bank.netlist));
    for (const lift::ShadowBank::Cone &cone : bank.cones) {
        crc.update(std::to_string(cone.mismatch) + "\n");
        for (const auto &[orig, shadow] : cone.state_pairs)
            crc.update(std::to_string(orig) + " " +
                       std::to_string(shadow) + "\n");
    }
    return crc.value();
}

/**
 * CRC32C over a unit's lifted suite under the CLIs' workflow settings:
 * the serialized suite (stimulus and checks), each test's compiled
 * block and cycle cost, and each configuration's lifting outcome.
 */
uint32_t
suite_digest(ModuleKind kind, size_t max_pairs)
{
    HwModule module = make_module(kind);
    WorkflowResult wf = run_workflow(module, lib(), minver_trace(),
                                     cli_workflow_config(max_pairs));
    std::string bytes = runtime::serialize_suite(wf.suite);
    for (const runtime::TestCase &t : wf.suite)
        bytes += t.assembly() + "cycles " + std::to_string(t.cycle_cost) +
                 "\n";
    for (const lift::PairResult &pr : wf.lift.pairs) {
        bytes += std::string("pair ") + lift::pair_status_name(pr.status) +
                 "\n";
        for (const lift::ConfigOutcome &co : pr.configs)
            bytes += co.name + " " + formal::bmc_status_name(co.bmc) + " " +
                     std::to_string(co.frames) + " " +
                     std::to_string(co.converted) + " " +
                     std::to_string(co.validated) + "\n";
    }
    return crc32c(bytes);
}

/**
 * The (launch, capture, setup) paths of @p module's liftable pairs
 * after aging analysis at the CLIs' trace length.
 */
std::vector<FailureModelSpec>
liftable_paths(HwModule &module)
{
    AgingAnalysisConfig acfg;
    acfg.max_trace = 4000;
    AgingAnalysisResult aging =
        run_aging_analysis(module, lib(), minver_trace(), acfg);
    std::vector<FailureModelSpec> paths;
    for (const sta::EndpointPair &p : aging.liftable_pairs()) {
        FailureModelSpec s;
        s.launch = p.launch;
        s.capture = p.capture;
        s.is_setup = p.is_setup;
        paths.push_back(s);
    }
    return paths;
}

/**
 * The SAT search of lifting @p module's first @p max_pairs pairs under
 * the CLIs' workflow settings: the solve, conflict, propagation,
 * decision and unrolled-frame counters spent by run_error_lifting.
 */
std::string
lifting_search_counters(ModuleKind kind, size_t max_pairs)
{
    HwModule module = make_module(kind);
    WorkflowConfig cfg = cli_workflow_config(max_pairs);
    AgingAnalysisResult aging =
        run_aging_analysis(module, lib(), minver_trace(), cfg.aging);
    const std::vector<std::string> names = {
        "sat.solves", "sat.conflicts", "sat.propagations", "sat.decisions",
        "bmc.frames_unrolled"};
    obs::reset_metrics();
    std::vector<uint64_t> before;
    for (const std::string &name : names)
        before.push_back(obs::counter(name).value());
    lift::run_error_lifting(module, aging.liftable_pairs(), cfg.lift);
    std::string out;
    for (size_t i = 0; i < names.size(); ++i)
        out += std::string(i ? " " : "") + names[i] + " " +
               std::to_string(obs::counter(names[i]).value() - before[i]);
    return out;
}

/** CRC32C over @p nl's topological order and every net's readers. */
uint32_t
order_digest(const Netlist &nl)
{
    std::string bytes;
    for (CellId c : nl.topo_order())
        bytes += std::to_string(c) + " ";
    bytes += "\n";
    for (NetId n = 0; n < nl.num_nets(); ++n) {
        for (CellId r : nl.readers(n))
            bytes += std::to_string(r) + " ";
        bytes += "\n";
    }
    return crc32c(bytes);
}

TEST(OutputPin, AluFailureModelProducts)
{
    HwModule alu = make_module(ModuleKind::Alu32);
    std::vector<FailureModelSpec> paths = liftable_paths(alu);
    ASSERT_EQ(paths.size(), 8u);
    EXPECT_EQ(crc32c_hex(failure_model_digest(alu.netlist,
                                              all_configs(paths))),
              "06e9827d");
}

TEST(OutputPin, Adder2SameFlopProducts)
{
    // No lifted corpus holds a same-flop path (§3.3.1's metastable
    // model), so every adder2 flop stands in as one, setup and hold.
    HwModule adder = make_module(ModuleKind::Adder2);
    std::vector<FailureModelSpec> paths;
    for (CellId ff : adder.netlist.dffs())
        for (bool setup : {true, false}) {
            FailureModelSpec s;
            s.launch = ff;
            s.capture = ff;
            s.is_setup = setup;
            paths.push_back(s);
        }
    ASSERT_EQ(paths.size(), 12u);
    EXPECT_EQ(crc32c_hex(failure_model_digest(adder.netlist,
                                              all_configs(paths))),
              "9cb5178c");
}

TEST(OutputPin, AluSuite)
{
    EXPECT_EQ(crc32c_hex(suite_digest(ModuleKind::Alu32, 8)), "045591ad");
}

TEST(OutputPin, MduSuite)
{
    EXPECT_EQ(crc32c_hex(suite_digest(ModuleKind::Mdu32, 30)), "ee30512c");
}

TEST(OutputPin, FpuSuite)
{
    EXPECT_EQ(crc32c_hex(suite_digest(ModuleKind::Fpu32, 8)), "4b3eb534");
}

TEST(OutputPin, LiftingSearchCounters)
{
    EXPECT_EQ(lifting_search_counters(ModuleKind::Alu32, 8),
              "sat.solves 64 sat.conflicts 120 sat.propagations 107830 "
              "sat.decisions 13947 bmc.frames_unrolled 51");
    EXPECT_EQ(lifting_search_counters(ModuleKind::Fpu32, 4),
              "sat.solves 32 sat.conflicts 1975 sat.propagations 1191122 "
              "sat.decisions 27656 bmc.frames_unrolled 27");
}

TEST(OutputPin, TopoOrders)
{
    const std::pair<ModuleKind, const char *> units[] = {
        {ModuleKind::Alu32, "8f9a2cd8"},
        {ModuleKind::Fpu32, "0e2201d2"},
        {ModuleKind::Mdu32, "1dc2e333"},
        {ModuleKind::MemDec16, "0cda4398"},
    };
    for (const auto &[kind, pin] : units)
        EXPECT_EQ(crc32c_hex(order_digest(make_module(kind).netlist)), pin)
            << static_cast<int>(kind);

    // The shadow bank lifting unrolls: C in {0, 1} on every pair.
    HwModule alu = make_module(ModuleKind::Alu32);
    std::vector<FailureModelSpec> specs;
    for (const FailureModelSpec &path : liftable_paths(alu))
        for (FaultConstant c : {FaultConstant::Zero, FaultConstant::One}) {
            FailureModelSpec s = path;
            s.constant = c;
            specs.push_back(s);
        }
    ASSERT_EQ(specs.size(), 16u);
    EXPECT_EQ(crc32c_hex(order_digest(
                  lift::build_shadow_bank(alu.netlist, specs).netlist)),
              "e6b298fd");
}

} // namespace
} // namespace vega
