#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <mutex>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "common/logging.h"
#include "cpu/alu_ops.h"
#include "fleet/fault_matrix.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "obs/metrics.h"
#include "reference_campaign.h"
#include "rtl/memdec.h"
#include "runtime/suite_io.h"
#include "sim/batch_sim.h"
#include "vega/workflow.h"
#include "workloads/march.h"

namespace vega {
namespace {

using mem::MemFaultClass;
using mem::MemFaultKind;

const aging::AgingTimingLibrary &
lib()
{
    static aging::AgingTimingLibrary l =
        aging::AgingTimingLibrary::build(aging::RdModelParams{});
    return l;
}

/** Drive addr/we/din and step once. */
void
drive(BatchSimulator &sim, uint32_t addr, bool we, uint32_t din)
{
    sim.set_bus_all("addr", BitVec(4, addr));
    sim.set_bus_all("we", BitVec(1, we ? 1 : 0));
    sim.set_bus_all("din", BitVec(8, din));
    sim.step();
}

// ---------------------------------------------------------------------
// Substrate behavior

TEST(MemDecSubstrate, WordlinesAreOneHot)
{
    HwModule m = rtl::make_memdec16();
    BatchSimulator sim(m.netlist);
    sim.reset();
    for (uint32_t a = 0; a < 16; ++a) {
        for (int i = 0; i < 3; ++i)
            drive(sim, a, false, 0);
        BitVec rwl = sim.bus_value("rwl", 0);
        BitVec wwl = sim.bus_value("wwl", 0);
        EXPECT_EQ(rwl.popcount(), 1u) << "addr " << a;
        EXPECT_TRUE(rwl.get(a)) << "addr " << a;
        EXPECT_EQ(wwl.popcount(), 1u) << "addr " << a;
        EXPECT_TRUE(wwl.get(a)) << "addr " << a;
    }
}

TEST(MemDecSubstrate, WriteReadRoundTrip)
{
    HwModule m = rtl::make_memdec16();
    BatchSimulator sim(m.netlist);
    sim.reset();

    // Write distinct values to three rows, then read them back.
    const uint32_t rows[3] = {0, 7, 15};
    const uint32_t vals[3] = {0xa5, 0x3c, 0xff};
    for (int i = 0; i < 3; ++i)
        for (int c = 0; c < 5; ++c)
            drive(sim, rows[i], true, vals[i]);
    for (int i = 0; i < 3; ++i) {
        for (int c = 0; c < 5; ++c)
            drive(sim, rows[i], false, 0);
        EXPECT_EQ(sim.bus_value("rdata", 0).to_u64(), vals[i])
            << "row " << rows[i];
    }

    // Overwrite one row; the neighbors keep their data.
    for (int c = 0; c < 5; ++c)
        drive(sim, 7, true, 0x11);
    for (int c = 0; c < 5; ++c)
        drive(sim, 7, false, 0);
    EXPECT_EQ(sim.bus_value("rdata", 0).to_u64(), 0x11u);
    for (int c = 0; c < 5; ++c)
        drive(sim, 15, false, 0);
    EXPECT_EQ(sim.bus_value("rdata", 0).to_u64(), 0xffu);
}

TEST(MemDecSubstrate, ParamValidation)
{
    rtl::MemDecParams p;
    p.addr_bits = 1;
    EXPECT_DEATH(rtl::make_memdec(p), "memdec");
    p.addr_bits = 5;
    EXPECT_DEATH(rtl::make_memdec(p), "memdec");
    p.addr_bits = 3;
    p.word_bits = 0;
    EXPECT_DEATH(rtl::make_memdec(p), "memdec");
    p.word_bits = 4;
    HwModule m = rtl::make_memdec(p);
    EXPECT_EQ(m.netlist.bus("rwl").size(), 8u);
}

// ---------------------------------------------------------------------
// Gate-stage discovery helpers

/** An address rail repeater: a Buf fed by a DFF whose output fans out
 *  to several pre-decode literals. */
CellId
find_rail_buffer(const Netlist &nl)
{
    for (CellId c = 0; c < CellId(nl.num_cells()); ++c) {
        const Cell &cell = nl.cell(c);
        if (cell.type != CellType::Buf)
            continue;
        CellId drv = nl.net(cell.in[0]).driver;
        if (drv == kInvalidId || nl.cell(drv).type != CellType::Dff)
            continue;
        if (nl.readers(cell.out).size() > 1)
            return c;
    }
    return kInvalidId;
}

/** A pre-decode NAND: both inputs are address literals (Buf/Not of a
 *  rail repeater). */
CellId
find_predecode_nand(const Netlist &nl)
{
    for (CellId c = 0; c < CellId(nl.num_cells()); ++c) {
        const Cell &cell = nl.cell(c);
        if (cell.type != CellType::Nand2)
            continue;
        bool pre = true;
        for (int k = 0; k < 2 && pre; ++k) {
            CellId drv = nl.net(cell.in[size_t(k)]).driver;
            if (drv == kInvalidId) {
                pre = false;
                break;
            }
            const Cell &d = nl.cell(drv);
            if (d.type != CellType::Buf && d.type != CellType::Not) {
                pre = false;
                break;
            }
            CellId dd = nl.net(d.in[0]).driver;
            if (dd == kInvalidId || nl.cell(dd).type != CellType::Buf)
                pre = false;
        }
        if (pre)
            return c;
    }
    return kInvalidId;
}

/** A final-stage NAND: inputs are pre-decode lines (Not of a NAND). */
CellId
find_final_nand(const Netlist &nl)
{
    for (CellId c = 0; c < CellId(nl.num_cells()); ++c) {
        const Cell &cell = nl.cell(c);
        if (cell.type != CellType::Nand2)
            continue;
        CellId drv = nl.net(cell.in[0]).driver;
        if (drv == kInvalidId || nl.cell(drv).type != CellType::Not)
            continue;
        CellId dd = nl.net(nl.cell(drv).in[0]).driver;
        if (dd != kInvalidId && nl.cell(dd).type == CellType::Nand2)
            return c;
    }
    return kInvalidId;
}

// ---------------------------------------------------------------------
// Decoder lifting: stage-dependent fault classes

TEST(DecoderLift, AddressRepeaterLiftsToWrongRow)
{
    HwModule m = rtl::make_memdec16();
    CellId gate = find_rail_buffer(m.netlist);
    ASSERT_NE(gate, kInvalidId);

    // A stale shared address bit gives the whole stack a hybrid
    // address: exactly one wrong row selected, the right one missing.
    MemFaultClass cls = mem::classify_slow_gate(m.netlist, gate);
    EXPECT_TRUE(cls.kind == MemFaultKind::WrongRowRead ||
                cls.kind == MemFaultKind::WrongRowWrite)
        << cls.to_string();
    // The rail feeds the read and write stacks alike.
    EXPECT_TRUE(cls.affects_read);
    EXPECT_TRUE(cls.affects_write);
    EXPECT_NE(cls.victim, cls.aggressor);
    EXPECT_GT(cls.patterns, 0u);
    EXPECT_TRUE(validate_fault_class(cls).ok());
}

TEST(DecoderLift, PreDecodeGateLiftsToMultiSelectOnBothPorts)
{
    HwModule m = rtl::make_memdec16();
    CellId gate = find_predecode_nand(m.netlist);
    ASSERT_NE(gate, kInvalidId);

    // A stale group line keeps the old group selected next to the new
    // one — and the shared pre-decode shows it on both ports.
    MemFaultClass cls = mem::classify_slow_gate(m.netlist, gate);
    EXPECT_TRUE(cls.kind == MemFaultKind::MultiSelect ||
                cls.kind == MemFaultKind::NoSelect)
        << cls.to_string();
    EXPECT_TRUE(cls.affects_read);
    EXPECT_TRUE(cls.affects_write);
    EXPECT_TRUE(validate_fault_class(cls).ok());
}

TEST(DecoderLift, FinalStageGateLiftsToMultiOrNoSelect)
{
    HwModule m = rtl::make_memdec16();
    CellId gate = find_final_nand(m.netlist);
    ASSERT_NE(gate, kInvalidId);

    MemFaultClass cls = mem::classify_slow_gate(m.netlist, gate);
    EXPECT_TRUE(cls.kind == MemFaultKind::MultiSelect ||
                cls.kind == MemFaultKind::NoSelect)
        << cls.to_string();
    // A final-stage gate sits in exactly one port's stack.
    EXPECT_NE(cls.affects_read, cls.affects_write);
    EXPECT_TRUE(validate_fault_class(cls).ok());
}

TEST(DecoderLift, DatapathGateDoesNotLift)
{
    HwModule m = rtl::make_memdec16();
    // A write-mux cell is behind the wordlines: a slow gate there
    // corrupts values, never addresses.
    CellId gate = kInvalidId;
    for (CellId c = 0; c < CellId(m.netlist.num_cells()); ++c)
        if (m.netlist.cell(c).type == CellType::Mux2) {
            gate = c;
            break;
        }
    ASSERT_NE(gate, kInvalidId);
    MemFaultClass cls = mem::classify_slow_gate(m.netlist, gate);
    EXPECT_EQ(cls.kind, MemFaultKind::None) << cls.to_string();
}

TEST(DecoderLift, SlowGateNetlistRejectsDffTarget)
{
    HwModule m = rtl::make_memdec16();
    CellId dff = m.netlist.dffs().front();
    EXPECT_DEATH(mem::build_slow_gate_netlist(m.netlist, dff),
                 "combinational");
    EXPECT_DEATH(mem::build_slow_gate_netlist(
                     m.netlist, CellId(m.netlist.num_cells())),
                 "out of range");
}

// ---------------------------------------------------------------------
// Fault-class validation negatives

TEST(FaultClass, ValidationNegatives)
{
    MemFaultClass c;
    c.kind = MemFaultKind::WrongRowRead;
    c.rows = 16;
    c.victim = 3;
    c.aggressor = 3; // self-aliasing wrong-row is a classification bug
    c.affects_read = true;
    EXPECT_FALSE(mem::validate_fault_class(c).ok());

    c.aggressor = 16; // out of range
    EXPECT_FALSE(mem::validate_fault_class(c).ok());

    c.aggressor = 5;
    c.rows = 12; // not a power of two
    EXPECT_FALSE(mem::validate_fault_class(c).ok());

    c.rows = 16;
    c.affects_read = false; // non-None class that affects nothing
    EXPECT_FALSE(mem::validate_fault_class(c).ok());

    c.affects_read = true;
    EXPECT_TRUE(mem::validate_fault_class(c).ok());

    c.kind = MemFaultKind::NoSelect;
    c.victim = 2;
    c.aggressor = 4; // no-select starves its own row only
    EXPECT_FALSE(mem::validate_fault_class(c).ok());
    c.victim = 4;
    EXPECT_TRUE(mem::validate_fault_class(c).ok());

    MemFaultClass none;
    EXPECT_TRUE(mem::validate_fault_class(none).ok());
}

// ---------------------------------------------------------------------
// Injector semantics

MemFaultClass
make_class(MemFaultKind kind, uint32_t victim, uint32_t aggressor,
           bool rd, bool wr)
{
    MemFaultClass c;
    c.kind = kind;
    c.rows = 16;
    c.victim = victim;
    c.aggressor = aggressor;
    c.affects_read = rd;
    c.affects_write = wr;
    c.patterns = 1;
    return c;
}

TEST(MemFaultInjector, WrongRowReadRedirectsLoadsOnly)
{
    mem::MemFaultInjector inj(
        make_class(MemFaultKind::WrongRowRead, 3, 5, true, false));
    uint32_t aggr = 4096 + 5 * 4;
    auto load = inj.access(aggr, false);
    EXPECT_EQ(load.addr, 4096u + 3 * 4);
    EXPECT_FALSE(load.has_extra);
    EXPECT_FALSE(load.squash);
    auto store = inj.access(aggr, true); // write stack is healthy
    EXPECT_EQ(store.addr, aggr);
    auto other = inj.access(4096 + 9 * 4, false);
    EXPECT_EQ(other.addr, 4096u + 9 * 4);
    EXPECT_EQ(inj.accesses(), 3u);
    EXPECT_EQ(inj.applied(), 1u);
}

TEST(MemFaultInjector, StripeAliasingCoversAllOfMemory)
{
    mem::MemFaultInjector inj(
        make_class(MemFaultKind::WrongRowRead, 1, 2, true, false));
    // Row bits repeat every 64 bytes: the fault follows the stripe.
    auto p = inj.access(4096 + 64 * 7 + 2 * 4, false);
    EXPECT_EQ(p.addr, 4096u + 64 * 7 + 1 * 4);
}

TEST(MemFaultInjector, MultiSelectAddsExtraRow)
{
    mem::MemFaultInjector inj(
        make_class(MemFaultKind::MultiSelect, 2, 6, true, true));
    uint32_t aggr = 4096 + 6 * 4;
    auto load = inj.access(aggr, false);
    EXPECT_EQ(load.addr, aggr);
    EXPECT_TRUE(load.has_extra);
    EXPECT_EQ(load.extra, 4096u + 2 * 4);
    auto store = inj.access(aggr, true);
    EXPECT_TRUE(store.has_extra);
}

TEST(MemFaultInjector, NoSelectSquashes)
{
    mem::MemFaultInjector inj(
        make_class(MemFaultKind::NoSelect, 6, 6, true, true));
    auto load = inj.access(4096 + 6 * 4, false);
    EXPECT_TRUE(load.squash);
    auto store = inj.access(4096 + 6 * 4, true);
    EXPECT_TRUE(store.squash);
}

TEST(MemFaultInjector, RejectsInvalidClass)
{
    EXPECT_DEATH(mem::MemFaultInjector inj(make_class(
                     MemFaultKind::WrongRowRead, 3, 3, true, false)),
                 "fault class");
}

// ---------------------------------------------------------------------
// March tests: golden pass, faulty detection, value probes miss

TEST(MarchTests, GoldenMemoryPassesAllAlgorithms)
{
    MemFaultClass healthy; // kind None: injector is a no-op
    std::vector<runtime::TestCase> suite = {
        workloads::make_march_test(workloads::mats_plus(),
                                   runtime::kMemTestRows),
        workloads::make_march_test(workloads::march_cminus(),
                                   runtime::kMemTestRows),
        workloads::make_random_march_test(runtime::kMemTestRows, 32, 99),
    };
    for (const auto &tc : suite) {
        mem::MarchEngine engine(healthy);
        EXPECT_EQ(engine.run(tc), runtime::Detection::None) << tc.name;
        EXPECT_GT(engine.cycles(), 0u);
    }
}

TEST(MarchTests, MarchDetectsEveryInjectableClass)
{
    runtime::TestCase march = workloads::make_march_test(
        workloads::march_cminus(), runtime::kMemTestRows);
    const MemFaultClass classes[] = {
        make_class(MemFaultKind::WrongRowRead, 3, 5, true, false),
        make_class(MemFaultKind::WrongRowWrite, 3, 5, false, true),
        make_class(MemFaultKind::MultiSelect, 2, 6, true, true),
        make_class(MemFaultKind::NoSelect, 6, 6, true, true),
    };
    for (const MemFaultClass &cls : classes) {
        mem::MarchEngine engine(cls);
        EXPECT_EQ(engine.run(march), runtime::Detection::WrongAddress)
            << cls.to_string();
    }
}

TEST(MarchTests, AluValueProbeMissesAddressFaults)
{
    // The acceptance scenario: a wrong-address fault that a march test
    // flags but a datapath value probe sails straight through.
    runtime::TestCase probe;
    probe.name = "alu_probe";
    probe.module = ModuleKind::Alu32;
    probe.stimulus = {
        runtime::ModuleStep{0xdeadbeef, 0x01020304,
                            uint32_t(AluOp::Add), true, false}};
    probe.checks = {
        {0, alu_compute(AluOp::Add, 0xdeadbeef, 0x01020304), false}};
    runtime::finalize_test_case(probe);

    MemFaultClass cls =
        make_class(MemFaultKind::WrongRowRead, 3, 5, true, false);
    mem::MarchEngine engine(cls);
    EXPECT_EQ(engine.run(probe), runtime::Detection::None);

    runtime::TestCase march = workloads::make_march_test(
        workloads::mats_plus(), runtime::kMemTestRows);
    mem::MarchEngine engine2(cls);
    EXPECT_EQ(engine2.run(march), runtime::Detection::WrongAddress);
}

TEST(MarchTests, EncodingValidates)
{
    runtime::TestCase tc = workloads::make_march_test(
        workloads::mats_plus(), runtime::kMemTestRows);
    EXPECT_EQ(tc.module, ModuleKind::MemDec16);
    EXPECT_TRUE(tc.checks.empty());
    EXPECT_FALSE(tc.stimulus.empty());
    EXPECT_GT(tc.cycle_cost, 0u);
    // MATS+ is 5N.
    EXPECT_EQ(tc.stimulus.size(), 5u * runtime::kMemTestRows);

    runtime::TestCase bad = tc;
    bad.stimulus[0].op = runtime::kNumMarchOps; // out-of-range op
    EXPECT_FALSE(runtime::validate_test_case(bad).ok());
    bad = tc;
    bad.stimulus[0].a = runtime::kMemTestRows; // out-of-range row
    EXPECT_FALSE(runtime::validate_test_case(bad).ok());
}

TEST(MarchTests, RandomMarchIsSeedDeterministic)
{
    auto t1 = workloads::make_random_march_test(16, 24, 7);
    auto t2 = workloads::make_random_march_test(16, 24, 7);
    auto t3 = workloads::make_random_march_test(16, 24, 8);
    ASSERT_EQ(t1.stimulus.size(), t2.stimulus.size());
    bool same = true, diff = false;
    for (size_t i = 0; i < t1.stimulus.size(); ++i) {
        same &= t1.stimulus[i].a == t2.stimulus[i].a &&
                t1.stimulus[i].op == t2.stimulus[i].op;
        if (i < t3.stimulus.size())
            diff |= t1.stimulus[i].a != t3.stimulus[i].a ||
                    t1.stimulus[i].op != t3.stimulus[i].op;
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(diff);
}

// ---------------------------------------------------------------------
// End-to-end: aged decoder -> lifted class -> detecting suite

TEST(MemWorkflow, MemTraceRecordsDataAccesses)
{
    const auto &trace = mem_workload_trace();
    ASSERT_FALSE(trace.empty());
    for (const auto &e : trace)
        EXPECT_EQ(e.unit, ModuleKind::MemDec16);
}

TEST(MemWorkflow, AgedDecoderLiftsAndMarchSuiteDetects)
{
    HwModule module = rtl::make_memdec16();
    WorkflowConfig cfg;
    cfg.aging.years = 10.0; // >= the 7-year acceptance bar
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 1500;
    cfg.lift.max_pairs = 6;

    WorkflowResult r =
        run_workflow(module, lib(), mem_workload_trace(), cfg);
    ASSERT_FALSE(r.lift.pairs.empty());
    EXPECT_GT(r.lift.n_success, 0u);
    ASSERT_FALSE(r.suite.empty());
    for (const auto &tc : r.suite)
        EXPECT_EQ(tc.module, ModuleKind::MemDec16);

    // The lifted suite detects the classified fault of the worst pair.
    auto pairs = r.aging.liftable_pairs();
    CellId gate = mem::pick_decoder_gate(module.netlist, pairs[0].worst);
    if (gate != kInvalidId) {
        MemFaultClass cls = mem::classify_slow_gate(module.netlist, gate);
        if (cls.kind != MemFaultKind::None) {
            bool detected = false;
            for (const auto &tc : r.suite) {
                mem::MarchEngine engine(cls);
                detected |= engine.run(tc) != runtime::Detection::None;
            }
            EXPECT_TRUE(detected) << cls.to_string();
        }
    }
}

TEST(MemWorkflow, DecoderLiftingReportsEscalation)
{
    HwModule module = rtl::make_memdec16();
    WorkflowConfig cfg;
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 1500;
    AgingAnalysisResult aging =
        run_aging_analysis(module, lib(), mem_workload_trace(),
                           cfg.aging);
    auto pairs = aging.liftable_pairs();
    ASSERT_FALSE(pairs.empty());

    mem::MemLiftConfig mc;
    mc.max_pairs = 4;
    mem::MemLiftResult ml =
        mem::run_decoder_lifting(module, pairs, mc);
    EXPECT_EQ(ml.pairs.size(),
              std::min<size_t>(4, pairs.size()));
    for (const auto &pr : ml.pairs) {
        if (pr.status != lift::PairStatus::Success)
            continue;
        EXPECT_FALSE(pr.escalation.empty());
        EXPECT_FALSE(pr.detected_by.empty());
        EXPECT_NE(pr.cls.kind, MemFaultKind::None);
    }
    // Suite is a subset of the candidate ladder.
    EXPECT_LE(ml.suite.size(), ml.candidates.size());
}

// ---------------------------------------------------------------------
// Campaign and fleet integration

/** The 3-pair memory workflow: its successfully lifted pairs and suite. */
struct MemLifted
{
    HwModule module = rtl::make_memdec16();
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
};

MemLifted
lift_three_pairs()
{
    MemLifted out;
    WorkflowConfig cfg;
    cfg.aging.utilization = 0.99;
    cfg.aging.max_trace = 1500;
    cfg.lift.max_pairs = 3;
    WorkflowResult r =
        run_workflow(out.module, lib(), mem_workload_trace(), cfg);
    for (const auto &pr : r.lift.pairs)
        if (pr.status == lift::PairStatus::Success)
            out.pairs.push_back(pr.pair);
    out.suite = std::move(r.suite);
    return out;
}

TEST(MemCampaign, RunsAndDetectsWrongAddress)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_FALSE(m.pairs.empty());

    campaign::CampaignConfig cc;
    cc.seed = 7;
    cc.num_jobs = 24;
    cc.threads = 2;
    campaign::CampaignReport rep =
        campaign::run_campaign(m.module, m.pairs, m.suite, cc);
    EXPECT_EQ(rep.jobs.size(), 24u);
    EXPECT_GT(rep.detected, 0u);
    // Every detection on the memory path is a wrong-address flag.
    EXPECT_EQ(rep.detections.wrong_address, rep.detected);
    EXPECT_EQ(rep.detections.mismatch, 0u);
}

TEST(MemCampaign, UncharacterizableFaultQuarantinesOnlyItsJobs)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_GE(m.pairs.size(), 2u);
    // A worst path without cells has no decode gate, so characterizing
    // pair 0's faults throws: its jobs quarantine before they run.
    m.pairs[0].worst.cells.clear();

    campaign::CampaignConfig cc;
    cc.seed = 7;
    cc.num_jobs = 24;
    // Workers call the sink, so the lines are kept under a mutex.
    std::mutex lines_mu;
    std::vector<std::string> lines;
    cc.progress_interval = std::chrono::milliseconds(0);
    cc.progress_sink = [&](const std::string &line) {
        std::lock_guard<std::mutex> lk(lines_mu);
        lines.push_back(line);
    };
    const size_t npairs = m.pairs.size();
    const size_t pair0_jobs = (cc.num_jobs + npairs - 1) / npairs;
    std::string first_json;
    for (size_t threads : {1, 4}) {
        cc.threads = threads;
        lines.clear();
        campaign::CampaignReport rep =
            campaign::run_campaign(m.module, m.pairs, m.suite, cc);
        // The meter counts 6 fault verdicts (3 pairs x 2 constants)
        // and 24 jobs; a quarantined job ticks it like any other.
        bool reached_end = false;
        for (const std::string &line : lines)
            reached_end = reached_end ||
                          line.find("30/30 jobs (100.0%)") !=
                              std::string::npos;
        EXPECT_TRUE(reached_end) << threads << " threads, last line: "
                                 << (lines.empty() ? "" : lines.back());
        ASSERT_EQ(rep.failed_jobs.size(), pair0_jobs);
        for (const campaign::FailedJob &f : rep.failed_jobs) {
            EXPECT_EQ(f.pair_index, 0u);
            EXPECT_EQ(f.attempts, 0u);
            EXPECT_EQ(f.error.code, ErrorCode::JobFailed);
            EXPECT_EQ(f.error.context.rfind("characterization: ", 0), 0u)
                << f.error.context;
        }
        EXPECT_EQ(rep.jobs.size(), cc.num_jobs - pair0_jobs);
        for (const campaign::JobResult &j : rep.jobs)
            EXPECT_NE(j.pair_index, 0u);
        std::string json = rep.to_json(false);
        if (first_json.empty())
            first_json = json;
        EXPECT_EQ(json, first_json) << threads << " threads";
    }
}

TEST(MemCampaign, JobsMatchPerSlotReference)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_FALSE(m.pairs.empty());

    // The reference classifies every (pair, C) slot on its own and runs
    // each job alone on a fresh march engine; the campaign classifies
    // once per decoder gate and runs 64-job batches.
    campaign::CampaignConfig cc;
    cc.seed = 5;
    cc.num_jobs = 150;
    std::vector<campaign::JobResult> want =
        campaign::reference_campaign(m.module, m.pairs, m.suite, cc);
    for (size_t threads : {1, 4}) {
        cc.threads = threads;
        campaign::CampaignReport rep =
            campaign::run_campaign(m.module, m.pairs, m.suite, cc);
        ASSERT_EQ(rep.jobs.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(campaign::render_record(rep.jobs[i]),
                      campaign::render_record(want[i]))
                << threads << " threads";
    }
}

TEST(MemCampaign, HookThrowQuarantinesOnlyThatJob)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_FALSE(m.pairs.empty());

    // 150 jobs: two full 64-job march batches and a partial one, each
    // holding poisoned and healthy jobs.
    campaign::CampaignConfig cc;
    cc.seed = 7;
    cc.num_jobs = 150;
    cc.job_fault_hook = [](const campaign::JobSpec &spec) {
        if (spec.id % 5 == 0)
            throw std::runtime_error("hook poisoned job " +
                                     std::to_string(spec.id));
    };
    std::string first_json;
    for (size_t threads : {1, 4}) {
        cc.threads = threads;
        campaign::CampaignReport rep =
            campaign::run_campaign(m.module, m.pairs, m.suite, cc);
        ASSERT_EQ(rep.failed_jobs.size(), 30u);
        for (size_t i = 0; i < rep.failed_jobs.size(); ++i) {
            const campaign::FailedJob &f = rep.failed_jobs[i];
            EXPECT_EQ(f.id, 5 * i);
            EXPECT_EQ(f.attempts, 1u);
            EXPECT_EQ(f.error.code, ErrorCode::JobFailed);
            EXPECT_EQ(f.error.context,
                      "hook poisoned job " + std::to_string(f.id));
        }
        // Every other job of those batches ran to completion.
        ASSERT_EQ(rep.jobs.size(), 120u);
        for (const campaign::JobResult &j : rep.jobs) {
            EXPECT_NE(j.id % 5, 0u) << j.id;
            EXPECT_EQ(j.attempts, 1u);
        }
        std::string json = rep.to_json(false);
        if (first_json.empty())
            first_json = json;
        EXPECT_EQ(json, first_json) << threads << " threads";
    }
}

TEST(MemCampaign, JournaledStopAndResumeIsByteIdentical)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_FALSE(m.pairs.empty());
    std::string journal = testing::TempDir() + "vega_mem_resume.journal";
    std::remove(journal.c_str());

    // 200 jobs: three 64-job march batches and a partial fourth of 8.
    campaign::CampaignConfig cc;
    cc.seed = 11;
    cc.num_jobs = 200;
    cc.threads = 4;
    campaign::CampaignReport ref =
        campaign::run_campaign(m.module, m.pairs, m.suite, cc);
    ASSERT_EQ(ref.jobs.size(), 200u);

    // Stop after 100 jobs, in the middle of the second batch.
    campaign::CampaignConfig stopped = cc;
    stopped.journal_path = journal;
    stopped.journal_flush_every = 7;
    stopped.stop_after_jobs = 100;
    Expected<campaign::CampaignReport> partial =
        campaign::try_run_campaign(m.module, m.pairs, m.suite, stopped);
    ASSERT_TRUE(partial.ok()) << partial.error().to_string();
    EXPECT_GE(partial->jobs.size(), 100u);
    EXPECT_LT(partial->jobs.size(), 200u);
    campaign::JournalReadOptions strict;
    strict.require_trailer = true;
    Expected<campaign::JournalState> open_state =
        campaign::read_journal(journal, strict);
    ASSERT_FALSE(open_state.ok());
    EXPECT_EQ(open_state.error().code, ErrorCode::ShardIncomplete);

    campaign::CampaignConfig resumed = stopped;
    resumed.stop_after_jobs = 0;
    resumed.resume = true;
    Expected<campaign::CampaignReport> full =
        campaign::try_run_campaign(m.module, m.pairs, m.suite, resumed);
    ASSERT_TRUE(full.ok()) << full.error().to_string();
    EXPECT_EQ(full->to_json(false), ref.to_json(false));

    // The resumed run sealed the journal, and its trailer verifies.
    Expected<campaign::JournalState> sealed =
        campaign::read_journal(journal, strict);
    ASSERT_TRUE(sealed.ok()) << sealed.error().to_string();
    EXPECT_TRUE(sealed->has_trailer);
    EXPECT_EQ(sealed->records, 200u);
    EXPECT_EQ(sealed->completed.size(), 200u);
    std::remove(journal.c_str());
}

TEST(MemCampaign, SigkillMidBatchThenResumeIsByteIdentical)
{
    MemLifted m = lift_three_pairs();
    ASSERT_FALSE(m.suite.empty());
    ASSERT_FALSE(m.pairs.empty());
    std::string journal = testing::TempDir() + "vega_mem_sigkill_" +
                          std::to_string(uint64_t(::getpid())) +
                          ".journal";
    std::remove(journal.c_str());

    // 200 jobs on one thread: 64-job march batches settle in id order.
    campaign::CampaignConfig cc;
    cc.seed = 13;
    cc.num_jobs = 200;
    cc.threads = 1;
    campaign::CampaignReport ref =
        campaign::run_campaign(m.module, m.pairs, m.suite, cc);
    ASSERT_EQ(ref.jobs.size(), 200u);

    // Job 99, the 100th to settle, is the 36th of the second batch:
    // that batch's settle ends at it, appends its 36 records (durable
    // on return at flush_every 1), and raises SIGKILL. The batch's
    // other 28 jobs ran but never settle. A real, uncatchable SIGKILL
    // needs a sacrificial process.
    campaign::CampaignConfig killed = cc;
    killed.journal_path = journal;
    killed.journal_flush_every = 1;
    killed.kill_after_jobs = 100;
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        (void)campaign::try_run_campaign(m.module, m.pairs, m.suite, killed);
        _exit(0); // kill hook failed to fire
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    Expected<campaign::JournalState> crashed =
        campaign::read_journal(journal);
    ASSERT_TRUE(crashed.ok()) << crashed.error().to_string();
    EXPECT_FALSE(crashed->has_trailer);
    EXPECT_FALSE(crashed->torn_tail);
    EXPECT_EQ(crashed->records, 100u);
    ASSERT_EQ(crashed->completed.size(), 100u);
    EXPECT_TRUE(crashed->failed.empty());
    for (size_t i = 0; i < crashed->completed.size(); ++i)
        EXPECT_EQ(crashed->completed[i].id, i);

    campaign::CampaignConfig resumed = killed;
    resumed.kill_after_jobs = 0;
    resumed.resume = true;
    Expected<campaign::CampaignReport> full =
        campaign::try_run_campaign(m.module, m.pairs, m.suite, resumed);
    ASSERT_TRUE(full.ok()) << full.error().to_string();
    EXPECT_EQ(full->to_json(false), ref.to_json(false));

    campaign::JournalReadOptions strict;
    strict.require_trailer = true;
    Expected<campaign::JournalState> sealed =
        campaign::read_journal(journal, strict);
    ASSERT_TRUE(sealed.ok()) << sealed.error().to_string();
    EXPECT_EQ(sealed->records, 200u);
    std::remove(journal.c_str());
}

TEST(MemFleet, FaultMatrixScreensWithMarchSuite)
{
    MemLifted ml = lift_three_pairs();
    ASSERT_FALSE(ml.suite.empty());
    ASSERT_FALSE(ml.pairs.empty());

    auto m = fleet::build_fault_matrix(
        ml.module, ml.pairs, ml.suite, {lift::FaultConstant::Zero}, 2, 11);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->faults.size(), ml.pairs.size());
    EXPECT_GT(m->detectable_classes(), 0u);
    for (const auto &f : m->faults)
        for (runtime::Detection d : f.per_test)
            EXPECT_TRUE(d == runtime::Detection::None ||
                        d == runtime::Detection::WrongAddress);
}

TEST(FleetMatrix, UncharacterizableMemPairIsPoisonedNotSilentlyInert)
{
    MemLifted ml = lift_three_pairs();
    ASSERT_FALSE(ml.suite.empty());
    ASSERT_GE(ml.pairs.size(), 2u);
    auto intact = fleet::build_fault_matrix(
        ml.module, ml.pairs, ml.suite, {lift::FaultConstant::Zero}, 2, 11);
    ASSERT_TRUE(intact.ok());
    // As in MemCampaign.UncharacterizableFaultQuarantinesOnlyItsJobs: a
    // worst path without cells has no decode gate to characterize.
    ml.pairs[0].worst.cells.clear();

    obs::Counter &poisoned = obs::counter("fleet.classes_poisoned");
    uint64_t before = poisoned.value();
    LogLevel level = log_level();
    set_log_level(LogLevel::Warn);
    testing::internal::CaptureStderr();
    auto m = fleet::build_fault_matrix(
        ml.module, ml.pairs, ml.suite, {lift::FaultConstant::Zero}, 2, 11);
    std::string log = testing::internal::GetCapturedStderr();
    set_log_level(level);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(poisoned.value() - before, 1u);
    EXPECT_NE(log.find("fault class 0 recorded inert"), std::string::npos)
        << log;
    EXPECT_NE(log.find("no decode gate on worst path"), std::string::npos)
        << log;

    // Pair 0's class is recorded inert; every other class is untouched.
    ASSERT_EQ(m->faults.size(), intact->faults.size());
    EXPECT_FALSE(m->faults[0].corrupts);
    EXPECT_EQ(m->faults[0].detecting_tests, 0u);
    for (runtime::Detection d : m->faults[0].per_test)
        EXPECT_EQ(d, runtime::Detection::None);
    for (size_t i = 1; i < m->faults.size(); ++i) {
        EXPECT_EQ(m->faults[i].corrupts, intact->faults[i].corrupts) << i;
        EXPECT_EQ(m->faults[i].per_test, intact->faults[i].per_test) << i;
    }
}

TEST(MemSuiteIo, MemDecRoundTripsThroughSuiteFiles)
{
    runtime::TestCase tc = workloads::make_march_test(
        workloads::mats_plus(), runtime::kMemTestRows);
    std::string text = runtime::serialize_suite({tc});
    auto back = runtime::try_deserialize_suite(text);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->size(), 1u);
    EXPECT_EQ((*back)[0].module, ModuleKind::MemDec16);
    EXPECT_EQ((*back)[0].stimulus.size(), tc.stimulus.size());
}

} // namespace
} // namespace vega
