#include "cpu/iss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "cpu/assembler.h"
#include "cpu/batch_backend.h"
#include "cpu/mdu_ops.h"
#include "cpu/softfp.h"
#include "lift/failure_model.h"
#include "netlist/builder.h"
#include "reference_fu.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"
#include "rtl/mdu32.h"

namespace vega::cpu {
namespace {

TEST(Assembler, LiSmallAndLarge)
{
    Asm a;
    a.li(5, 42);
    a.li(6, 0xdeadbeef);
    a.li(7, 0xfffff800); // negative 12-bit
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(5), 42u);
    EXPECT_EQ(iss.reg(6), 0xdeadbeefu);
    EXPECT_EQ(iss.reg(7), 0xfffff800u);
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    Asm a;
    a.li(5, 3);
    a.li(6, 0);
    a.label("loop");
    a.addi(6, 6, 2);
    a.addi(5, 5, -1);
    a.bne(5, 0, "loop");
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(6), 6u);
}

TEST(Assembler, UnboundLabelPanics)
{
    Asm a;
    a.j("nowhere");
    EXPECT_DEATH(a.finish(), "unbound label");
}

TEST(Iss, X0IsHardwiredZero)
{
    Asm a;
    a.addi(0, 0, 55);
    a.add(5, 0, 0);
    a.halt();
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(iss.reg(0), 0u);
    EXPECT_EQ(iss.reg(5), 0u);
}

TEST(Iss, MemoryRoundTrip)
{
    Asm a;
    a.li(5, 0x12345678);
    a.li(6, 256);
    a.sw(5, 6, 0);
    a.lw(7, 6, 0);
    a.sb(5, 6, 8);
    a.lbu(8, 6, 8);
    a.lb(9, 6, 3); // high byte of the stored word: 0x12
    a.halt();
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(iss.reg(7), 0x12345678u);
    EXPECT_EQ(iss.reg(8), 0x78u);
    EXPECT_EQ(iss.reg(9), 0x12u);
}

TEST(Iss, MulDivSemantics)
{
    Asm a;
    a.li(5, uint32_t(-7));
    a.li(6, 3);
    a.mul(7, 5, 6);
    a.div(8, 5, 6);
    a.rem(9, 5, 6);
    a.li(10, 0);
    a.div(11, 5, 10);  // div by zero -> -1
    a.rem(12, 5, 10);  // rem by zero -> dividend
    a.mulh(13, 5, 6);
    a.halt();
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(int32_t(iss.reg(7)), -21);
    EXPECT_EQ(int32_t(iss.reg(8)), -2);
    EXPECT_EQ(int32_t(iss.reg(9)), -1);
    EXPECT_EQ(iss.reg(11), 0xffffffffu);
    EXPECT_EQ(int32_t(iss.reg(12)), -7);
    EXPECT_EQ(int32_t(iss.reg(13)), -1); // high word of -21
}

TEST(Iss, FloatOpsAndStickyFlags)
{
    Asm a;
    a.li(5, 0x3f800000); // 1.0
    a.li(6, 0x40000000); // 2.0
    a.fmv_w_x(1, 5);
    a.fmv_w_x(2, 6);
    a.fadd_s(3, 1, 2);
    a.fmv_x_w(7, 3);
    a.flt_s(8, 1, 2);
    a.feq_s(9, 1, 1);
    a.csrr_fflags(10);
    a.halt();
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(iss.reg(7), 0x40400000u); // 3.0
    EXPECT_EQ(iss.reg(8), 1u);
    EXPECT_EQ(iss.reg(9), 1u);
    EXPECT_EQ(iss.reg(10), 0u); // all exact
}

TEST(Iss, FflagsClearViaCsrw)
{
    Asm a;
    a.li(5, 0x3f800000);
    a.li(6, 0x20000000); // tiny: 1 + tiny is inexact
    a.fmv_w_x(1, 5);
    a.fmv_w_x(2, 6);
    a.fadd_s(3, 1, 2);
    a.csrr_fflags(7);
    a.clear_fflags();
    a.csrr_fflags(8);
    a.halt();
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(iss.reg(7), uint32_t(fp::kNX));
    EXPECT_EQ(iss.reg(8), 0u);
}

TEST(Iss, WatchdogOnInfiniteLoop)
{
    Asm a;
    a.label("spin");
    a.j("spin");
    IssConfig cfg;
    cfg.max_instructions = 1000;
    Iss iss(a.finish(), cfg);
    EXPECT_EQ(iss.run(), Iss::Status::Watchdog);
}

TEST(Iss, OutOfBoundsStoreTraps)
{
    Asm a;
    a.li(5, 0x80001001); // far outside the 1 MiB memory
    a.sw(5, 5, 0);
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.run(), Iss::Status::Trap);
}

TEST(Iss, UntouchedMemoryReadsZero)
{
    Asm a;
    a.li(5, 4096);
    a.li(6, 0x1234);
    a.lw(6, 5, 0); // never written: the load sees zero
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.read_u32(4096), 0u);
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(6), 0u);

    // Memory grows by 4 KB pages up to the highest store: a load that
    // straddles the grown end reads the stored bytes, then zeros.
    Asm grown;
    grown.li(5, 0xaabbccdd);
    grown.li(6, 8188);
    grown.sw(5, 6, 0); // bytes 8188..8191: the last word of page 1
    grown.lw(7, 6, 2); // bytes 8190..8193: two stored, two past the end
    grown.lw(8, 6, 4); // wholly past the end
    grown.halt();
    Iss straddle(grown.finish());
    EXPECT_EQ(straddle.run(), Iss::Status::Halted);
    EXPECT_EQ(straddle.reg(7), 0x0000aabbu);
    EXPECT_EQ(straddle.reg(8), 0u);
    EXPECT_EQ(straddle.read_u32(8190), 0x0000aabbu);
    EXPECT_EQ(straddle.read_u32(1u << 19), 0u);
}

TEST(Iss, MemoryBoundIsConfiguredSize)
{
    IssConfig cfg;
    cfg.memory_bytes = 4096;
    Asm a;
    a.li(5, 0xcafef00d);
    a.li(6, 4092);
    a.sw(5, 6, 0); // the last word fits
    a.lw(7, 6, 0);
    a.halt();
    Iss iss(a.finish(), cfg);
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(7), 0xcafef00du);
    EXPECT_EQ(iss.read_u32(4092), 0xcafef00du);

    Asm past;
    past.li(6, 4096);
    past.lw(7, 6, 0); // one word past the end
    past.halt();
    Iss trap(past.finish(), cfg);
    EXPECT_EQ(trap.run(), Iss::Status::Trap);
    EXPECT_DEATH(trap.read_u32(4096), "load out of bounds");

    // Low stores grow memory only part way; a store at the last word of
    // the configured size still fits, and one word past it still traps.
    IssConfig big;
    big.memory_bytes = 1 << 20;
    Asm high;
    high.li(5, 0x11);
    high.li(6, 64);
    high.sw(5, 6, 0);
    high.li(5, 0x22);
    high.li(6, (1 << 20) - 4);
    high.sw(5, 6, 0);
    high.lw(7, 6, 0);
    high.halt();
    Iss top(high.finish(), big);
    EXPECT_EQ(top.run(), Iss::Status::Halted);
    EXPECT_EQ(top.reg(7), 0x22u);
    EXPECT_EQ(top.read_u32(64), 0x11u);
    EXPECT_EQ(top.read_u32((1 << 20) - 4), 0x22u);
    EXPECT_EQ(top.read_u32((1 << 20) - 8), 0u);
    EXPECT_DEATH(top.write_u32(1 << 20, 1), "store out of bounds");
}

TEST(Iss, ResetRezeroesWrittenMemory)
{
    Asm a;
    a.li(5, 77);
    a.li(6, 256);
    a.sw(5, 6, 0);
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.read_u32(256), 77u);
    iss.reset();
    EXPECT_EQ(iss.read_u32(256), 0u);

    // After growth past the first page, a reset re-zeroes every page
    // and a rerun grows memory again from nothing.
    iss.write_u32(70000, 0xfeedu);
    EXPECT_EQ(iss.read_u32(70000), 0xfeedu);
    iss.reset();
    EXPECT_EQ(iss.read_u32(70000), 0u);
    EXPECT_EQ(iss.read_u32(256), 0u);
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.read_u32(256), 77u);
    EXPECT_EQ(iss.read_u32(70000), 0u);
}

TEST(Iss, WildJumpTraps)
{
    Asm a;
    a.li(5, 0x7ffffff0);
    a.jalr(1, 5, 0); // lands far past the end of the program
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(iss.run(), Iss::Status::Trap);
}

TEST(Iss, CycleCountingChargesBranchesAndLoads)
{
    Asm a;
    a.li(5, 1);        // addi: 1
    a.beq(0, 0, "t");  // taken: 2
    a.label("t");
    a.li(6, 300);      // lui+addi... (300 fits 12 bits: addi): 1
    a.sw(5, 6, 0);     // 1
    a.lw(7, 6, 0);     // 2
    a.halt();          // 1
    Iss iss(a.finish());
    iss.run();
    EXPECT_EQ(iss.cycles(), 8u);
}

TEST(Iss, ExecCountsDriveProfiles)
{
    Asm a;
    a.li(5, 4);
    a.label("loop");
    a.addi(5, 5, -1);
    a.bne(5, 0, "loop");
    a.halt();
    Iss iss(a.finish());
    iss.run();
    // The loop body ran 4 times, the prologue once.
    EXPECT_EQ(iss.exec_counts()[0], 1u);
    EXPECT_EQ(iss.exec_counts()[1], 4u);
    EXPECT_EQ(iss.exec_counts()[2], 4u);
}

TEST(Iss, FuTraceRecordsAluAndFpuOps)
{
    Asm a;
    a.li(5, 7);
    a.add(6, 5, 5);
    a.fmv_w_x(1, 5);
    a.fadd_s(2, 1, 1);
    a.halt();
    IssConfig cfg;
    cfg.record_fu_trace = true;
    Iss iss(a.finish(), cfg);
    iss.run();
    // li(7) = addi (ALU), add (ALU), fadd (FPU).
    ASSERT_EQ(iss.fu_trace().size(), 3u);
    EXPECT_EQ(iss.fu_trace()[0].unit, ModuleKind::Alu32);
    EXPECT_EQ(iss.fu_trace()[1].unit, ModuleKind::Alu32);
    EXPECT_EQ(iss.fu_trace()[1].a, 7u);
    EXPECT_EQ(iss.fu_trace()[2].unit, ModuleKind::Fpu32);
}

/**
 * Every opcode but Halt three times, shuffled, then Halt. x1..x15 and
 * f0..f7 start random; x20 is a data base no instruction writes, and
 * every branch and jump goes forward, so the program always halts.
 */
std::vector<Instr>
random_decode_program(Rng &rng)
{
    std::vector<Instr> prog;
    for (Reg r = 1; r < 16; ++r) {
        uint32_t v = uint32_t(rng.next());
        prog.push_back({Op::Lui, r, 0, 0, int32_t(v & 0xfffff000u)});
        prog.push_back({Op::Ori, r, r, 0, int32_t(v & 0x7ffu)});
    }
    prog.push_back({Op::Addi, 20, 0, 0, 0x100});
    for (FReg f = 0; f < 8; ++f)
        prog.push_back({Op::FmvWX, f, Reg(1 + f), 0, 0});

    std::vector<Op> ops;
    for (int copy = 0; copy < 3; ++copy)
        for (int op = 0; op < int(Op::Halt); ++op)
            ops.push_back(Op(op));
    for (size_t i = ops.size(); i > 1; --i)
        std::swap(ops[i - 1], ops[rng.below(i)]);

    // Register fields index x- or f-registers alike: rd in 1..15,
    // sources in 0..15.
    const int32_t halt_at = int32_t(prog.size() + ops.size());
    for (Op op : ops) {
        int32_t here = int32_t(prog.size());
        int32_t target = std::min(halt_at, here + 1 + int32_t(rng.below(4)));
        Instr in{op, Reg(1 + rng.below(15)), Reg(rng.below(16)),
                 Reg(rng.below(16)), int32_t(rng.below(4096)) - 2048};
        switch (op) {
          case Op::Slli: case Op::Srli: case Op::Srai:
            in.imm = int32_t(rng.below(32));
            break;
          case Op::Lw: case Op::Sw: case Op::Flw: case Op::Fsw:
            in.rs1 = 20;
            in.imm = int32_t(4 * rng.below(64));
            break;
          case Op::Lb: case Op::Lbu: case Op::Sb:
            in.rs1 = 20;
            in.imm = int32_t(rng.below(256));
            break;
          case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
          case Op::Bltu: case Op::Bgeu: case Op::Jal:
            in.imm = target;
            break;
          case Op::Jalr:
            in.rs1 = 0;
            in.imm = 4 * target;
            break;
          default:
            break;
        }
        prog.push_back(in);
    }
    prog.push_back({Op::Halt, 0, 0, 0, 0});
    return prog;
}

/** The golden response to an Op issued to a mounted @p kind unit. */
FuResult
golden_response(ModuleKind kind, const FuIssue &issue)
{
    FuResult r;
    if (kind == ModuleKind::Alu32) {
        r.value = alu_compute(AluOp(issue.op), issue.a, issue.b);
    } else if (kind == ModuleKind::Mdu32) {
        r.value = mdu_compute(MduOp(issue.op), issue.a, issue.b);
    } else {
        fp::FpResult f = fp::fpu_compute(fp::FpuOp(issue.op), issue.a,
                                         issue.b);
        r.value = f.bits;
        r.flags = f.flags;
    }
    return r;
}

TEST(Iss, PeekFuIssueMatchesExecutedDecode)
{
    // Waves and the test reference both trust peek_fu_issue() to name
    // exactly the instructions step() routes to the mounted unit.
    Rng rng(2024);
    IssConfig cfg;
    cfg.record_fu_trace = true;
    for (int round = 0; round < 4; ++round) {
        std::vector<Instr> prog = random_decode_program(rng);
        for (ModuleKind kind :
             {ModuleKind::Alu32, ModuleKind::Mdu32, ModuleKind::Fpu32}) {
            Iss iss(prog, cfg);
            size_t ops = 0;
            while (iss.running()) {
                FuIssue issue = iss.peek_fu_issue(kind);
                std::vector<uint64_t> counts = iss.exec_counts();
                size_t traced = iss.fu_trace().size();
                if (issue.kind == FuIssue::Kind::Op) {
                    FuResult r = golden_response(kind, issue);
                    iss.step_one(&r);
                } else {
                    iss.step_one();
                }
                size_t pc = 0;
                while (pc < counts.size() &&
                       counts[pc] == iss.exec_counts()[pc])
                    ++pc;
                ASSERT_LT(pc, prog.size());
                const Instr &in = prog[pc];
                std::vector<FuTraceEntry> mine;
                for (size_t t = traced; t < iss.fu_trace().size(); ++t)
                    if (iss.fu_trace()[t].unit == kind)
                        mine.push_back(iss.fu_trace()[t]);
                std::string where = render_asm(in) + " @" +
                                    std::to_string(pc) + " on " +
                                    module_kind_name(kind);
                if (issue.kind == FuIssue::Kind::Op) {
                    ++ops;
                    ASSERT_EQ(mine.size(), 1u) << where;
                    EXPECT_EQ(mine[0].op, issue.op) << where;
                    EXPECT_EQ(mine[0].a, issue.a) << where;
                    EXPECT_EQ(mine[0].b, issue.b) << where;
                } else {
                    EXPECT_TRUE(mine.empty()) << where;
                }
                bool fpu = kind == ModuleKind::Fpu32;
                EXPECT_EQ(issue.kind == FuIssue::Kind::ReadFflags,
                          fpu && in.op == Op::CsrrFflags)
                    << where;
                EXPECT_EQ(issue.kind == FuIssue::Kind::ClearFflags,
                          fpu && in.op == Op::CsrwFflags)
                    << where;
            }
            EXPECT_EQ(iss.stop_status(), Iss::Status::Halted);
            EXPECT_GT(ops, 0u);
        }
    }
}

TEST(BatchNetlistEngine, LanesMatchGoldenOnPlainModules)
{
    // Every lane posts its own random transaction each round on a
    // healthy, bank-less module tape.
    constexpr int kLanes = BatchNetlistEngine::kLanes;
    enum class Tx { Idle, Op, Read, Clear };
    Rng rng(77);
    for (ModuleKind kind :
         {ModuleKind::Alu32, ModuleKind::Mdu32, ModuleKind::Fpu32}) {
        HwModule m = kind == ModuleKind::Alu32   ? rtl::make_alu32()
                     : kind == ModuleKind::Mdu32 ? rtl::make_mdu32()
                                                 : rtl::make_fpu32();
        BatchNetlistEngine eng(kind,
                               std::make_shared<const EvalTape>(m.netlist));
        const bool fpu = kind == ModuleKind::Fpu32;
        const uint64_t num_ops = kind == ModuleKind::Alu32   ? kNumAluOps
                                 : kind == ModuleKind::Mdu32 ? kNumMduOps
                                                             : 8;
        std::vector<uint64_t> want_cycles(kLanes, 0);
        std::vector<uint8_t> sticky(kLanes, 0); ///< golden flags since clear
        size_t checked_ops = 0, checked_reads = 0;
        for (int round = 0; round < 48; ++round) {
            std::vector<Tx> tx(kLanes);
            std::vector<FuResult> want(kLanes);
            for (int lane = 0; lane < kLanes; ++lane) {
                tx[lane] = Tx(rng.below(fpu ? 4 : 2));
                ++want_cycles[lane];
                switch (tx[lane]) {
                  case Tx::Idle:
                    eng.post_idle(lane);
                    break;
                  case Tx::Op: {
                    FuIssue issue;
                    issue.op = uint8_t(rng.below(num_ops));
                    issue.a = uint32_t(rng.next());
                    issue.b = uint32_t(rng.next());
                    eng.post_op(lane, issue.op, issue.a, issue.b);
                    want[lane] = golden_response(kind, issue);
                    sticky[lane] |= want[lane].flags;
                    ++want_cycles[lane];
                    break;
                  }
                  case Tx::Read:
                    eng.post_read_fflags(lane);
                    want[lane].flags = sticky[lane];
                    ++want_cycles[lane];
                    break;
                  case Tx::Clear:
                    eng.post_clear_fflags(lane);
                    sticky[lane] = 0;
                    break;
                }
            }
            eng.commit_round();
            for (int lane = 0; lane < kLanes; ++lane) {
                const FuResult &got = eng.result(lane);
                std::string where = std::string(module_kind_name(kind)) +
                                    " round " + std::to_string(round) +
                                    " lane " + std::to_string(lane);
                if (tx[lane] == Tx::Op) {
                    ++checked_ops;
                    EXPECT_EQ(got.value, want[lane].value) << where;
                    EXPECT_FALSE(got.stalled) << where;
                } else if (tx[lane] == Tx::Read) {
                    ++checked_reads;
                    EXPECT_EQ(got.flags, want[lane].flags) << where;
                }
            }
        }
        for (int lane = 0; lane < kLanes; ++lane) {
            EXPECT_EQ(eng.tag_mismatches(lane), 0u) << lane;
            EXPECT_EQ(eng.cycles(lane), want_cycles[lane]) << lane;
        }
        EXPECT_GT(checked_ops, 0u);
        EXPECT_EQ(checked_reads > 0, fpu);
    }
}

/**
 * Eight faults on @p nl's flops, six of them RandomInput: half capture
 * at an output register, so a wrong draw shows in the very result it
 * corrupts, half inside the pipeline.
 */
std::vector<lift::FailureModelSpec>
random_fault_specs(const Netlist &nl, Rng &rng)
{
    std::vector<CellId> out_regs, all_regs = nl.dffs();
    for (const std::string &bus : nl.output_bus_names())
        for (NetId n : nl.bus(bus))
            out_regs.push_back(nl.net(n).driver);
    std::vector<lift::FailureModelSpec> specs;
    for (int i = 0; i < 8; ++i) {
        const std::vector<CellId> &captures = i % 2 ? all_regs : out_regs;
        lift::FailureModelSpec fm;
        fm.launch = all_regs[rng.below(all_regs.size())];
        fm.capture = captures[rng.below(captures.size())];
        fm.is_setup = i % 3 != 2;
        fm.constant = i == 6   ? lift::FaultConstant::Zero
                      : i == 7 ? lift::FaultConstant::One
                               : lift::FaultConstant::RandomInput;
        specs.push_back(fm);
    }
    return specs;
}

TEST(BatchNetlistEngine, RandomFaultLanesMatchReferenceFu)
{
    // Each lane of a fault-bank wave, random-constant faults included,
    // must reproduce the scalar protocol on its own failing netlist with
    // the same fm_rand seed: every result, flag, stall, module cycle and
    // tag mismatch. This pins the engine's fm_rand draw order.
    constexpr int kLanes = BatchNetlistEngine::kLanes;
    enum class Tx { Idle, Op, Read, Clear };
    Rng rng(4099);
    for (ModuleKind kind : {ModuleKind::Alu32, ModuleKind::Fpu32}) {
        const bool fpu = kind == ModuleKind::Fpu32;
        HwModule m = fpu ? rtl::make_fpu32() : rtl::make_alu32();
        std::vector<lift::FailureModelSpec> specs =
            random_fault_specs(m.netlist, rng);
        lift::FaultBank bank = lift::build_fault_bank(m.netlist, specs);
        ASSERT_TRUE(bank.has_random_input);
        std::vector<lift::FailingNetlist> failing;
        for (const lift::FailureModelSpec &fm : specs)
            failing.push_back(lift::build_failing_netlist(m.netlist, fm));

        BatchNetlistEngine eng(kind,
                               std::make_shared<const EvalTape>(bank.netlist));
        std::vector<std::unique_ptr<ReferenceFu>> refs;
        for (int lane = 0; lane < kLanes; ++lane) {
            size_t f = size_t(lane) % specs.size();
            uint64_t seed = 7000 + uint64_t(lane);
            BitVec en(specs.size());
            en.set(f, true);
            eng.set_lane_bus("fm_en", lane, en);
            eng.configure_lane_random(lane, bank.fault_random[f] != 0, seed);
            refs.push_back(std::make_unique<ReferenceFu>(
                kind, failing[f].netlist, failing[f].has_random_input,
                seed));
        }

        size_t random_wrong = 0; ///< random-lane results off golden
        for (int round = 0; round < 40; ++round) {
            std::vector<Tx> tx(kLanes);
            std::vector<FuResult> want(kLanes);
            std::vector<FuResult> golden(kLanes);
            for (int lane = 0; lane < kLanes; ++lane) {
                ReferenceFu &ref = *refs[size_t(lane)];
                tx[lane] = Tx(rng.below(fpu ? 4 : 2));
                switch (tx[lane]) {
                  case Tx::Idle:
                    eng.post_idle(lane);
                    ref.idle();
                    break;
                  case Tx::Op: {
                    FuIssue issue;
                    issue.op = uint8_t(rng.below(fpu ? 8 : kNumAluOps));
                    issue.a = uint32_t(rng.next());
                    issue.b = uint32_t(rng.next());
                    eng.post_op(lane, issue.op, issue.a, issue.b);
                    want[lane] = fpu ? ref.fpu(issue.op, issue.a, issue.b)
                                     : ref.alu(issue.op, issue.a, issue.b);
                    golden[lane] = golden_response(kind, issue);
                    break;
                  }
                  case Tx::Read:
                    eng.post_read_fflags(lane);
                    want[lane].flags = ref.read_fflags();
                    ref.idle();
                    break;
                  case Tx::Clear:
                    eng.post_clear_fflags(lane);
                    ref.clear_fflags();
                    break;
                }
            }
            eng.commit_round();
            for (int lane = 0; lane < kLanes; ++lane) {
                const FuResult &got = eng.result(lane);
                const ReferenceFu &ref = *refs[size_t(lane)];
                std::string where = std::string(module_kind_name(kind)) +
                                    " round " + std::to_string(round) +
                                    " lane " + std::to_string(lane);
                if (tx[lane] == Tx::Op) {
                    EXPECT_EQ(got.value, want[lane].value) << where;
                    EXPECT_EQ(got.flags, want[lane].flags) << where;
                    EXPECT_EQ(got.stalled, want[lane].stalled) << where;
                    if (bank.fault_random[size_t(lane) % specs.size()] &&
                        (got.value != golden[lane].value ||
                         got.flags != golden[lane].flags))
                        ++random_wrong;
                } else if (tx[lane] == Tx::Read) {
                    EXPECT_EQ(got.flags, want[lane].flags) << where;
                }
                EXPECT_EQ(eng.cycles(lane), ref.cycles()) << where;
                EXPECT_EQ(eng.tag_mismatches(lane), ref.tag_mismatches())
                    << where;
            }
        }
        // The random faults must actually reach results, or the draw
        // order is not under test.
        EXPECT_GT(random_wrong, 0u) << module_kind_name(kind);
    }
}

TEST(BatchNetlistEngine, RejectsOutputsThatAreNotRegisterQs)
{
    // Results are read from the output registers' next-state planes, so
    // an output driven by logic instead of a register is refused.
    Netlist nl("comb_alu");
    Builder b(nl);
    Bus a = nl.add_input_bus("a", 32);
    Bus bb = nl.add_input_bus("b", 32);
    nl.add_input_bus("op", 4);
    nl.add_output_bus("r", b.xor_bus(a, bb));
    auto tape = std::make_shared<const EvalTape>(nl);
    EXPECT_DEATH({ BatchNetlistEngine eng(ModuleKind::Alu32, tape); },
                 "is not a register Q");
}

TEST(Iss, RenderAsmSmoke)
{
    Asm a;
    a.li(5, 0x1000);
    a.add(6, 5, 5);
    a.fadd_s(1, 2, 3);
    a.bne(6, 0, "end");
    a.label("end");
    a.halt();
    std::string text = render_asm(a.finish());
    EXPECT_NE(text.find("lui x5"), std::string::npos);
    EXPECT_NE(text.find("add x6, x5, x5"), std::string::npos);
    EXPECT_NE(text.find("fadd.s f1, f2, f3"), std::string::npos);
    EXPECT_NE(text.find("bne x6, x0, .L4"), std::string::npos);
    EXPECT_NE(text.find("ebreak"), std::string::npos);
}

TEST(ReferenceFu, AluMatchesGolden)
{
    static HwModule m = rtl::make_alu32();
    ReferenceFu fu(ModuleKind::Alu32, m.netlist);

    Asm a;
    a.li(5, 1234);
    a.li(6, 5678);
    a.add(7, 5, 6);
    a.sub(8, 5, 6);
    a.xor_(9, 5, 6);
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(run_reference(iss, fu), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(7), 1234u + 5678u);
    EXPECT_EQ(iss.reg(8), uint32_t(1234 - 5678));
    EXPECT_EQ(iss.reg(9), 1234u ^ 5678u);
}

TEST(ReferenceFu, FpuMatchesGoldenIncludingFlags)
{
    static HwModule m = rtl::make_fpu32();
    ReferenceFu fu(ModuleKind::Fpu32, m.netlist);

    Asm a;
    a.li(5, 0x3f800000);
    a.li(6, 0x20000000);
    a.fmv_w_x(1, 5);
    a.fmv_w_x(2, 6);
    a.fadd_s(3, 1, 2);   // inexact
    a.fmv_x_w(7, 3);
    a.csrr_fflags(8);
    a.clear_fflags();
    a.csrr_fflags(9);
    a.fmul_s(4, 1, 1);   // exact 1*1
    a.fmv_x_w(10, 4);
    a.csrr_fflags(11);
    a.halt();
    Iss iss(a.finish());
    EXPECT_EQ(run_reference(iss, fu), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(7), 0x3f800000u);
    EXPECT_EQ(iss.reg(8), uint32_t(fp::kNX));
    EXPECT_EQ(iss.reg(9), 0u);
    EXPECT_EQ(iss.reg(10), 0x3f800000u);
    EXPECT_EQ(iss.reg(11), 0u);
    EXPECT_EQ(fu.tag_mismatches(), 0u);
}

TEST(ReferenceFu, RandomProgramAgreesWithGolden)
{
    static HwModule m = rtl::make_alu32();
    Rng rng(91);
    for (int round = 0; round < 5; ++round) {
        Asm a;
        std::vector<uint32_t> expect;
        a.li(5, uint32_t(rng.next()));
        a.li(6, uint32_t(rng.next()));
        for (int i = 0; i < 10; ++i) {
            int op = int(rng.below(10));
            Reg rd = Reg(7 + i);
            switch (AluOp(op)) {
              case AluOp::Add: a.add(rd, 5, 6); break;
              case AluOp::Sub: a.sub(rd, 5, 6); break;
              case AluOp::Sll: a.sll(rd, 5, 6); break;
              case AluOp::Slt: a.slt(rd, 5, 6); break;
              case AluOp::Sltu: a.sltu(rd, 5, 6); break;
              case AluOp::Xor: a.xor_(rd, 5, 6); break;
              case AluOp::Srl: a.srl(rd, 5, 6); break;
              case AluOp::Sra: a.sra(rd, 5, 6); break;
              case AluOp::Or: a.or_(rd, 5, 6); break;
              case AluOp::And: a.and_(rd, 5, 6); break;
            }
        }
        a.halt();
        auto prog = a.finish();

        Iss golden(prog);
        golden.run();
        Iss hw(prog);
        ReferenceFu fu(ModuleKind::Alu32, m.netlist);
        run_reference(hw, fu);
        for (int r = 5; r < 17; ++r)
            EXPECT_EQ(hw.reg(Reg(r)), golden.reg(Reg(r))) << r;
    }
}

} // namespace
} // namespace vega::cpu
