#include "cpu/iss.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "cpu/assembler.h"
#include "cpu/netlist_backend.h"
#include "cpu/softfp.h"
#include "rtl/alu32.h"
#include "rtl/fpu32.h"

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

TEST(NetlistBackend, AluMatchesGolden)
{
    static HwModule m = rtl::make_alu32();
    NetlistBackend backend(ModuleKind::Alu32, m.netlist);

    Asm a;
    a.li(5, 1234);
    a.li(6, 5678);
    a.add(7, 5, 6);
    a.sub(8, 5, 6);
    a.xor_(9, 5, 6);
    a.halt();
    Iss iss(a.finish());
    iss.set_alu_backend(&backend);
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(7), 1234u + 5678u);
    EXPECT_EQ(iss.reg(8), uint32_t(1234 - 5678));
    EXPECT_EQ(iss.reg(9), 1234u ^ 5678u);
}

TEST(NetlistBackend, FpuMatchesGoldenIncludingFlags)
{
    static HwModule m = rtl::make_fpu32();
    NetlistBackend backend(ModuleKind::Fpu32, m.netlist);

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
    iss.set_fpu_backend(&backend);
    EXPECT_EQ(iss.run(), Iss::Status::Halted);
    EXPECT_EQ(iss.reg(7), 0x3f800000u);
    EXPECT_EQ(iss.reg(8), uint32_t(fp::kNX));
    EXPECT_EQ(iss.reg(9), 0u);
    EXPECT_EQ(iss.reg(10), 0x3f800000u);
    EXPECT_EQ(iss.reg(11), 0u);
    EXPECT_EQ(backend.tag_mismatches(), 0u);
}

TEST(NetlistBackend, RandomProgramAgreesWithGolden)
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
        NetlistBackend backend(ModuleKind::Alu32, m.netlist);
        hw.set_alu_backend(&backend);
        hw.run();
        for (int r = 5; r < 17; ++r)
            EXPECT_EQ(hw.reg(Reg(r)), golden.reg(Reg(r))) << r;
    }
}

} // namespace
} // namespace vega::cpu
