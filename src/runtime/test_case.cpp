#include "runtime/test_case.h"

#include <map>
#include <set>

#include "common/logging.h"
#include "cpu/alu_ops.h"
#include "cpu/mdu_ops.h"
#include "cpu/assembler.h"
#include "cpu/iss.h"
#include "cpu/softfp.h"
#include "workloads/kernels.h"

namespace vega::runtime {

const char *
detection_name(Detection d)
{
    switch (d) {
      case Detection::None:         return "none";
      case Detection::Mismatch:     return "mismatch";
      case Detection::Stall:        return "stall";
      case Detection::TagAnomaly:   return "tag-anomaly";
      case Detection::WrongAddress: return "wrong-address";
    }
    return "?";
}

namespace {

/**
 * Register plan for generated blocks:
 *   x5..x18   operand pool (deduplicated immediates)
 *   x19..x26  per-step integer results (ALU results / FPU compare bits)
 *   x28, x29  compare scratch
 *   x31       fail flag
 *   f1..f14   FP operand pool
 *   f20..f27  FP results
 */
constexpr cpu::Reg kOperandBase = 5;
constexpr int kOperandMax = 14;
constexpr cpu::Reg kResultBase = 19;
constexpr int kResultMax = 8;
constexpr cpu::Reg kScratchA = 28;
constexpr cpu::Reg kScratchB = 29;
constexpr cpu::Reg kFailFlag = 31;
constexpr cpu::FReg kFOperandBase = 1;
constexpr cpu::FReg kFResultBase = 20;

/** Dedup operand values into the pool; emits loads on first use. */
class OperandPool
{
  public:
    explicit OperandPool(cpu::Asm &a, bool fp) : a_(a), fp_(fp) {}

    uint8_t
    reg_for(uint32_t value)
    {
        auto it = map_.find(value);
        if (it != map_.end())
            return it->second;
        VEGA_CHECK(next_ < kOperandMax, "operand pool exhausted");
        uint8_t x_reg = kOperandBase + next_;
        if (fp_) {
            uint8_t f_reg = kFOperandBase + next_;
            a_.li(kScratchA, value);
            a_.fmv_w_x(f_reg, kScratchA);
            map_[value] = f_reg;
            ++next_;
            return f_reg;
        }
        a_.li(x_reg, value);
        map_[value] = x_reg;
        ++next_;
        return x_reg;
    }

  private:
    cpu::Asm &a_;
    bool fp_;
    std::map<uint32_t, uint8_t> map_;
    int next_ = 0;
};

/** End a block: the fail path sets x31, both paths halt. */
void
finish_block(cpu::Asm &a, TestCase &tc)
{
    a.j("done");
    a.label("fail");
    a.addi(kFailFlag, 0, 1);
    a.label("done");
    a.halt();
    tc.program = a.finish();
}

/** ALU and MDU blocks: one integer instruction per step. */
void
build_int_program(TestCase &tc)
{
    cpu::Asm a;
    a.addi(kFailFlag, 0, 0);
    OperandPool pool(a, false);

    // Preload every distinct operand so the op burst runs back-to-back.
    std::vector<std::pair<uint8_t, uint8_t>> op_regs;
    for (const ModuleStep &s : tc.stimulus)
        op_regs.emplace_back(pool.reg_for(s.a), pool.reg_for(s.b));

    VEGA_CHECK(tc.stimulus.size() <= kResultMax, "too many steps");
    for (size_t i = 0; i < tc.stimulus.size(); ++i) {
        auto [ra, rb] = op_regs[i];
        cpu::Reg rd = kResultBase + cpu::Reg(i);
        uint32_t op = tc.stimulus[i].op;
        if (tc.module == ModuleKind::Mdu32) {
            switch (MduOp(op)) {
              case MduOp::Mul: a.mul(rd, ra, rb); break;
              case MduOp::Mulh: a.mulh(rd, ra, rb); break;
              case MduOp::Mulhu: a.mulhu(rd, ra, rb); break;
            }
            continue;
        }
        switch (AluOp(op)) {
          case AluOp::Add: a.add(rd, ra, rb); break;
          case AluOp::Sub: a.sub(rd, ra, rb); break;
          case AluOp::Sll: a.sll(rd, ra, rb); break;
          case AluOp::Slt: a.slt(rd, ra, rb); break;
          case AluOp::Sltu: a.sltu(rd, ra, rb); break;
          case AluOp::Xor: a.xor_(rd, ra, rb); break;
          case AluOp::Srl: a.srl(rd, ra, rb); break;
          case AluOp::Sra: a.sra(rd, ra, rb); break;
          case AluOp::Or: a.or_(rd, ra, rb); break;
          case AluOp::And: a.and_(rd, ra, rb); break;
        }
    }

    for (const ResultCheck &c : tc.checks) {
        a.li(kScratchA, c.expected);
        a.bne(kResultBase + cpu::Reg(c.step), kScratchA, "fail");
    }
    finish_block(a, tc);
}

void
build_fpu_program(TestCase &tc)
{
    cpu::Asm a;
    a.addi(kFailFlag, 0, 0);
    // Deterministic flag baseline.
    a.clear_fflags();

    OperandPool pool(a, true);
    std::vector<std::pair<uint8_t, uint8_t>> op_regs(tc.stimulus.size());
    for (size_t i = 0; i < tc.stimulus.size(); ++i)
        if (tc.stimulus[i].valid)
            op_regs[i] = {pool.reg_for(tc.stimulus[i].a),
                          pool.reg_for(tc.stimulus[i].b)};

    // Map step -> result register (FP or integer).
    std::vector<uint8_t> result_reg(tc.stimulus.size(), 0);
    int n_f = 0, n_x = 0;
    for (size_t i = 0; i < tc.stimulus.size(); ++i) {
        if (!tc.stimulus[i].valid)
            continue;
        bool to_x = fp::writes_xreg(fp::FpuOp(tc.stimulus[i].op));
        result_reg[i] = to_x ? kResultBase + uint8_t(n_x++)
                             : kFResultBase + uint8_t(n_f++);
        VEGA_CHECK(n_x <= kResultMax && n_f <= kResultMax,
                   "result registers exhausted");
    }

    // The trace burst: one instruction per trace cycle, preserving the
    // exact valid/clear timing the cover trace requires.
    for (size_t i = 0; i < tc.stimulus.size(); ++i) {
        const ModuleStep &s = tc.stimulus[i];
        if (s.clear) {
            a.clear_fflags();
            continue;
        }
        if (!s.valid) {
            a.nop();
            continue;
        }
        auto [ra, rb] = op_regs[i];
        uint8_t rd = result_reg[i];
        switch (fp::FpuOp(s.op)) {
          case fp::FpuOp::Add: a.fadd_s(rd, ra, rb); break;
          case fp::FpuOp::Sub: a.fsub_s(rd, ra, rb); break;
          case fp::FpuOp::Mul: a.fmul_s(rd, ra, rb); break;
          case fp::FpuOp::Eq: a.feq_s(rd, ra, rb); break;
          case fp::FpuOp::Lt: a.flt_s(rd, ra, rb); break;
          case fp::FpuOp::Le: a.fle_s(rd, ra, rb); break;
          case fp::FpuOp::Min: a.fmin_s(rd, ra, rb); break;
          case fp::FpuOp::Max: a.fmax_s(rd, ra, rb); break;
        }
    }

    for (const ResultCheck &c : tc.checks) {
        uint8_t rd = result_reg[c.step];
        a.li(kScratchB, c.expected);
        if (c.to_xreg) {
            a.bne(rd, kScratchB, "fail");
        } else {
            a.fmv_x_w(kScratchA, rd);
            a.bne(kScratchA, kScratchB, "fail");
        }
    }
    if (tc.check_final_flags) {
        a.csrr_fflags(kScratchA);
        a.li(kScratchB, tc.expected_flags);
        a.bne(kScratchA, kScratchB, "fail");
    }
    finish_block(a, tc);
}

/**
 * Compile a march-encoded stimulus (see kMaxMemTestSteps) into a
 * straight-line block over the memory substrate's word cells. Cells
 * live at kDataBase + 4*row, which the 16-row macro aliases back to
 * row (kDataBase is 4096-aligned). Registers: x5/x6 hold the solid
 * 0 / all-ones backgrounds, x7 the cell base, x28 the read scratch.
 */
void
build_mem_program(TestCase &tc)
{
    constexpr cpu::Reg kBg0 = 5, kBg1 = 6, kBase = 7;
    cpu::Asm a;
    a.addi(kFailFlag, 0, 0);
    a.li(kBg0, 0);
    a.li(kBg1, 0xffffffffu);
    a.li(kBase, workloads::kDataBase);
    for (const ModuleStep &s : tc.stimulus) {
        int32_t off = int32_t(s.a) * 4;
        switch (s.op) {
          case 0: // r0
            a.lw(kScratchA, kBase, off);
            a.bne(kScratchA, kBg0, "fail");
            break;
          case 1: // r1
            a.lw(kScratchA, kBase, off);
            a.bne(kScratchA, kBg1, "fail");
            break;
          case 2: // w0
            a.sw(kBg0, kBase, off);
            break;
          case 3: // w1
            a.sw(kBg1, kBase, off);
            break;
        }
    }
    finish_block(a, tc);
}

// The public limits must match the register plan the builders assume.
static_assert(kMaxTestSteps == size_t(kResultMax));
static_assert(kMaxDistinctOperands == size_t(kOperandMax));

} // namespace

uint32_t
fu_num_ops(ModuleKind kind)
{
    switch (kind) {
      case ModuleKind::Alu32: return kNumAluOps;
      case ModuleKind::Mdu32: return kNumMduOps;
      case ModuleKind::Fpu32: return fp::kNumFpuOps;
      default:                return 0;
    }
}

Expected<void>
validate_test_case(const TestCase &tc)
{
    auto err = [&](const std::string &msg) {
        return make_error(ErrorCode::ValidationError,
                          "test '" + tc.name + "': " + msg);
    };

    if (tc.module == ModuleKind::MemDec16) {
        // March encoding: a = row, op = march operation, checks unused.
        if (tc.stimulus.size() > kMaxMemTestSteps)
            return err("too many march operations (" +
                       std::to_string(tc.stimulus.size()) + " > " +
                       std::to_string(kMaxMemTestSteps) + ")");
        for (size_t i = 0; i < tc.stimulus.size(); ++i) {
            const ModuleStep &s = tc.stimulus[i];
            if (s.op >= kNumMarchOps)
                return err("step " + std::to_string(i) + " march op " +
                           std::to_string(s.op) + " out of range (< " +
                           std::to_string(kNumMarchOps) + ")");
            if (s.a >= kMemTestRows)
                return err("step " + std::to_string(i) + " row " +
                           std::to_string(s.a) + " out of range (< " +
                           std::to_string(kMemTestRows) + ")");
        }
        if (!tc.checks.empty())
            return err("march tests self-check; checks must be empty");
        return {};
    }

    const uint32_t num_ops = fu_num_ops(tc.module);
    if (num_ops == 0)
        return err("module is not a compilable functional unit");
    const bool is_fpu = tc.module == ModuleKind::Fpu32;

    if (tc.stimulus.size() > kMaxTestSteps)
        return err("too many steps (" +
                   std::to_string(tc.stimulus.size()) + " > " +
                   std::to_string(kMaxTestSteps) + ")");

    std::set<uint32_t> operands;
    for (size_t i = 0; i < tc.stimulus.size(); ++i) {
        const ModuleStep &s = tc.stimulus[i];
        if (is_fpu && !s.valid)
            continue; // compiled as a nop; operands and op unused
        if (s.op >= num_ops)
            return err("step " + std::to_string(i) + " op " +
                       std::to_string(s.op) + " out of range (< " +
                       std::to_string(num_ops) + ")");
        operands.insert(s.a);
        operands.insert(s.b);
    }
    if (operands.size() > kMaxDistinctOperands)
        return err("too many distinct operands (" +
                   std::to_string(operands.size()) + " > " +
                   std::to_string(kMaxDistinctOperands) + ")");

    for (const ResultCheck &c : tc.checks) {
        if (c.step >= tc.stimulus.size())
            return err("check references step " +
                       std::to_string(c.step) + " of " +
                       std::to_string(tc.stimulus.size()));
        if (is_fpu && !tc.stimulus[c.step].valid)
            return err("check references idle step " +
                       std::to_string(c.step));
    }
    return {};
}

Expected<void>
try_finalize_test_case(TestCase &tc)
{
    Expected<void> valid = validate_test_case(tc);
    if (!valid)
        return valid;

    switch (tc.module) {
      case ModuleKind::Alu32:
      case ModuleKind::Mdu32:
        build_int_program(tc);
        break;
      case ModuleKind::Fpu32:
        build_fpu_program(tc);
        break;
      case ModuleKind::MemDec16:
        build_mem_program(tc);
        break;
      default:
        return make_error(ErrorCode::ValidationError,
                          "unsupported module");
    }

    cpu::Iss iss(tc.program);
    auto status = iss.run();
    if (status != cpu::Iss::Status::Halted)
        return make_error(ErrorCode::ValidationError,
                          "test '" + tc.name +
                              "' did not halt on the golden model");
    if (iss.reg(31) != 0)
        return make_error(ErrorCode::ValidationError,
                          "test '" + tc.name +
                              "' fails on the golden model");
    tc.cycle_cost = iss.cycles();
    return {};
}

void
finalize_test_case(TestCase &tc)
{
    Expected<void> ok = try_finalize_test_case(tc);
    VEGA_CHECK(ok.ok(), "finalize_test_case: ", ok.error().context);
}

} // namespace vega::runtime
