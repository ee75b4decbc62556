#include "cpu/iss.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "cpu/alu_ops.h"
#include "cpu/mdu_ops.h"
#include "cpu/softfp.h"

namespace vega::cpu {

Iss::Iss(std::vector<Instr> program, IssConfig cfg)
    : program_(std::move(program)), cfg_(cfg),
      exec_counts_(program_.size(), 0)
{
}

void
Iss::reset()
{
    std::memset(x_, 0, sizeof(x_));
    std::memset(f_, 0, sizeof(f_));
    fflags_ = 0;
    pc_ = 0;
    mem_.clear();
    cycles_ = 0;
    instret_ = 0;
    halted_ = false;
    stalled_ = false;
    trapped_ = false;
    fu_trace_.clear();
    mem_trace_.clear();
    std::fill(exec_counts_.begin(), exec_counts_.end(), 0);
}

void
Iss::load(uint32_t addr, void *out, size_t bytes) const
{
    // Bytes past the grown end were never written: they read zero.
    size_t held = addr < mem_.size() ? std::min(bytes, mem_.size() - addr)
                                     : 0;
    if (held)
        std::memcpy(out, &mem_[addr], held);
    std::memset(static_cast<uint8_t *>(out) + held, 0, bytes - held);
}

void
Iss::store(uint32_t addr, const void *in, size_t bytes)
{
    size_t end = size_t(addr) + bytes;
    if (end > mem_.size())
        mem_.resize(std::min(cfg_.memory_bytes,
                             (end + kMemPage - 1) / kMemPage * kMemPage),
                    0);
    std::memcpy(&mem_[addr], in, bytes);
}

uint32_t
Iss::read_u32(uint32_t addr) const
{
    VEGA_CHECK(mem_ok(addr, 4), "load out of bounds: ", addr);
    uint32_t v;
    load(addr, &v, 4);
    return v;
}

void
Iss::write_u32(uint32_t addr, uint32_t value)
{
    VEGA_CHECK(mem_ok(addr, 4), "store out of bounds: ", addr);
    store(addr, &value, 4);
}

template <typename T>
bool
Iss::data_read(uint32_t addr, T &out)
{
    MemBackend::Plan plan;
    plan.addr = addr;
    if (mem_backend_)
        plan = mem_backend_->access(addr, false);
    if (plan.squash) {
        out = T(~T(0)); // precharged bitlines, no row selected
    } else {
        if (!mem_ok(plan.addr, sizeof(T)))
            return false;
        load(plan.addr, &out, sizeof(T));
        if (plan.has_extra) {
            // Two wordlines up: the read senses the wired-OR of both rows.
            if (!mem_ok(plan.extra, sizeof(T)))
                return false;
            T other;
            load(plan.extra, &other, sizeof(T));
            out |= other;
        }
    }
    if (cfg_.record_mem_trace)
        mem_trace_.push_back({ModuleKind::MemDec16, 0, addr, out});
    return true;
}

template <typename T>
bool
Iss::data_write(uint32_t addr, T value)
{
    MemBackend::Plan plan;
    plan.addr = addr;
    if (mem_backend_)
        plan = mem_backend_->access(addr, true);
    if (!plan.squash) {
        if (!mem_ok(plan.addr, sizeof(T)))
            return false;
        store(plan.addr, &value, sizeof(T));
        if (plan.has_extra) {
            if (!mem_ok(plan.extra, sizeof(T)))
                return false;
            store(plan.extra, &value, sizeof(T));
        }
    }
    if (cfg_.record_mem_trace)
        mem_trace_.push_back({ModuleKind::MemDec16, 1, addr, value});
    return true;
}

Iss::Status
Iss::run()
{
    while (!halted_) {
        if (stalled_)
            return Status::Stalled;
        if (trapped_)
            return Status::Trap;
        if (instret_ >= cfg_.max_instructions)
            return Status::Watchdog;
        step();
    }
    if (stalled_)
        return Status::Stalled;
    return trapped_ ? Status::Trap : Status::Halted;
}

namespace {

AluOp
alu_op_for(Op op)
{
    switch (op) {
      case Op::Add: case Op::Addi: return AluOp::Add;
      case Op::Sub: return AluOp::Sub;
      case Op::Sll: case Op::Slli: return AluOp::Sll;
      case Op::Slt: case Op::Slti: return AluOp::Slt;
      case Op::Sltu: case Op::Sltiu: return AluOp::Sltu;
      case Op::Xor: case Op::Xori: return AluOp::Xor;
      case Op::Srl: case Op::Srli: return AluOp::Srl;
      case Op::Sra: case Op::Srai: return AluOp::Sra;
      case Op::Or: case Op::Ori: return AluOp::Or;
      case Op::And: case Op::Andi: return AluOp::And;
      default: panic("not an ALU op");
    }
}

fp::FpuOp
fpu_op_for(Op op)
{
    switch (op) {
      case Op::FaddS: return fp::FpuOp::Add;
      case Op::FsubS: return fp::FpuOp::Sub;
      case Op::FmulS: return fp::FpuOp::Mul;
      case Op::FeqS: return fp::FpuOp::Eq;
      case Op::FltS: return fp::FpuOp::Lt;
      case Op::FleS: return fp::FpuOp::Le;
      case Op::FminS: return fp::FpuOp::Min;
      case Op::FmaxS: return fp::FpuOp::Max;
      default: panic("not an FPU op");
    }
}

} // namespace

void
Iss::step()
{
    // A corrupted branch/jump target from a failing unit can land
    // anywhere; that's a trap, not an internal invariant violation.
    if (pc_ >= program_.size()) {
        trapped_ = true;
        return;
    }
    const Instr &i = program_[pc_];
    ++exec_counts_[pc_];
    ++instret_;
    ++cycles_;
    uint32_t next_pc = pc_ + 1;

    auto take_branch = [&](bool taken) {
        if (taken) {
            next_pc = uint32_t(i.imm);
            ++cycles_; // taken-branch bubble
        }
    };

    switch (i.op) {
      // --- ALU-module ops ------------------------------------------------
      case Op::Add: case Op::Sub: case Op::Sll: case Op::Slt:
      case Op::Sltu: case Op::Xor: case Op::Srl: case Op::Sra:
      case Op::Or: case Op::And:
      case Op::Addi: case Op::Slti: case Op::Sltiu: case Op::Xori:
      case Op::Ori: case Op::Andi: case Op::Slli: case Op::Srli:
      case Op::Srai: {
        AluOp op = alu_op_for(i.op);
        bool has_imm = i.op >= Op::Addi && i.op <= Op::Srai;
        uint32_t a = x_[i.rs1];
        uint32_t b = has_imm ? uint32_t(i.imm) : x_[i.rs2];
        if (cfg_.record_fu_trace)
            fu_trace_.push_back({ModuleKind::Alu32, uint8_t(op), a, b});
        if (injected_) {
            FuResult r = take_injected();
            if (r.stalled)
                stalled_ = true;
            set_reg(i.rd, r.value);
        } else {
            set_reg(i.rd, alu_compute(op, a, b));
        }
        break;
      }
      case Op::Lui:
        set_reg(i.rd, uint32_t(i.imm) & 0xfffff000u);
        break;
      case Op::Auipc:
        set_reg(i.rd, (uint32_t(i.imm) & 0xfffff000u) + pc_ * 4);
        break;

      // --- RV32M multiply (routed through the MDU module) -----------------
      case Op::Mul: case Op::Mulh: case Op::Mulhu: {
        MduOp op = i.op == Op::Mul    ? MduOp::Mul
                   : i.op == Op::Mulh ? MduOp::Mulh
                                      : MduOp::Mulhu;
        uint32_t a = x_[i.rs1], b = x_[i.rs2];
        if (cfg_.record_fu_trace)
            fu_trace_.push_back({ModuleKind::Mdu32, uint8_t(op), a, b});
        if (injected_) {
            FuResult r = take_injected();
            if (r.stalled)
                stalled_ = true;
            set_reg(i.rd, r.value);
        } else {
            set_reg(i.rd, mdu_compute(op, a, b));
        }
        break;
      }
      case Op::Div: {
        int32_t a = int32_t(x_[i.rs1]), b = int32_t(x_[i.rs2]);
        int32_t q = b == 0 ? -1
                    : (a == INT32_MIN && b == -1) ? a
                                                  : a / b;
        set_reg(i.rd, uint32_t(q));
        break;
      }
      case Op::Divu:
        set_reg(i.rd, x_[i.rs2] == 0 ? 0xffffffffu : x_[i.rs1] / x_[i.rs2]);
        break;
      case Op::Rem: {
        int32_t a = int32_t(x_[i.rs1]), b = int32_t(x_[i.rs2]);
        int32_t r = b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b;
        set_reg(i.rd, uint32_t(r));
        break;
      }
      case Op::Remu:
        set_reg(i.rd, x_[i.rs2] == 0 ? x_[i.rs1] : x_[i.rs1] % x_[i.rs2]);
        break;

      // --- Memory ----------------------------------------------------------
      // A failing unit can corrupt an address register, so accesses
      // trap on out-of-bounds instead of asserting.
      case Op::Lw: {
        uint32_t addr = x_[i.rs1] + uint32_t(i.imm);
        uint32_t v;
        if (!data_read(addr, v)) {
            trapped_ = true;
            return;
        }
        set_reg(i.rd, v);
        ++cycles_; // load-use latency
        break;
      }
      case Op::Sw: {
        uint32_t addr = x_[i.rs1] + uint32_t(i.imm);
        if (!data_write(addr, x_[i.rs2])) {
            trapped_ = true;
            return;
        }
        break;
      }
      case Op::Lb: {
        uint32_t addr = x_[i.rs1] + uint32_t(i.imm);
        uint8_t v;
        if (!data_read(addr, v)) {
            trapped_ = true;
            return;
        }
        set_reg(i.rd, uint32_t(int32_t(int8_t(v))));
        ++cycles_;
        break;
      }
      case Op::Lbu: {
        uint32_t addr = x_[i.rs1] + uint32_t(i.imm);
        uint8_t v;
        if (!data_read(addr, v)) {
            trapped_ = true;
            return;
        }
        set_reg(i.rd, v);
        ++cycles_;
        break;
      }
      case Op::Sb: {
        uint32_t addr = x_[i.rs1] + uint32_t(i.imm);
        if (!data_write(addr, uint8_t(x_[i.rs2]))) {
            trapped_ = true;
            return;
        }
        break;
      }

      // --- Control ---------------------------------------------------------
      case Op::Beq: take_branch(x_[i.rs1] == x_[i.rs2]); break;
      case Op::Bne: take_branch(x_[i.rs1] != x_[i.rs2]); break;
      case Op::Blt:
        take_branch(int32_t(x_[i.rs1]) < int32_t(x_[i.rs2]));
        break;
      case Op::Bge:
        take_branch(int32_t(x_[i.rs1]) >= int32_t(x_[i.rs2]));
        break;
      case Op::Bltu: take_branch(x_[i.rs1] < x_[i.rs2]); break;
      case Op::Bgeu: take_branch(x_[i.rs1] >= x_[i.rs2]); break;
      case Op::Jal:
        set_reg(i.rd, (pc_ + 1) * 4);
        next_pc = uint32_t(i.imm);
        ++cycles_;
        break;
      case Op::Jalr:
        set_reg(i.rd, (pc_ + 1) * 4);
        next_pc = (x_[i.rs1] + uint32_t(i.imm)) / 4;
        ++cycles_;
        break;

      // --- FPU-module ops ----------------------------------------------------
      case Op::FaddS: case Op::FsubS: case Op::FmulS: case Op::FminS:
      case Op::FmaxS: case Op::FeqS: case Op::FltS: case Op::FleS: {
        fp::FpuOp op = fpu_op_for(i.op);
        bool to_xreg = i.op == Op::FeqS || i.op == Op::FltS ||
                       i.op == Op::FleS;
        uint32_t a = f_[i.rs1], b = f_[i.rs2];
        if (cfg_.record_fu_trace)
            fu_trace_.push_back({ModuleKind::Fpu32, uint8_t(op), a, b});
        uint32_t bits;
        if (injected_) {
            FuResult r = take_injected();
            if (r.stalled)
                stalled_ = true;
            bits = r.value;
            // Hardware owns the sticky flags register in this mode.
        } else {
            fp::FpResult r = fp::fpu_compute(op, a, b);
            bits = r.bits;
            fflags_ |= r.flags;
        }
        if (to_xreg)
            set_reg(i.rd, bits);
        else
            f_[i.rd] = bits;
        break;
      }
      case Op::FmvWX:
        f_[i.rd] = x_[i.rs1];
        break;
      case Op::FmvXW:
        set_reg(i.rd, f_[i.rs1]);
        break;
      case Op::Flw: {
        uint32_t v;
        if (!data_read(x_[i.rs1] + uint32_t(i.imm), v)) {
            trapped_ = true;
            return;
        }
        f_[i.rd] = v;
        ++cycles_;
        break;
      }
      case Op::Fsw:
        if (!data_write(x_[i.rs1] + uint32_t(i.imm), f_[i.rs2])) {
            trapped_ = true;
            return;
        }
        break;

      // --- CSR / environment -------------------------------------------------
      case Op::CsrrFflags:
        set_reg(i.rd, injected_ ? take_injected().flags : fflags_);
        break;
      case Op::CsrwFflags:
        if (injected_) {
            VEGA_CHECK(i.rs1 == 0,
                       "the gate-level FPU only supports clearing fflags");
            take_injected(); // the engine ticked the clear pulse
        } else {
            fflags_ = uint8_t(x_[i.rs1] & 0x1f);
        }
        break;
      case Op::Halt:
        halted_ = true;
        break;
    }

    pc_ = next_pc;
}

FuIssue
Iss::peek_fu_issue(ModuleKind mounted) const
{
    FuIssue issue;
    if (pc_ >= program_.size())
        return issue;
    const Instr &i = program_[pc_];
    switch (i.op) {
      case Op::Add: case Op::Sub: case Op::Sll: case Op::Slt:
      case Op::Sltu: case Op::Xor: case Op::Srl: case Op::Sra:
      case Op::Or: case Op::And:
      case Op::Addi: case Op::Slti: case Op::Sltiu: case Op::Xori:
      case Op::Ori: case Op::Andi: case Op::Slli: case Op::Srli:
      case Op::Srai:
        if (mounted == ModuleKind::Alu32) {
            bool has_imm = i.op >= Op::Addi && i.op <= Op::Srai;
            issue.kind = FuIssue::Kind::Op;
            issue.op = uint8_t(alu_op_for(i.op));
            issue.a = x_[i.rs1];
            issue.b = has_imm ? uint32_t(i.imm) : x_[i.rs2];
        }
        break;
      case Op::Mul: case Op::Mulh: case Op::Mulhu:
        if (mounted == ModuleKind::Mdu32) {
            issue.kind = FuIssue::Kind::Op;
            issue.op = uint8_t(i.op == Op::Mul    ? MduOp::Mul
                               : i.op == Op::Mulh ? MduOp::Mulh
                                                  : MduOp::Mulhu);
            issue.a = x_[i.rs1];
            issue.b = x_[i.rs2];
        }
        break;
      case Op::FaddS: case Op::FsubS: case Op::FmulS: case Op::FminS:
      case Op::FmaxS: case Op::FeqS: case Op::FltS: case Op::FleS:
        if (mounted == ModuleKind::Fpu32) {
            issue.kind = FuIssue::Kind::Op;
            issue.op = uint8_t(fpu_op_for(i.op));
            issue.a = f_[i.rs1];
            issue.b = f_[i.rs2];
        }
        break;
      case Op::CsrrFflags:
        if (mounted == ModuleKind::Fpu32)
            issue.kind = FuIssue::Kind::ReadFflags;
        break;
      case Op::CsrwFflags:
        if (mounted == ModuleKind::Fpu32)
            issue.kind = FuIssue::Kind::ClearFflags;
        break;
      default:
        break;
    }
    return issue;
}

void
Iss::step_one(const FuResult *injected)
{
    injected_ = injected;
    step();
    VEGA_CHECK(injected_ == nullptr,
               "injected FU result was not consumed — peek_fu_issue() "
               "and the executed instruction disagree");
}

} // namespace vega::cpu
