#include "cpu/isa.h"

#include <sstream>

namespace vega::cpu {

namespace {

std::string
x(Reg r)
{
    return "x" + std::to_string(r);
}

std::string
f(FReg r)
{
    return "f" + std::to_string(r);
}

} // namespace

std::string
render_asm(const Instr &i)
{
    std::ostringstream os;
    auto rrr = [&](const char *m) {
        os << m << " " << x(i.rd) << ", " << x(i.rs1) << ", " << x(i.rs2);
    };
    auto rri = [&](const char *m) {
        os << m << " " << x(i.rd) << ", " << x(i.rs1) << ", " << i.imm;
    };
    auto fff = [&](const char *m) {
        os << m << " " << f(i.rd) << ", " << f(i.rs1) << ", " << f(i.rs2);
    };
    auto xff = [&](const char *m) {
        os << m << " " << x(i.rd) << ", " << f(i.rs1) << ", " << f(i.rs2);
    };
    auto branch = [&](const char *m) {
        os << m << " " << x(i.rs1) << ", " << x(i.rs2) << ", .L" << i.imm;
    };
    switch (i.op) {
      case Op::Add: rrr("add"); break;
      case Op::Sub: rrr("sub"); break;
      case Op::Sll: rrr("sll"); break;
      case Op::Slt: rrr("slt"); break;
      case Op::Sltu: rrr("sltu"); break;
      case Op::Xor: rrr("xor"); break;
      case Op::Srl: rrr("srl"); break;
      case Op::Sra: rrr("sra"); break;
      case Op::Or: rrr("or"); break;
      case Op::And: rrr("and"); break;
      case Op::Addi: rri("addi"); break;
      case Op::Slti: rri("slti"); break;
      case Op::Sltiu: rri("sltiu"); break;
      case Op::Xori: rri("xori"); break;
      case Op::Ori: rri("ori"); break;
      case Op::Andi: rri("andi"); break;
      case Op::Slli: rri("slli"); break;
      case Op::Srli: rri("srli"); break;
      case Op::Srai: rri("srai"); break;
      case Op::Lui:
        os << "lui " << x(i.rd) << ", " << ((uint32_t(i.imm) >> 12) & 0xfffff);
        break;
      case Op::Auipc:
        os << "auipc " << x(i.rd) << ", " << ((uint32_t(i.imm) >> 12) & 0xfffff);
        break;
      case Op::Mul: rrr("mul"); break;
      case Op::Mulh: rrr("mulh"); break;
      case Op::Mulhu: rrr("mulhu"); break;
      case Op::Div: rrr("div"); break;
      case Op::Divu: rrr("divu"); break;
      case Op::Rem: rrr("rem"); break;
      case Op::Remu: rrr("remu"); break;
      case Op::Lw:
        os << "lw " << x(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Sw:
        os << "sw " << x(i.rs2) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Lb:
        os << "lb " << x(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Lbu:
        os << "lbu " << x(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Sb:
        os << "sb " << x(i.rs2) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Beq: branch("beq"); break;
      case Op::Bne: branch("bne"); break;
      case Op::Blt: branch("blt"); break;
      case Op::Bge: branch("bge"); break;
      case Op::Bltu: branch("bltu"); break;
      case Op::Bgeu: branch("bgeu"); break;
      case Op::Jal:
        os << "jal " << x(i.rd) << ", .L" << i.imm;
        break;
      case Op::Jalr:
        os << "jalr " << x(i.rd) << ", " << x(i.rs1) << ", " << i.imm;
        break;
      case Op::FaddS: fff("fadd.s"); break;
      case Op::FsubS: fff("fsub.s"); break;
      case Op::FmulS: fff("fmul.s"); break;
      case Op::FeqS: xff("feq.s"); break;
      case Op::FltS: xff("flt.s"); break;
      case Op::FleS: xff("fle.s"); break;
      case Op::FminS: fff("fmin.s"); break;
      case Op::FmaxS: fff("fmax.s"); break;
      case Op::FmvWX:
        os << "fmv.w.x " << f(i.rd) << ", " << x(i.rs1);
        break;
      case Op::FmvXW:
        os << "fmv.x.w " << x(i.rd) << ", " << f(i.rs1);
        break;
      case Op::Flw:
        os << "flw " << f(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::Fsw:
        os << "fsw " << f(i.rs2) << ", " << i.imm << "(" << x(i.rs1) << ")";
        break;
      case Op::CsrrFflags:
        os << "csrr " << x(i.rd) << ", fflags";
        break;
      case Op::CsrwFflags:
        os << "csrw fflags, " << x(i.rs1);
        break;
      case Op::Halt:
        os << "ebreak";
        break;
    }
    return os.str();
}

std::string
render_asm(const std::vector<Instr> &program)
{
    std::ostringstream os;
    for (size_t i = 0; i < program.size(); ++i)
        os << ".L" << i << ":  " << render_asm(program[i]) << "\n";
    return os.str();
}

} // namespace vega::cpu
