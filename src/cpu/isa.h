/**
 * @file
 * The instruction set of Vega's evaluation CPU.
 *
 * A RV32IM+F-subset, in-order, single-issue core standing in for the
 * CV32E40P. Instructions are held in a structured form (not binary
 * encodings): the ISS executes them directly and render_asm() prints the
 * equivalent RISC-V assembly, which is what the generated aging library
 * embeds as inline asm (§3.4.1).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vega::cpu {

/** Integer register index (x0..x31, x0 hardwired to zero). */
using Reg = uint8_t;
/** FP register index (f0..f31). */
using FReg = uint8_t;

enum class Op : uint8_t {
    // RV32I register-register (routed through the ALU module).
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    // Register-immediate.
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    Lui, Auipc,
    // RV32M (separate multiplier unit in the CV32E40P; golden-modeled).
    Mul, Mulh, Mulhu, Div, Divu, Rem, Remu,
    // Memory.
    Lw, Sw, Lb, Lbu, Sb,
    // Control.
    Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr,
    // F extension subset (routed through the FPU module).
    FaddS, FsubS, FmulS, FeqS, FltS, FleS, FminS, FmaxS,
    FmvWX, FmvXW, Flw, Fsw,
    // CSR (fflags only).
    CsrrFflags,   ///< rd = fflags
    CsrwFflags,   ///< fflags = rs1 (rs1 == x0 clears)
    // Environment.
    Halt,
};

/** One structured instruction. */
struct Instr
{
    Op op = Op::Halt;
    Reg rd = 0;
    Reg rs1 = 0;
    Reg rs2 = 0;
    int32_t imm = 0; ///< immediate or branch/jump target (instr index)
};

/** RISC-V style disassembly of one instruction. */
std::string render_asm(const Instr &instr);

/** Render a whole program with instruction indices as labels. */
std::string render_asm(const std::vector<Instr> &program);

} // namespace vega::cpu
