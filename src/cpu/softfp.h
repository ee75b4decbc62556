/**
 * @file
 * Bit-exact software model of the FPU's arithmetic.
 *
 * This is the golden reference the ISS computes with and the gate-level
 * FPU netlist is verified against. Semantics (chosen to match a compact
 * embedded FPU, and implemented identically in rtl/fpu32):
 *
 *  - IEEE-754 binary32, round-to-nearest-even only.
 *  - Subnormal inputs and outputs are flushed to (signed) zero; flushed
 *    outputs raise UF|NX.
 *  - Any NaN result is the canonical quiet NaN 0x7fc00000.
 *  - RISC-V F-extension flag semantics: NV DZ OF UF NX (bits 4..0).
 */
#pragma once

#include <cstdint>

namespace vega::fp {

/** fflags bits, RISC-V layout. */
enum Flags : uint8_t {
    kNX = 1 << 0, ///< inexact
    kUF = 1 << 1, ///< underflow
    kOF = 1 << 2, ///< overflow
    kDZ = 1 << 3, ///< divide by zero (unused by this FPU)
    kNV = 1 << 4, ///< invalid operation
};

/** Result bits plus the flags the operation raises. */
struct FpResult
{
    uint32_t bits = 0;
    uint8_t flags = 0;
};

constexpr uint32_t kQuietNan = 0x7fc00000u;

FpResult fadd(uint32_t a, uint32_t b);
FpResult fsub(uint32_t a, uint32_t b);
FpResult fmul(uint32_t a, uint32_t b);

/** Comparisons return 0/1 in bits. feq is quiet; flt/fle signal on NaN. */
FpResult feq(uint32_t a, uint32_t b);
FpResult flt(uint32_t a, uint32_t b);
FpResult fle(uint32_t a, uint32_t b);

/** RISC-V fmin/fmax: NaN-suppressing, -0 < +0. */
FpResult fmin(uint32_t a, uint32_t b);
FpResult fmax(uint32_t a, uint32_t b);

/** FPU opcode encoding shared with the netlist (op[2:0] input bus). */
enum class FpuOp : uint8_t {
    Add = 0,
    Sub = 1,
    Mul = 2,
    Eq = 3,
    Lt = 4,
    Le = 5,
    Min = 6,
    Max = 7,
};

constexpr int kNumFpuOps = 8;

/** True for the comparisons, whose 0/1 result goes to an x-register;
 *  every other op writes an f-register. */
constexpr bool
writes_xreg(FpuOp op)
{
    return op == FpuOp::Eq || op == FpuOp::Lt || op == FpuOp::Le;
}

/** Dispatch by FpuOp. */
FpResult fpu_compute(FpuOp op, uint32_t a, uint32_t b);

const char *fpu_op_name(FpuOp op);

} // namespace vega::fp
