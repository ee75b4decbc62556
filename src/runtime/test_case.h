/**
 * @file
 * Software-executable aging test cases (the product of Error Lifting and
 * the unit of the §3.4.1 aging library).
 *
 * A test case carries both views of the same stimulus:
 *  - the module-level view (one ModuleStep per clock cycle, straight from
 *    the formal trace) used for netlist-level validation, and
 *  - the software view: a self-contained RISC-V instruction block that
 *    preloads operands, issues the ops back-to-back so the module sees
 *    the exact trace timing, and compares every observable result. The
 *    block leaves x31 = 0 on pass, 1 on detected corruption.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "cpu/isa.h"
#include "rtl/module.h"

namespace vega::runtime {

/** One cycle of module-level stimulus. */
struct ModuleStep
{
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t op = 0;
    bool valid = true;  ///< FPU only: an operation issues this cycle
    bool clear = false; ///< FPU only: fflags clear pulses this cycle
};

/** Expected result of the op issued at stimulus step @p step. */
struct ResultCheck
{
    size_t step = 0;
    uint32_t expected = 0;
    /** FPU comparison ops deliver their bit to an integer register. */
    bool to_xreg = false;
};

struct TestCase
{
    std::string name;
    ModuleKind module = ModuleKind::Alu32;
    std::vector<ModuleStep> stimulus;
    std::vector<ResultCheck> checks;
    /** FPU: compare fflags after the block against this value. */
    bool check_final_flags = false;
    uint8_t expected_flags = 0;

    /** The compiled software block (ends in Halt; x31 = fail flag). */
    std::vector<cpu::Instr> program;
    /** CPU cycles of one passing execution (Table 5's metric). */
    uint64_t cycle_cost = 0;

    /** Which STA endpoint pair this test targets (-1 = none). */
    int pair_index = -1;
    /** Failure-model configuration, e.g. "C=1,rise". */
    std::string config;

    /** RISC-V assembly rendering of the block (§3.4.1's inline asm). */
    std::string assembly() const { return cpu::render_asm(program); }
};

/** Compilation limits a test case must satisfy (register plan). */
constexpr size_t kMaxTestSteps = 8;        ///< per-step result registers
constexpr size_t kMaxDistinctOperands = 14; ///< operand pool registers

/**
 * Memory-substrate test cases (ModuleKind::MemDec16) reuse ModuleStep
 * with a march encoding instead of the functional-unit one: `a` is the
 * row index, `op` is a march operation (0 = r0, 1 = r1, 2 = w0,
 * 3 = w1), `b` is unused. The compiled block is straight-line — every
 * operation touches one word cell and reads self-check against the
 * solid background — so march tests escape the 8-step FU register plan
 * and get their own, much larger, step budget.
 */
constexpr size_t kMaxMemTestSteps = 1024;
constexpr uint32_t kMemTestRows = 16; ///< rows of the MemDec16 macro
constexpr uint32_t kNumMarchOps = 4;

/**
 * Operations the op bus of functional unit @p kind encodes: kNumAluOps,
 * kNumMduOps or fp::kNumFpuOps; 0 for a module that is not one.
 */
uint32_t fu_num_ops(ModuleKind kind);

/**
 * Check @p tc against the compilation limits and per-module op
 * encodings *before* compiling it: step count, distinct operand count,
 * check indices, and op ranges. Untrusted suites (suite_io) must pass
 * this so the program builders' internal invariants cannot fire.
 */
Expected<void> validate_test_case(const TestCase &tc);

/**
 * Compile stimulus+checks into the software block, then run it on the
 * golden ISS to (a) assert it passes on healthy hardware and (b) fill in
 * cycle_cost. Panics if the block cannot pass on a healthy machine.
 */
void finalize_test_case(TestCase &tc);

/**
 * Non-aborting finalize_test_case: validation failures and tests that
 * stall or fail on the golden model come back as ValidationError
 * instead of panicking. This is the path untrusted suites go through.
 */
Expected<void> try_finalize_test_case(TestCase &tc);

/** How a test run terminated. */
enum class Detection {
    None,         ///< everything matched: hardware looks healthy
    Mismatch,     ///< a compare failed (x31 set)
    Stall,        ///< handshake never completed; watchdog fired
    TagAnomaly,   ///< transaction-tag parity error (hardware-detected)
    WrongAddress, ///< march test caught an address-decoder fault (x31 set)
};

const char *detection_name(Detection d);

} // namespace vega::runtime
