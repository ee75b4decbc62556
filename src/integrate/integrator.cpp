#include "integrate/integrator.h"

#include <algorithm>

#include "common/logging.h"
#include "cpu/assembler.h"

namespace vega::integrate {

namespace {

using cpu::Instr;
using cpu::Op;

constexpr uint32_t kGateSave28Addr = 2024;
constexpr uint32_t kGateSave29Addr = 2028;
constexpr uint32_t kLcgStateAddr = 2032;
constexpr uint32_t kLinkSaveAddr = 2036;
constexpr uint32_t kXRegSaveBase = 2048; // x5..x29, x31
constexpr uint32_t kFflagsSaveAddr = 2160;
constexpr uint32_t kFRegSaveBase = 2176; // f1..f31

bool
instr_has_target(Op op)
{
    return op == Op::Beq || op == Op::Bne || op == Op::Blt ||
           op == Op::Bge || op == Op::Bltu || op == Op::Bgeu ||
           op == Op::Jal;
}

/**
 * The inline dispatch gate, built as a standalone snippet whose internal
 * branch offsets are patched after placement. Returns instructions; the
 * jal to the (not yet placed) test routine is fixed up by the caller.
 *
 * Throttling uses a power-of-two entry counter: tests dispatch every
 * 2^k-th block entry, the deterministic equivalent of firing with
 * probability 2^-k (the common path is ~10 cycles: save one scratch
 * register, bump the counter, mask, branch). When @p period_log2 is 0
 * the gate collapses to save-link + jal.
 */
std::vector<Instr>
build_gate(int period_log2)
{
    cpu::Asm a;
    if (period_log2 > 0) {
        a.sw(28, 0, int32_t(kGateSave28Addr));
        a.lw(28, 0, int32_t(kLcgStateAddr));
        a.addi(28, 28, 1);
        a.sw(28, 0, int32_t(kLcgStateAddr));
        a.andi(28, 28, (1 << period_log2) - 1);
        a.bne(28, 0, "skip");
    }
    a.sw(30, 0, int32_t(kLinkSaveAddr));
    a.jal(30, "dispatch"); // retargeted to the test routine by the caller
    a.lw(30, 0, int32_t(kLinkSaveAddr));
    a.label("skip");
    if (period_log2 > 0)
        a.lw(28, 0, int32_t(kGateSave28Addr));
    // Asm::finish panics on unbound labels; bind "dispatch" at the gate
    // end — the caller overwrites the jal's target anyway.
    a.label("dispatch");
    return a.finish();
}

} // namespace

IntegrationResult
integrate_tests(const std::vector<Instr> &prog, const Profile &profile,
                const std::vector<runtime::TestCase> &suite,
                const IntegrationConfig &config)
{
    VEGA_CHECK(!suite.empty(), "no tests to integrate");

    // ---- Site selection: coolest block that still runs routinely. ----
    // Blocks executed fewer times than this are not "routine".
    constexpr uint64_t kMinBlockCount = 2;
    const BasicBlock *site = nullptr;
    for (const BasicBlock &b : profile.blocks) {
        if (b.count < kMinBlockCount)
            continue;
        if (!site || b.count < site->count)
            site = &b;
    }
    VEGA_CHECK(site != nullptr, "no routinely-executed block found");

    // ---- Overhead estimate (IR instruction counts, as in §3.4.2). ----
    size_t suite_instrs = 0;
    for (const auto &t : suite)
        suite_instrs += t.program.size();
    double estimate = double(suite_instrs) * double(site->count) /
                      double(profile.total_instructions);

    IntegrationResult result;
    result.insertion_point = site->first;
    result.block_count = site->count;
    result.estimated_overhead = estimate;
    int period_log2 = 0;
    if (estimate > config.overhead_threshold) {
        // Throttled dispatch pays the counter gate (~10 instructions)
        // every block entry plus the suite every 2^k-th entry; pick the
        // smallest power-of-two period that meets the threshold.
        constexpr double kGateCost = 10.0;
        double budget = config.overhead_threshold *
                        double(profile.total_instructions) /
                        double(site->count);
        double p = (budget - kGateCost) / double(suite_instrs);
        p = std::clamp(p, 1.0 / 2048.0, 1.0);
        while (period_log2 < 11 &&
               1.0 / double(1 << period_log2) > p)
            ++period_log2;
    }
    result.probability = 1.0 / double(1 << period_log2);

    // ---- Build the gate and relocate the application around it. ----
    std::vector<Instr> gate = build_gate(period_log2);
    size_t p = site->first;
    size_t k = gate.size();

    std::vector<Instr> out;
    out.reserve(prog.size() + k + 64 * suite.size());
    out.insert(out.end(), prog.begin(), prog.begin() + long(p));
    size_t gate_base = out.size();
    out.insert(out.end(), gate.begin(), gate.end());
    out.insert(out.end(), prog.begin() + long(p), prog.end());

    // Relocate application control flow: targets past the insertion
    // point shift by the gate length; targets at exactly the insertion
    // point keep pointing at the gate (tests run at block entry).
    for (size_t i = 0; i < out.size(); ++i) {
        bool in_gate = i >= gate_base && i < gate_base + k;
        if (in_gate)
            continue;
        if (instr_has_target(out[i].op) && size_t(out[i].imm) > p)
            out[i].imm += int32_t(k);
    }
    // Gate-internal branches were assembled at base 0: shift them.
    for (size_t i = gate_base; i < gate_base + k; ++i)
        if (instr_has_target(out[i].op))
            out[i].imm += int32_t(gate_base);

    // ---- Append the test routine. ----
    size_t routine_entry = out.size();
    {
        cpu::Asm a;
        // Save caller state: x5..x29 and x31 (x30 saved at the gate).
        int slot = 0;
        for (int r = 5; r <= 29; ++r)
            a.sw(cpu::Reg(r), 0, int32_t(kXRegSaveBase + 4 * slot++));
        a.sw(31, 0, int32_t(kXRegSaveBase + 4 * slot++));
        a.csrr_fflags(5);
        a.sw(5, 0, int32_t(kFflagsSaveAddr));
        for (int r = 1; r <= 31; ++r)
            a.fsw(cpu::FReg(r), 0, int32_t(kFRegSaveBase + 4 * (r - 1)));

        // Inline every test; a set x31 aborts into the fault handler.
        for (size_t t = 0; t < suite.size(); ++t) {
            a.label("test" + std::to_string(t));
            // Tests are self-contained blocks ending in Halt; inline all
            // but the Halt and relocate their internal branches.
            const auto &tp = suite[t].program;
            size_t base = a.size();
            for (size_t i = 0; i + 1 < tp.size(); ++i) {
                Instr ins = tp[i];
                if (instr_has_target(ins.op))
                    ins.imm += int32_t(base);
                a.emit_raw(ins);
            }
            a.bne(31, 0, "fault");
        }

        // Restore and return.
        for (int r = 1; r <= 31; ++r)
            a.flw(cpu::FReg(r), 0, int32_t(kFRegSaveBase + 4 * (r - 1)));
        a.lw(5, 0, int32_t(kFflagsSaveAddr));
        a.csrw_fflags(5);
        slot = 0;
        for (int r = 5; r <= 29; ++r)
            a.lw(cpu::Reg(r), 0, int32_t(kXRegSaveBase + 4 * slot++));
        a.lw(31, 0, int32_t(kXRegSaveBase + 4 * slot++));
        a.jalr(0, 30, 0);

        a.label("fault");
        a.li(28, kFaultSentinelValue);
        a.sw(28, 0, int32_t(kFaultSentinelAddr));
        a.halt();

        std::vector<Instr> routine = a.finish();
        for (Instr &ins : routine)
            if (instr_has_target(ins.op))
                ins.imm += int32_t(routine_entry);
        out.insert(out.end(), routine.begin(), routine.end());
    }

    // Point the gate's jal at the routine entry.
    for (size_t i = gate_base; i < gate_base + k; ++i) {
        if (out[i].op == Op::Jal && out[i].rd == 30) {
            out[i].imm = int32_t(routine_entry);
            break;
        }
    }

    result.program = std::move(out);
    return result;
}

} // namespace vega::integrate
