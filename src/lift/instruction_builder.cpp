#include "lift/instruction_builder.h"

#include "cpu/alu_ops.h"
#include "cpu/mdu_ops.h"
#include "cpu/softfp.h"
#include "netlist/builder.h"

namespace vega::lift {

ConversionResult
build_test_case(ModuleKind kind, const Waveform &trace, int pair_index,
                const std::string &config_name)
{
    ConversionResult out;
    const char *unit = kind == ModuleKind::Alu32   ? "alu"
                       : kind == ModuleKind::Mdu32 ? "mdu"
                       : kind == ModuleKind::Fpu32 ? "fpu"
                                                   : nullptr;
    if (!unit) {
        out.reason = "no instruction mapping for this module";
        return out;
    }
    if (trace.num_cycles() > runtime::kMaxTestSteps) {
        out.reason = "trace longer than the register budget allows";
        return out;
    }
    runtime::TestCase tc;
    tc.module = kind;
    tc.pair_index = pair_index;
    tc.config = config_name;
    tc.name = std::string(unit) + "_pair" + std::to_string(pair_index) +
              "_" + config_name;

    // One trace cycle per step; every issued op is checked against the
    // unit's golden model. Only the FPU has valid/clear handshakes and
    // sticky flags.
    const bool is_fpu = kind == ModuleKind::Fpu32;
    uint8_t flags_acc = 0;
    for (size_t f = 0; f < trace.num_cycles(); ++f) {
        runtime::ModuleStep step;
        step.a = uint32_t(trace.at("a", f).to_u64());
        step.b = uint32_t(trace.at("b", f).to_u64());
        step.op = uint32_t(trace.at("op", f).to_u64());
        if (step.op >= runtime::fu_num_ops(kind)) {
            out.reason = "trace uses an undefined opcode";
            return out;
        }
        if (is_fpu) {
            step.valid = trace.at("valid", f).to_u64() != 0;
            step.clear = trace.at("clear", f).to_u64() != 0;
        }
        tc.stimulus.push_back(step);
        if (step.clear) {
            flags_acc = 0;
            continue;
        }
        if (!step.valid)
            continue;

        runtime::ResultCheck check;
        check.step = f;
        if (kind == ModuleKind::Alu32) {
            check.expected = alu_compute(AluOp(step.op), step.a, step.b);
        } else if (kind == ModuleKind::Mdu32) {
            check.expected = mdu_compute(MduOp(step.op), step.a, step.b);
        } else {
            auto op = fp::FpuOp(step.op);
            fp::FpResult golden = fp::fpu_compute(op, step.a, step.b);
            flags_acc |= golden.flags;
            check.expected = golden.bits;
            check.to_xreg = fp::writes_xreg(op);
        }
        tc.checks.push_back(check);
    }
    tc.check_final_flags = is_fpu;
    tc.expected_flags = flags_acc;

    runtime::finalize_test_case(tc);
    out.ok = true;
    out.test = std::move(tc);
    return out;
}

std::vector<NetId>
build_assumes(Netlist &nl, ModuleKind kind)
{
    Builder b(nl, "vegaassume");
    switch (kind) {
      case ModuleKind::Alu32: {
        // Only opcodes 0..9 correspond to instructions: op[3] implies
        // op[2:1] == 0 (allowing 8 = OR and 9 = AND).
        const auto &op = nl.bus("op");
        NetId bad = b.and_(op[3], b.or_(op[2], op[1]));
        return {b.not_(bad)};
      }
      case ModuleKind::Mdu32: {
        // Opcode 3 has no instruction: op[1] implies op[0] == 0.
        const auto &op = nl.bus("op");
        return {b.not_(b.and_(op[1], op[0]))};
      }
      case ModuleKind::Fpu32: {
        // Generated test blocks clear fflags once, *before* the trace
        // ops, and never mid-test: a clear pulse inside the trace would
        // wipe a corrupted sticky flag before software could read it,
        // making the trace unobservable (the paper's §3.3.3 input
        // restrictions encode exactly this kind of microarchitectural
        // knowledge).
        NetId c = nl.bus("clear")[0];
        return {b.not_(c)};
      }
      default:
        return {};
    }
}

} // namespace vega::lift
