/**
 * @file
 * Shared machinery for the test-quality studies (Tables 6 and 7, and
 * the extension's Table-6 rows): running a whole suite through the ISS
 * against failing gate-level netlists, exactly as the paper's Verilator
 * evaluation does. Every failing netlist of one (module, failure mode)
 * is a lane of one fault bank, and the suite runs as campaign waves.
 */
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "campaign/wave.h"
#include "common/rng.h"
#include "cpu/alu_ops.h"
#include "cpu/mdu_ops.h"
#include "cpu/softfp.h"

namespace vega::bench {

/** The failure modes C of Table 6's "FM" column, in print order. */
constexpr lift::FaultConstant kFailureModes[] = {
    lift::FaultConstant::Zero, lift::FaultConstant::One,
    lift::FaultConstant::RandomInput};

/** Table 6's "FM" label for failure mode @p c. */
inline const char *
failure_mode_label(lift::FaultConstant c)
{
    switch (c) {
      case lift::FaultConstant::Zero:        return "0";
      case lift::FaultConstant::One:         return "1";
      case lift::FaultConstant::RandomInput: return "R";
    }
    return "?";
}

/**
 * The failing netlists of one (module, failure mode): one per lifted
 * pair with generated tests, each a lane of one fault bank.
 */
struct FailingBank
{
    campaign::WaveContext ctx;
    /** Index into lifted.pairs of each bank position. */
    std::vector<size_t> pair_index;
};

inline FailingBank
make_failing_bank(const HwModule &module, const lift::LiftResult &lifted,
                  lift::FaultConstant c)
{
    FailingBank out;
    std::vector<lift::FailureModelSpec> specs;
    for (size_t pi = 0; pi < lifted.pairs.size(); ++pi) {
        if (lifted.pairs[pi].tests.empty())
            continue; // only netlists tied to generated tests
        out.pair_index.push_back(pi);
        specs.push_back(campaign::fault_spec(lifted.pairs[pi].pair, c));
    }
    if (!specs.empty())
        out.ctx = campaign::make_wave_context(module, specs);
    return out;
}

/**
 * Execute @p suite in order on every failing netlist of @p bank, the
 * fm_rand stream of the netlist for lifted pair pi seeded with
 * @p seed_base + pi. Hardware state persists across test blocks (the
 * initial-value dynamics of §3.3.4 / Table 6's "L"), and each run stops
 * at its first detection, at suite position slots_to_detect - 1.
 * Results come back in bank order.
 */
inline std::vector<campaign::JobResult>
run_suite_on_bank(const FailingBank &bank,
                  const std::vector<runtime::TestCase> &suite,
                  uint64_t seed_base)
{
    campaign::WaveContext ctx = bank.ctx;
    ctx.suite = &suite;
    const size_t n = bank.pair_index.size();
    std::vector<campaign::JobResult> out;
    for (size_t first = 0; first < n; first += campaign::kWaveLanes) {
        std::vector<campaign::WaveJob> jobs;
        for (size_t i = first; i < std::min(n, first + campaign::kWaveLanes);
             ++i) {
            campaign::WaveJob job;
            job.bank_index = i;
            job.spec.id = i;
            job.spec.pair_index = bank.pair_index[i];
            job.spec.policy = runtime::SchedulePolicy::Sequential;
            job.spec.seed = seed_base + bank.pair_index[i];
            job.spec.max_slots = suite.size();
            jobs.push_back(job);
        }
        for (const campaign::JobResult &r : campaign::run_wave(ctx, jobs))
            out.push_back(r);
    }
    return out;
}

/** Build a random baseline test (Table 7's generator). */
inline runtime::TestCase
make_random_test(ModuleKind kind, Rng &rng, size_t index)
{
    runtime::TestCase tc;
    tc.module = kind;
    tc.name = "random" + std::to_string(index);
    runtime::ModuleStep step;
    step.a = uint32_t(rng.next());
    step.b = uint32_t(rng.next());
    step.op = uint32_t(rng.below(runtime::fu_num_ops(kind)));
    runtime::ResultCheck check;
    check.step = 0;
    if (kind == ModuleKind::Alu32) {
        check.expected = alu_compute(AluOp(step.op), step.a, step.b);
    } else if (kind == ModuleKind::Mdu32) {
        check.expected = mdu_compute(MduOp(step.op), step.a, step.b);
    } else {
        auto op = fp::FpuOp(step.op);
        fp::FpResult golden = fp::fpu_compute(op, step.a, step.b);
        check.expected = golden.bits;
        check.to_xreg = fp::writes_xreg(op);
        tc.check_final_flags = true;
        tc.expected_flags = golden.flags;
    }
    tc.stimulus = {step};
    tc.checks = {check};
    runtime::finalize_test_case(tc);
    return tc;
}

} // namespace vega::bench
