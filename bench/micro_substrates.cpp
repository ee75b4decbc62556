/**
 * @file
 * Substrate microbenchmarks (google-benchmark): gate-level simulation
 * throughput, SP profiling, STA, SAT solving, BMC, ISS execution, and
 * failure-model instrumentation. These are not paper results; they
 * document what the reproduction's building blocks cost.
 */
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "cpu/batch_backend.h"
#include "formal/bmc.h"
#include "lift/failure_model.h"
#include "sat/solver.h"
#include "workloads/kernels.h"

namespace {

using namespace vega;

HwModule &
alu()
{
    static HwModule m = rtl::make_alu32();
    return m;
}

HwModule &
fpu()
{
    static HwModule m = rtl::make_fpu32();
    return m;
}

void
BM_SimAluCycle(benchmark::State &state)
{
    BatchSimulator sim(alu().netlist);
    sim.set_bus_all("a", BitVec(32, 0x12345678));
    sim.set_bus_all("b", BitVec(32, 0x9abcdef0));
    sim.set_bus_all("op", BitVec(4, 0));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations() * alu().netlist.num_cells());
}
BENCHMARK(BM_SimAluCycle);

void
BM_SimFpuCycle(benchmark::State &state)
{
    BatchSimulator sim(fpu().netlist);
    sim.set_bus_all("a", BitVec(32, 0x3f800000));
    sim.set_bus_all("b", BitVec(32, 0x40000000));
    sim.set_bus_all("op", BitVec(3, 0));
    sim.set_bus_all("valid", BitVec(1, 1));
    sim.set_bus_all("clear", BitVec(1, 0));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations() * fpu().netlist.num_cells());
}
BENCHMARK(BM_SimFpuCycle);

void
BM_StaAlu(benchmark::State &state)
{
    SpProfile neutral(alu().netlist.num_cells());
    auto timing = sta::compute_aged_timing(alu(), neutral,
                                           bench::timing_library(), 10.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(sta::run_sta(alu(), timing, 1000));
}
BENCHMARK(BM_StaAlu);

void
BM_AgedTimingFpu(benchmark::State &state)
{
    SpProfile neutral(fpu().netlist.num_cells());
    for (auto _ : state)
        benchmark::DoNotOptimize(sta::compute_aged_timing(
            fpu(), neutral, bench::timing_library(), 10.0));
}
BENCHMARK(BM_AgedTimingFpu);

void
BM_SatPigeonhole(benchmark::State &state)
{
    for (auto _ : state) {
        sat::Solver s;
        const int P = 7, H = 6;
        std::vector<std::vector<sat::Var>> x(P, std::vector<sat::Var>(H));
        for (int p = 0; p < P; ++p)
            for (int h = 0; h < H; ++h)
                x[p][h] = s.new_var();
        for (int p = 0; p < P; ++p) {
            std::vector<sat::Lit> clause;
            for (int h = 0; h < H; ++h)
                clause.emplace_back(x[p][h], false);
            s.add_clause(clause);
        }
        for (int h = 0; h < H; ++h)
            for (int p1 = 0; p1 < P; ++p1)
                for (int p2 = p1 + 1; p2 < P; ++p2)
                    s.add_clause(sat::Lit(x[p1][h], true),
                                 sat::Lit(x[p2][h], true));
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SatPigeonhole);

void
BM_BmcAluShadowCover(benchmark::State &state)
{
    auto dffs = alu().netlist.dffs();
    lift::FailureModelSpec spec;
    spec.launch = dffs[0];
    spec.capture = dffs.back();
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    for (auto _ : state) {
        auto shadow =
            lift::build_shadow_instrumentation(alu().netlist, spec);
        formal::BmcOptions opts;
        opts.max_frames = 4;
        opts.state_equalities = shadow.state_pairs;
        benchmark::DoNotOptimize(formal::check_cover(
            shadow.netlist, shadow.mismatch, opts));
    }
}
BENCHMARK(BM_BmcAluShadowCover);

void
BM_IssMinver(benchmark::State &state)
{
    const auto &kernel = workloads::embench_suite()[0];
    for (auto _ : state) {
        cpu::Iss iss(kernel.program);
        benchmark::DoNotOptimize(iss.run());
        state.counters["cycles"] = double(iss.cycles());
    }
}
BENCHMARK(BM_IssMinver);

void
BM_BatchNetlistEngineAluRound(benchmark::State &state)
{
    // One wave round with every lane issuing an ALU op: the real edge
    // plus the next-state peek that reads the results.
    constexpr int kLanes = cpu::BatchNetlistEngine::kLanes;
    auto tape = std::make_shared<const EvalTape>(alu().netlist);
    cpu::BatchNetlistEngine eng(ModuleKind::Alu32, tape);
    for (auto _ : state) {
        for (int lane = 0; lane < kLanes; ++lane)
            eng.post_op(lane, 0, eng.result(lane).value + uint32_t(lane), 3);
        eng.commit_round();
        benchmark::DoNotOptimize(eng.result(kLanes - 1));
    }
    state.counters["lane_ops"] = benchmark::Counter(
        double(state.iterations()) * kLanes, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchNetlistEngineAluRound);

void
BM_FailingNetlistBuildFpu(benchmark::State &state)
{
    auto dffs = fpu().netlist.dffs();
    lift::FailureModelSpec spec;
    spec.launch = dffs[2];
    spec.capture = dffs.back();
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::Zero;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            lift::build_failing_netlist(fpu().netlist, spec));
}
BENCHMARK(BM_FailingNetlistBuildFpu);

} // namespace

BENCHMARK_MAIN();
