/**
 * @file
 * Simulation-core throughput: what the EvalTape interpreter buys.
 *
 * Two engines run the same stimulus on the real ALU32 and FPU32
 * netlists:
 *
 *  - "legacy": a verbatim replica of the pre-tape simulator (per-eval
 *    topo_order() walk over AoS Cell structs), the refactor baseline;
 *  - "batch":  the 64-lane BatchSimulator, the library's only tape
 *    interpreter. It is scored in steps/sec (what a single-stream
 *    consumer, which reads lane 0, gets) and in lane-cycles/sec
 *    (steps/sec x 64, what a 64-episode wave gets).
 *
 * Before timing, batch lane 0 is spot-checked in lockstep against the
 * legacy engine, so a speedup can never come from computing the wrong
 * values. Results land in BENCH_sim.json in the working directory;
 * `--smoke` shrinks the time budget for CI (numbers get noisy, schema
 * and lockstep check do not).
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "sim/batch_sim.h"

using namespace vega;

namespace {

/**
 * The pre-tape simulator, kept alive here as the bench baseline:
 * this is the exact eval/step loop (including the dirty-flag
 * short-circuit) that shipped before the tape existed.
 */
struct LegacySim
{
    const Netlist &nl;
    std::vector<uint8_t> values;
    bool dirty = true;

    explicit LegacySim(const Netlist &n) : nl(n), values(n.num_nets(), 0)
    {
        for (CellId c : nl.dffs())
            values[nl.cell(c).out] = nl.cell(c).init ? 1 : 0;
        eval();
    }

    void set_input(NetId net, bool v)
    {
        values[net] = v ? 1 : 0;
        dirty = true;
    }

    void eval()
    {
        if (!dirty)
            return;
        for (CellId c : nl.topo_order()) {
            const Cell &cell = nl.cell(c);
            bool a = cell.num_inputs() > 0 ? values[cell.in[0]] : false;
            bool b = cell.num_inputs() > 1 ? values[cell.in[1]] : false;
            bool s = cell.num_inputs() > 2 ? values[cell.in[2]] : false;
            values[cell.out] = eval_cell(cell.type, a, b, s) ? 1 : 0;
        }
        dirty = false;
    }

    void step()
    {
        eval();
        auto dffs = nl.dffs();
        std::vector<uint8_t> next;
        next.reserve(dffs.size());
        for (CellId c : dffs)
            next.push_back(values[nl.cell(c).in[0]]);
        for (size_t i = 0; i < dffs.size(); ++i)
            values[nl.cell(dffs[i]).out] = next[i];
        dirty = true;
        eval();
    }
};

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/**
 * Steps/sec of @p step_fn: warm up, then run in chunks until the time
 * budget is spent. @p drive_fn flips an input each chunk so the
 * dirty-flag path never lets an engine coast on a settled state.
 */
template <typename StepFn, typename DriveFn>
double
measure_steps_per_sec(StepFn &&step_fn, DriveFn &&drive_fn,
                      double budget_sec)
{
    const int kChunk = 16;
    for (int i = 0; i < kChunk; ++i)
        step_fn();
    uint64_t steps = 0;
    bool flip = false;
    double start = now_seconds(), elapsed = 0.0;
    do {
        drive_fn(flip);
        flip = !flip;
        for (int i = 0; i < kChunk; ++i)
            step_fn();
        steps += kChunk;
        elapsed = now_seconds() - start;
    } while (elapsed < budget_sec);
    return steps / elapsed;
}

/**
 * Drive both engines with identical random stimulus for a few cycles
 * and demand bit-identical nets in batch lane 0. Dies loudly on
 * mismatch: a throughput number for a wrong simulator is worse than no
 * number.
 */
bool
lockstep_check(const Netlist &nl, LegacySim &legacy, BatchSimulator &batch,
               uint64_t seed)
{
    Rng stim(seed);
    auto inputs = nl.primary_inputs();
    for (int t = 0; t < 8; ++t) {
        for (NetId in : inputs) {
            uint64_t plane = stim.next();
            legacy.set_input(in, plane & 1);
            batch.set_input(in, plane);
        }
        legacy.eval();
        for (NetId n = 0; n < nl.num_nets(); ++n) {
            bool l = legacy.values[n];
            bool b0 = batch.value_lane(n, 0);
            if (l != b0) {
                std::printf("LOCKSTEP MISMATCH net %s cycle %d: "
                            "legacy=%d batch[0]=%d\n",
                            nl.net(n).name.c_str(), t, int(l), int(b0));
                return false;
            }
        }
        legacy.step();
        batch.step();
    }
    return true;
}

struct ModuleResult
{
    std::string name;
    size_t cells = 0, nets = 0, instrs = 0;
    double legacy_cps = 0, batch_steps = 0;

    double batch_lane_cps() const
    {
        return BatchSimulator::kLanes * batch_steps;
    }
    double step_speedup() const { return batch_steps / legacy_cps; }
    double batch_speedup() const { return batch_lane_cps() / legacy_cps; }
};

ModuleResult
bench_module(const std::string &name, const Netlist &nl,
             double budget_sec)
{
    ModuleResult r;
    r.name = name;
    r.cells = nl.num_cells();
    r.nets = nl.num_nets();

    LegacySim legacy(nl);
    BatchSimulator batch(nl);
    r.instrs = batch.tape().num_instrs();
    if (!lockstep_check(nl, legacy, batch, 0x5eed))
        std::exit(1);

    auto inputs = nl.primary_inputs();
    NetId flip_net = inputs.empty() ? kInvalidId : inputs.front();

    r.legacy_cps = measure_steps_per_sec(
        [&] { legacy.step(); },
        [&](bool f) {
            if (flip_net != kInvalidId)
                legacy.set_input(flip_net, f);
        },
        budget_sec);
    r.batch_steps = measure_steps_per_sec(
        [&] { batch.step(); },
        [&](bool f) {
            if (flip_net != kInvalidId)
                batch.set_input_all(flip_net, f);
        },
        budget_sec);

    std::printf("%-6s | %6zu cells | %6zu instrs | %11.0f | %11.0f "
                "(%5.2fx) | %12.0f (%6.2fx)\n",
                name.c_str(), r.cells, r.instrs, r.legacy_cps,
                r.batch_steps, r.step_speedup(), r.batch_lane_cps(),
                r.batch_speedup());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    // Long enough per engine that chunked timing converges; smoke mode
    // only proves the bench runs and the JSON is well-formed.
    const double budget = smoke ? 0.02 : 1.0;

    bench::banner(std::string("Simulation throughput: pre-tape legacy vs "
                              "64-lane batch") +
                  (smoke ? " [smoke]" : ""));
    std::printf("%-6s | %12s | %13s | %11s | %20s | %22s\n", "module",
                "size", "tape", "legacy c/s", "batch steps/s",
                "batch lane-c/s");

    HwModule alu = rtl::make_alu32();
    HwModule fpu = rtl::make_fpu32();
    std::vector<ModuleResult> results;
    results.push_back(bench_module("alu32", alu.netlist, budget));
    results.push_back(bench_module("fpu32", fpu.netlist, budget));

    std::string json = "{\"sim_throughput\":{";
    bench::kv_bool(json, "smoke", smoke);
    obs::kv(json, "lanes", uint64_t(BatchSimulator::kLanes));
    obs::json_key(json, "modules");
    json += '[';
    for (size_t i = 0; i < results.size(); ++i) {
        const ModuleResult &r = results[i];
        json += i ? ",{" : "{";
        obs::kv(json, "module", r.name);
        obs::kv(json, "cells", uint64_t(r.cells));
        obs::kv(json, "nets", uint64_t(r.nets));
        obs::kv(json, "tape_instrs", uint64_t(r.instrs));
        obs::kv(json, "legacy_cps", r.legacy_cps);
        obs::kv(json, "batch_steps_per_s", r.batch_steps);
        obs::kv(json, "batch_lane_cps", r.batch_lane_cps());
        obs::kv(json, "step_speedup", r.step_speedup());
        obs::kv(json, "batch_speedup", r.batch_speedup(), false);
        json += '}';
    }
    json += "]}}";
    bench::write_bench_json("sim", smoke, json);
    return 0;
}
