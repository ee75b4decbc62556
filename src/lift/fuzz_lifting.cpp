#include "lift/fuzz_lifting.h"

#include <bit>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/test_case.h"
#include "sim/batch_sim.h"

namespace vega::lift {

namespace {

/** Cycles per episode (kept short so traces stay convertible). */
constexpr int kEpisodeLen = 5;
/** Bias toward special operand values (0, ±inf, NaN, all-ones). */
constexpr double kSpecialBias = 0.3;

uint32_t
random_operand(Rng &rng)
{
    if (rng.chance(kSpecialBias)) {
        static const uint32_t kSpecials[] = {
            0x00000000, 0x80000000, 0x3f800000, 0xbf800000, 0x7f800000,
            0xff800000, 0x7fc00000, 0x7f800001, 0xffffffff, 0x00000001,
            0x7f7fffff, 0x00800000,
        };
        return kSpecials[rng.below(sizeof(kSpecials) /
                                   sizeof(kSpecials[0]))];
    }
    return uint32_t(rng.next());
}

} // namespace

FuzzResult
fuzz_cover(const ShadowInstrumentation &shadow, ModuleKind kind,
           const FuzzConfig &config)
{
    const Netlist &nl = shadow.netlist;
    BatchSimulator sim(nl);
    Rng rng(config.seed);
    FuzzResult result;
    constexpr int kLanes = BatchSimulator::kLanes;
    // Every lane carries a fuzzing episode on every step.
    static obs::Counter &lane_cycles = obs::counter("sim.lane_cycles");

    // Record exactly what BMC records: every port bus, inputs first.
    std::vector<std::string> buses;
    for (const auto &bus : nl.input_bus_names())
        buses.push_back(bus);
    for (const auto &bus : nl.output_bus_names())
        buses.push_back(bus);

    const bool is_fpu = kind == ModuleKind::Fpu32;
    const uint32_t num_ops = runtime::fu_num_ops(kind);
    const size_t op_width = nl.bus("op").size();
    size_t batches = (config.max_episodes + kLanes - 1) / kLanes;
    for (size_t batch = 0; batch < batches; ++batch) {
        sim.reset();
        // Per-cycle, per-bus lane planes, kept so the covering lane's
        // waveform can be extracted once the mismatch plane fires.
        std::vector<std::vector<std::vector<uint64_t>>> recorded;
        for (int t = 0; t < kEpisodeLen; ++t) {
            for (int lane = 0; lane < kLanes; ++lane) {
                uint32_t a = random_operand(rng);
                uint32_t b = random_operand(rng);
                uint32_t op = uint32_t(rng.below(num_ops));
                sim.set_bus_lane("a", lane, BitVec(32, a));
                sim.set_bus_lane("b", lane, BitVec(32, b));
                sim.set_bus_lane("op", lane, BitVec(op_width, op));
                if (is_fpu) {
                    // Same restrictions as the formal path: no
                    // mid-trace clears; mostly-valid issue.
                    sim.set_bus_lane("valid", lane,
                                     BitVec(1, rng.chance(0.85) ? 1 : 0));
                }
            }
            if (is_fpu)
                sim.set_bus_all("clear", BitVec(1, 0));
            recorded.emplace_back();
            recorded.back().reserve(buses.size());
            for (const std::string &bus : buses)
                recorded.back().push_back(sim.bus_planes(bus));
            result.cycles += kLanes;
            uint64_t hits = sim.value(shadow.mismatch);
            if (hits) {
                int lane = std::countr_zero(hits);
                Waveform w;
                for (int tc = 0; tc <= t; ++tc) {
                    for (size_t bi = 0; bi < buses.size(); ++bi) {
                        const std::vector<uint64_t> &planes =
                            recorded[tc][bi];
                        BitVec v(planes.size());
                        for (size_t i = 0; i < planes.size(); ++i)
                            v.set(i, (planes[i] >> lane) & 1);
                        w.record(buses[bi], v);
                    }
                }
                result.found = true;
                result.trace = std::move(w);
                result.episodes = batch * kLanes + size_t(lane) + 1;
                return result;
            }
            sim.step();
            lane_cycles.add(kLanes);
        }
    }
    result.episodes = config.max_episodes;
    return result;
}

} // namespace vega::lift
