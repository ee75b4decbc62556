/**
 * @file
 * Quickstart: the paper's §3 walkthrough on the Listing-1 adder.
 *
 * Builds the 2-bit pipelined adder (Figure 3), profiles signal
 * probability (Table 1), runs aging-aware STA to find the violating
 * paths of §3.2.2, instruments the Figure 5/7 failure model + shadow
 * replica, has the formal engine produce the Table-2-style cover trace,
 * and exports the failing netlist as Verilog.
 */
#include <cstdio>

#include "common/rng.h"
#include "formal/bmc.h"
#include "lift/failure_model.h"
#include "netlist/verilog_writer.h"
#include "rtl/adder2.h"
#include "sim/sp_profiler.h"
#include "sta/sta.h"

using namespace vega;

int
main()
{
    std::printf("=== Vega quickstart: the Listing-1 2-bit adder ===\n\n");

    // ---- The module (Figure 3) -----------------------------------------
    HwModule adder = rtl::make_adder2();
    std::printf("netlist '%s': %zu cells, clock %0.f ps\n",
                adder.netlist.name().c_str(), adder.netlist.num_cells(),
                adder.netlist.clock_period_ps());

    // ---- Phase 1a: signal probability simulation (Table 1) -------------
    BatchSimulator sim(adder.netlist);
    Rng rng(42);
    SpProfile profile = profile_signal_probability(
        sim, 2000, [&](BatchSimulator &s, uint64_t) {
            // A workload that rarely drives b's high bit: cell $7 parks.
            s.set_bus_all("a", BitVec(2, rng.below(4)));
            s.set_bus_all("b", BitVec(2, rng.chance(0.9) ? rng.below(2)
                                                         : rng.below(4)));
        });
    std::printf("\nSP profile (cf. paper Table 1):\n");
    for (CellId c = 0; c < adder.netlist.num_cells(); ++c)
        std::printf("  %-4s %-5s SP=%.2f\n",
                    adder.netlist.cell(c).name.c_str(),
                    cell_type_name(adder.netlist.cell(c).type),
                    profile.sp(c));

    // ---- Phase 1b: aging-aware STA --------------------------------------
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});
    sta::calibrate_timing_scale(adder, lib, 0.99);
    sta::AgedTiming aged = sta::compute_aged_timing(adder, profile, lib,
                                                    10.0);
    sta::StaResult sta = sta::run_sta(adder, aged);
    std::printf("\naged STA (10 years): setup WNS %.1f ps, %zu violating "
                "paths, %zu unique pairs\n",
                sta.wns_setup, sta.num_setup_violations, sta.pairs.size());
    if (sta.pairs.empty()) {
        std::printf("no violations — nothing to lift\n");
        return 0;
    }
    const sta::EndpointPair &pair = sta.pairs.front();
    std::printf("worst pair: %s -> %s (%s)\n",
                adder.netlist.cell(pair.launch).name.c_str(),
                adder.netlist.cell(pair.capture).name.c_str(),
                pair.is_setup ? "setup" : "hold");

    // ---- Phase 2: failure model + shadow replica + cover trace ---------
    lift::FailureModelSpec spec;
    spec.launch = pair.launch;
    spec.capture = pair.capture;
    spec.is_setup = pair.is_setup;
    spec.constant = lift::FaultConstant::One;
    lift::ShadowInstrumentation shadow =
        lift::build_shadow_instrumentation(adder.netlist, spec);

    formal::BmcOptions opts;
    opts.max_frames = 6;
    opts.state_equalities = shadow.state_pairs;
    formal::BmcResult bmc =
        formal::check_cover(shadow.netlist, shadow.mismatch, opts);
    std::printf("\ncover property 'o != o_s': %s",
                formal::bmc_status_name(bmc.status));
    if (bmc.status == formal::BmcStatus::Covered) {
        std::printf(" in %d cycles (cf. paper Table 2):\n\n%s", bmc.frames,
                    bmc.trace.to_table().c_str());
    }
    std::printf("\n");

    // ---- Byproduct: the circuit-level failure model as Verilog ---------
    lift::FailingNetlist failing =
        lift::build_failing_netlist(adder.netlist, spec);
    std::string verilog = to_verilog(failing.netlist);
    std::printf("failing netlist exports as %zu bytes of synthesizable "
                "Verilog (first line:\n  %s)\n",
                verilog.size(),
                verilog.substr(0, verilog.find('\n')).c_str());
    return 0;
}
