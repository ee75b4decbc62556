/**
 * @file
 * VCD (Value Change Dump) export.
 *
 * The paper's trace-generation step "captures and saves [the trace] as
 * a waveform" (§3.3.3); this module renders our Waveforms — BMC cover
 * traces, fuzzing episodes, or live simulation captures — in the
 * standard IEEE 1364 VCD format that GTKWave and every EDA waveform
 * viewer read.
 */
#pragma once

#include <ostream>
#include <string>

#include "sim/batch_sim.h"
#include "sim/waveform.h"

namespace vega {

/**
 * Write @p w as a VCD file. Every signal becomes a vector variable
 * under one module scope; cycle k maps to time k (timescale 1 ns).
 */
void write_vcd(const Waveform &w, std::ostream &os,
               const std::string &module_name = "vega");

/** Convenience: render to a string. */
std::string to_vcd(const Waveform &w,
                   const std::string &module_name = "vega");

/**
 * Capture a live simulation into a Waveform: records every port bus of
 * the netlist, read in lane 0, each cycle while @p drive supplies
 * stimulus to every lane.
 */
template <typename DriveFn>
Waveform
capture_waveform(BatchSimulator &sim, uint64_t cycles, DriveFn drive)
{
    Waveform w;
    const Netlist &nl = sim.netlist();
    for (uint64_t t = 0; t < cycles; ++t) {
        drive(sim, t);
        sim.eval();
        for (const auto &bus : nl.input_bus_names())
            w.record(bus, sim.bus_value(bus, 0));
        for (const auto &bus : nl.output_bus_names())
            w.record(bus, sim.bus_value(bus, 0));
        sim.step();
    }
    return w;
}

} // namespace vega
