/**
 * @file
 * Structural Verilog import for the tests.
 *
 * Parses the gate-level subset emitted by netlist/verilog_writer.h —
 * module header, port declarations, escaped-identifier wires,
 * constant/mux assigns, primitive gate instances, and VEGA_DFF
 * instances — so the tests can read an exported failing netlist
 * (§3.3.2) back and prove it equivalent to the original: the
 * round-trip oracle for to_verilog.
 *
 * The parser is hardened: truncated, garbage, or structurally
 * inconsistent input (multiply-driven nets, oversized buses,
 * combinational cycles) surfaces as an Expected error with line
 * context — never an uncaught exception or an abort.
 */
#pragma once

#include <string>

#include "common/error.h"
#include "netlist/netlist.h"

namespace vega {

/**
 * Parse the first module of @p text into a Netlist. Every failure —
 * lexical, syntactic, or structural — returns a ParseError /
 * ValidationError with a line number; nothing escapes as an exception.
 */
Expected<Netlist> try_read_verilog(const std::string &text);

/**
 * Throwing wrapper around try_read_verilog: raises std::runtime_error
 * with the rendered error. Prefer try_read_verilog on untrusted input.
 */
Netlist read_verilog(const std::string &text);

} // namespace vega
