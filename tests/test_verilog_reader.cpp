#include "verilog_reader.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "equiv.h"
#include "lift/failure_model.h"
#include "netlist/verilog_writer.h"
#include "rtl/adder2.h"
#include "rtl/alu32.h"
#include "sim/batch_sim.h"

namespace vega {
namespace {

TEST(VerilogReader, RoundTripsTheExampleAdder)
{
    HwModule m = rtl::make_adder2();
    Netlist parsed = read_verilog(to_verilog(m.netlist));
    EXPECT_EQ(parsed.name(), "adder2");
    EXPECT_EQ(parsed.dffs().size(), m.netlist.dffs().size());
    EXPECT_EQ(parsed.input_bus_names(), m.netlist.input_bus_names());
    EXPECT_EQ(parsed.output_bus_names(), m.netlist.output_bus_names());

    // Behavioural agreement on exhaustive pipelined stimulus.
    BatchSimulator orig(m.netlist), back(parsed);
    for (unsigned v = 0; v < 64; ++v) {
        BitVec a(2, v & 3), b(2, (v >> 2) & 3);
        orig.set_bus_all("a", a);
        orig.set_bus_all("b", b);
        back.set_bus_all("a", a);
        back.set_bus_all("b", b);
        EXPECT_EQ(back.bus_value("o", 0).to_u64(),
                  orig.bus_value("o", 0).to_u64())
            << v;
        orig.step();
        back.step();
    }
}

TEST(VerilogReader, RoundTripIsFormallyEquivalent)
{
    HwModule m = rtl::make_adder2();
    Netlist parsed = read_verilog(to_verilog(m.netlist));
    formal::BmcOptions opts;
    opts.max_frames = 5;
    formal::EquivResult r =
        formal::check_equivalence(m.netlist, parsed, opts);
    EXPECT_EQ(r.status, formal::EquivStatus::Equivalent);
}

TEST(VerilogReader, RoundTripsTheAlu)
{
    HwModule m = rtl::make_alu32();
    Netlist parsed = read_verilog(to_verilog(m.netlist));

    BatchSimulator orig(m.netlist), back(parsed);
    Rng rng(31);
    for (int t = 0; t < 50; ++t) {
        BitVec a(32, rng.next()), b(32, rng.next());
        BitVec op(4, rng.below(10));
        orig.set_bus_all("a", a);
        orig.set_bus_all("b", b);
        orig.set_bus_all("op", op);
        back.set_bus_all("a", a);
        back.set_bus_all("b", b);
        back.set_bus_all("op", op);
        EXPECT_EQ(back.bus_value("r", 0).to_u64(),
                  orig.bus_value("r", 0).to_u64());
        orig.step();
        back.step();
    }
}

TEST(VerilogReader, RoundTripsFailingNetlistsWithInit)
{
    // Failing netlists carry the failure-model cells (MUX, history DFF
    // with a nonzero INIT when the launch flop resets to 1).
    HwModule m = rtl::make_adder2();
    CellId launch = kInvalidId, capture = kInvalidId;
    for (CellId c = 0; c < m.netlist.num_cells(); ++c) {
        if (m.netlist.cell(c).name == "$4")
            launch = c;
        if (m.netlist.cell(c).name == "$10")
            capture = c;
    }
    lift::FailureModelSpec spec;
    spec.launch = launch;
    spec.capture = capture;
    spec.is_setup = true;
    spec.constant = lift::FaultConstant::One;
    lift::FailingNetlist failing =
        lift::build_failing_netlist(m.netlist, spec);

    Netlist parsed = read_verilog(to_verilog(failing.netlist));
    BatchSimulator orig(failing.netlist), back(parsed);
    Rng rng(77);
    for (int t = 0; t < 100; ++t) {
        BitVec a(2, rng.below(4)), b(2, rng.below(4));
        orig.set_bus_all("a", a);
        orig.set_bus_all("b", b);
        back.set_bus_all("a", a);
        back.set_bus_all("b", b);
        EXPECT_EQ(back.bus_value("o", 0).to_u64(),
                  orig.bus_value("o", 0).to_u64())
            << t;
        orig.step();
        back.step();
    }
}

TEST(VerilogReader, RejectsMalformedInput)
{
    EXPECT_THROW(read_verilog("garbage"), std::runtime_error);
    EXPECT_THROW(read_verilog("module m (clk); input clk; bogus;"),
                 std::runtime_error);
    EXPECT_THROW(read_verilog("module m (clk, o); input clk; output "
                              "[0:0] o; endmodule"),
                 std::runtime_error); // output bit never assigned
}

TEST(VerilogReader, StructuredErrorsCarryLineContext)
{
    Expected<Netlist> r = try_read_verilog("garbage");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().context.find("line 1"), std::string::npos)
        << r.error().context;

    // Second line: the error must name it.
    Expected<Netlist> r2 = try_read_verilog(
        "module m (clk, o);\n  frobnicate;\nendmodule\n");
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.error().code, ErrorCode::ParseError);
    EXPECT_NE(r2.error().context.find("line 2"), std::string::npos)
        << r2.error().context;
}

TEST(VerilogReader, TruncatedInputTerminatesWithParseError)
{
    // EOF inside the port list, a gate pin list, and a DFF pin list —
    // each once looped forever instead of failing.
    for (const char *text :
         {"module m (clk, a",
          "module m (clk, o); input clk; output [0:0] o; wire \\x ; "
          "not \\g (\\x , ",
          "module m (clk, o); input clk; output [0:0] o; wire \\q ; "
          "VEGA_DFF \\ff (.clk(clk), .d("}) {
        Expected<Netlist> r = try_read_verilog(text);
        ASSERT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.error().code, ErrorCode::ParseError);
        EXPECT_NE(r.error().context.find("end of input"),
                  std::string::npos)
            << r.error().context;
    }
}

TEST(VerilogReader, MultiplyDrivenNetIsStructuredError)
{
    Expected<Netlist> r = try_read_verilog(
        "module m (clk, a, o);\n"
        "  input clk;\n  input [0:0] a;\n  output [0:0] o;\n"
        "  wire \\x ;\n"
        "  assign \\x = a[0];\n"
        "  assign \\x = a[0];\n"
        "  assign o[0] = \\x ;\n"
        "endmodule\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().context.find("driven more than once"),
              std::string::npos)
        << r.error().context;
}

TEST(VerilogReader, GarbageAndOversizedBusRangesRejected)
{
    const char *tmpl = "module m (clk, a, o);\n  input clk;\n"
                       "  input %s a;\n  output [0:0] o;\n"
                       "  assign o[0] = a[0];\nendmodule\n";
    for (const char *range : {"[zz:0]", "[3:1]", "[:0]", "[99999:0]"}) {
        char buf[256];
        std::snprintf(buf, sizeof buf, tmpl, range);
        Expected<Netlist> r = try_read_verilog(buf);
        ASSERT_FALSE(r.ok()) << range;
        EXPECT_EQ(r.error().code, ErrorCode::ParseError) << range;
    }
}

TEST(VerilogReader, CombinationalCycleIsValidationError)
{
    Expected<Netlist> r = try_read_verilog(
        "module m (clk, o);\n"
        "  input clk;\n  output [0:0] o;\n"
        "  wire \\x ;\n  wire \\y ;\n"
        "  not \\g1 (\\x , \\y );\n"
        "  not \\g2 (\\y , \\x );\n"
        "  assign o[0] = \\x ;\n"
        "endmodule\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ValidationError);
    EXPECT_NE(r.error().context.find("combinational cycle"),
              std::string::npos)
        << r.error().context;
}

TEST(VerilogReader, DuplicatePortDeclarationRejected)
{
    Expected<Netlist> r = try_read_verilog(
        "module m (clk, a, o);\n"
        "  input clk;\n  input [0:0] a;\n  input [0:0] a;\n"
        "  output [0:0] o;\n"
        "  assign o[0] = a[0];\nendmodule\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().context.find("declared twice"),
              std::string::npos)
        << r.error().context;
}

TEST(VerilogReader, DffInitValuesSurvive)
{
    Netlist nl("init");
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    nl.add_cell(CellType::Not, "inv", {q}, d);
    nl.add_dff("ff", d, q, /*init=*/true);
    nl.add_output_bus("o", {q});

    Netlist parsed = read_verilog(to_verilog(nl));
    BatchSimulator sim(parsed);
    EXPECT_EQ(sim.bus_value("o", 0).to_u64(), 1u); // init = 1
    sim.step();
    EXPECT_EQ(sim.bus_value("o", 0).to_u64(), 0u); // toggles
}

} // namespace
} // namespace vega
