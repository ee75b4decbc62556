#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "netlist/builder.h"
#include "netlist/verilog_writer.h"

namespace vega {
namespace {

TEST(CellLibrary, PinCounts)
{
    EXPECT_EQ(cell_num_inputs(CellType::Const0), 0);
    EXPECT_EQ(cell_num_inputs(CellType::Not), 1);
    EXPECT_EQ(cell_num_inputs(CellType::And2), 2);
    EXPECT_EQ(cell_num_inputs(CellType::Mux2), 3);
    EXPECT_EQ(cell_num_inputs(CellType::Dff), 1);
}

TEST(CellLibrary, EvalTruthTables)
{
    EXPECT_FALSE(eval_cell(CellType::Const0, false));
    EXPECT_TRUE(eval_cell(CellType::Const1, false));
    for (bool a : {false, true}) {
        EXPECT_EQ(eval_cell(CellType::Buf, a), a);
        EXPECT_EQ(eval_cell(CellType::Not, a), !a);
        for (bool b : {false, true}) {
            EXPECT_EQ(eval_cell(CellType::And2, a, b), a && b);
            EXPECT_EQ(eval_cell(CellType::Or2, a, b), a || b);
            EXPECT_EQ(eval_cell(CellType::Xor2, a, b), a != b);
            EXPECT_EQ(eval_cell(CellType::Nand2, a, b), !(a && b));
            EXPECT_EQ(eval_cell(CellType::Nor2, a, b), !(a || b));
            EXPECT_EQ(eval_cell(CellType::Xnor2, a, b), a == b);
            for (bool s : {false, true})
                EXPECT_EQ(eval_cell(CellType::Mux2, a, b, s), s ? b : a);
        }
    }
}

TEST(CellLibrary, TimingIsPositiveAndOrdered)
{
    for (int t = int(CellType::Buf); t <= int(CellType::Dff); ++t) {
        const CellTiming &ct = cell_timing(CellType(t));
        EXPECT_GT(ct.delay_max, 0.0) << t;
        EXPECT_GT(ct.delay_min, 0.0) << t;
        EXPECT_GE(ct.delay_max, ct.delay_min) << t;
    }
    EXPECT_GT(cell_timing(CellType::Dff).setup, 0.0);
    EXPECT_GT(cell_timing(CellType::Dff).hold, 0.0);
}

TEST(Netlist, BuildAndValidate)
{
    Netlist nl("t");
    auto a = nl.add_input_bus("a", 2);
    NetId y = nl.new_net("y");
    nl.add_cell(CellType::And2, "g0", {a[0], a[1]}, y);
    nl.add_output_bus("y", {y});
    nl.validate();
    EXPECT_EQ(nl.num_cells(), 1u);
    EXPECT_EQ(nl.primary_inputs().size(), 2u);
    EXPECT_EQ(nl.primary_outputs().size(), 1u);
}

TEST(Netlist, TopoOrderRespectsDependencies)
{
    Netlist nl("t");
    auto a = nl.add_input_bus("a", 1);
    NetId n1 = nl.new_net("n1");
    NetId n2 = nl.new_net("n2");
    // Add in reverse dependency order on purpose.
    NetId n3 = nl.new_net("n3");
    CellId c3 = nl.add_cell(CellType::Not, "g3", {n2}, n3);
    CellId c2 = nl.add_cell(CellType::Not, "g2", {n1}, n2);
    CellId c1 = nl.add_cell(CellType::Not, "g1", {a[0]}, n1);
    nl.add_output_bus("y", {n3});

    const auto &topo = nl.topo_order();
    auto pos = [&](CellId c) {
        return std::find(topo.begin(), topo.end(), c) - topo.begin();
    };
    EXPECT_LT(pos(c1), pos(c2));
    EXPECT_LT(pos(c2), pos(c3));
}

TEST(Netlist, CombinationalCycleDetected)
{
    Netlist nl("t");
    NetId n1 = nl.new_net("n1");
    NetId n2 = nl.new_net("n2");
    nl.add_cell(CellType::Not, "g1", {n2}, n1);
    nl.add_cell(CellType::Not, "g2", {n1}, n2);
    EXPECT_DEATH(nl.topo_order(), "combinational cycle");
}

TEST(Netlist, DffBreaksCycle)
{
    Netlist nl("t");
    NetId q = nl.new_net("q");
    NetId d = nl.new_net("d");
    nl.add_cell(CellType::Not, "inv", {q}, d);
    nl.add_dff("ff", d, q, true);
    nl.add_output_bus("q", {q});
    nl.validate(); // no cycle through the DFF
    EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Netlist, MultipleDriversRejected)
{
    Netlist nl("t");
    auto a = nl.add_input_bus("a", 1);
    NetId y = nl.new_net("y");
    nl.add_cell(CellType::Buf, "b0", {a[0]}, y);
    EXPECT_DEATH(nl.add_cell(CellType::Buf, "b1", {a[0]}, y),
                 "multiply driven");
}

TEST(Netlist, FanoutCone)
{
    // a -> g1 -> g2 -> ff -> g3 ; cone of g1 crosses the DFF.
    Netlist nl("t");
    auto a = nl.add_input_bus("a", 1);
    NetId n1 = nl.new_net("n1");
    CellId g1 = nl.add_cell(CellType::Not, "g1", {a[0]}, n1);
    NetId n2 = nl.new_net("n2");
    CellId g2 = nl.add_cell(CellType::Buf, "g2", {n1}, n2);
    NetId q = nl.new_net("q");
    CellId ff = nl.add_dff("ff", n2, q);
    NetId n3 = nl.new_net("n3");
    CellId g3 = nl.add_cell(CellType::Not, "g3", {q}, n3);
    nl.add_output_bus("y", {n3});

    auto cone = nl.fanout_cone(g1);
    EXPECT_EQ(cone.size(), 4u);
    for (CellId c : {g1, g2, ff, g3})
        EXPECT_NE(std::find(cone.begin(), cone.end(), c), cone.end());
}

TEST(Netlist, ReadersListEveryPinInCellOrder)
{
    // g1 reads `a` on both pins, so it is listed twice; the DFF reads
    // the combinational net n0, and g2 reads the DFF's Q.
    Netlist nl("t");
    auto in = nl.add_input_bus("in", 2);
    NetId a = in[0], b = in[1];
    NetId n0 = nl.new_net("n0");
    CellId g0 = nl.add_cell(CellType::Xor2, "g0", {a, b}, n0);
    NetId n1 = nl.new_net("n1");
    CellId g1 = nl.add_cell(CellType::And2, "g1", {a, a}, n1);
    NetId q = nl.new_net("q");
    CellId ff = nl.add_dff("ff", n0, q);
    NetId n2 = nl.new_net("n2");
    CellId g2 = nl.add_cell(CellType::Or2, "g2", {n1, q}, n2);
    nl.add_output_bus("y", {n2});
    nl.validate();

    auto list = [&](NetId n) {
        return std::vector<CellId>(nl.readers(n).begin(),
                                   nl.readers(n).end());
    };
    EXPECT_EQ(list(a), (std::vector<CellId>{g0, g1, g1}));
    EXPECT_EQ(list(b), (std::vector<CellId>{g0}));
    EXPECT_EQ(list(n0), (std::vector<CellId>{ff}));
    EXPECT_EQ(list(n1), (std::vector<CellId>{g2}));
    EXPECT_EQ(list(q), (std::vector<CellId>{g2}));
    EXPECT_TRUE(list(n2).empty());
    EXPECT_EQ(nl.topo_order(), (std::vector<CellId>{g0, g1, g2}));
}

TEST(Netlist, TypeHistogram)
{
    Netlist nl("t");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 2);
    NetId x = b.and_(a[0], a[1]);
    NetId y = b.and_(x, a[0]);
    NetId q = b.dff(y);
    nl.add_output_bus("q", {q});
    auto h = nl.type_histogram();
    EXPECT_EQ(h[CellType::And2], 2u);
    EXPECT_EQ(h[CellType::Dff], 1u);
}

TEST(VerilogWriter, EmitsModuleAndCells)
{
    Netlist nl("mymod");
    Builder b(nl);
    auto a = nl.add_input_bus("a", 2);
    NetId y = b.xor_(a[0], a[1]);
    NetId q = b.dff(y, true);
    nl.add_output_bus("o", {q});

    std::string v = to_verilog(nl);
    EXPECT_NE(v.find("module mymod (clk, a, o);"), std::string::npos);
    EXPECT_NE(v.find("xor "), std::string::npos);
    EXPECT_NE(v.find("VEGA_DFF"), std::string::npos);
    EXPECT_NE(v.find(".INIT(1'b1)"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
}

} // namespace
} // namespace vega
