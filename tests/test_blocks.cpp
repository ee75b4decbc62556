#include "rtl/blocks.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/batch_sim.h"

namespace vega::rtl {
namespace {

/** Harness: builds a block under test and evaluates it on demand. */
class BlockFixture
{
  public:
    Netlist nl{"block"};
    Builder b{nl};

    Bus input(const std::string &name, size_t width)
    {
        return nl.add_input_bus(name, width);
    }

    void finish(const std::string &name, const Bus &out)
    {
        nl.add_output_bus(name, out);
        sim_ = std::make_unique<BatchSimulator>(nl);
    }

    uint64_t
    eval(std::initializer_list<std::pair<const char *, uint64_t>> ins,
         const std::string &out)
    {
        for (auto &[name, v] : ins)
            sim_->set_bus_all(name, BitVec(nl.bus(name).size(), v));
        return sim_->bus_value(out, 0).to_u64();
    }

  private:
    std::unique_ptr<BatchSimulator> sim_;
};

TEST(Blocks, RippleAddMatchesInteger)
{
    BlockFixture f;
    Bus a = f.input("a", 16), b = f.input("b", 16);
    AddResult r = ripple_add(f.b, a, b);
    Bus sum = r.sum;
    sum.push_back(r.carry);
    f.finish("s", sum);

    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        uint64_t va = rng.next() & 0xffff, vb = rng.next() & 0xffff;
        EXPECT_EQ(f.eval({{"a", va}, {"b", vb}}, "s"), va + vb);
    }
}

TEST(Blocks, RippleSubAndBorrow)
{
    BlockFixture f;
    Bus a = f.input("a", 12), b = f.input("b", 12);
    AddResult r = ripple_sub(f.b, a, b);
    Bus out = r.sum;
    out.push_back(r.carry);
    f.finish("s", out);

    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        uint64_t va = rng.next() & 0xfff, vb = rng.next() & 0xfff;
        uint64_t got = f.eval({{"a", va}, {"b", vb}}, "s");
        EXPECT_EQ(got & 0xfff, (va - vb) & 0xfff);
        EXPECT_EQ((got >> 12) & 1, va >= vb ? 1u : 0u); // carry = no borrow
    }
}

TEST(Blocks, IncrementWraps)
{
    BlockFixture f;
    Bus a = f.input("a", 8);
    f.finish("y", increment(f.b, a));
    for (uint64_t v : {0ull, 1ull, 41ull, 254ull, 255ull})
        EXPECT_EQ(f.eval({{"a", v}}, "y"), (v + 1) & 0xff);
}

TEST(Blocks, ComparisonHelpers)
{
    BlockFixture f;
    Bus a = f.input("a", 10), b = f.input("b", 10);
    Bus out{is_zero(f.b, a), bus_eq(f.b, a, b), ult(f.b, a, b)};
    f.finish("y", out);

    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        uint64_t va = rng.next() & 0x3ff, vb = rng.next() & 0x3ff;
        if (i == 0)
            va = vb = 0;
        uint64_t got = f.eval({{"a", va}, {"b", vb}}, "y");
        EXPECT_EQ(got & 1, va == 0 ? 1u : 0u);
        EXPECT_EQ((got >> 1) & 1, va == vb ? 1u : 0u);
        EXPECT_EQ((got >> 2) & 1, va < vb ? 1u : 0u);
    }
}

struct ShiftCase
{
    uint64_t value;
    uint64_t amount;
};

class ShiftTest : public ::testing::TestWithParam<ShiftCase>
{
};

TEST_P(ShiftTest, RightShiftStickyMatches)
{
    auto [value, amount] = GetParam();
    BlockFixture f;
    Bus a = f.input("a", 16);
    Bus sh = f.input("sh", 5);
    ShiftResult r = shift_right_sticky(f.b, a, sh, f.b.const0());
    Bus out = r.out;
    out.push_back(r.sticky);
    f.finish("y", out);

    uint64_t got = f.eval({{"a", value}, {"sh", amount}}, "y");
    uint64_t expect_out = amount >= 16 ? 0 : (value >> amount);
    uint64_t lost_mask = amount >= 16 ? 0xffff : ((1ull << amount) - 1);
    uint64_t expect_sticky = (value & lost_mask) != 0;
    EXPECT_EQ(got & 0xffff, expect_out);
    EXPECT_EQ((got >> 16) & 1, expect_sticky);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShiftTest,
                         ::testing::Values(ShiftCase{0xffff, 0},
                                           ShiftCase{0xffff, 1},
                                           ShiftCase{0x8000, 15},
                                           ShiftCase{0x8001, 15},
                                           ShiftCase{0xabcd, 4},
                                           ShiftCase{0xabcd, 17},
                                           ShiftCase{0xabcd, 31},
                                           ShiftCase{0x0001, 1},
                                           ShiftCase{0x0000, 9}));

TEST(Blocks, ShiftLeftMatches)
{
    BlockFixture f;
    Bus a = f.input("a", 16);
    Bus sh = f.input("sh", 5);
    f.finish("y", shift_left(f.b, a, sh));

    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = rng.next() & 0xffff;
        uint64_t amount = rng.next() % 20;
        uint64_t expect = amount >= 16 ? 0 : ((va << amount) & 0xffff);
        EXPECT_EQ(f.eval({{"a", va}, {"sh", amount}}, "y"), expect);
    }
}

TEST(Blocks, ArithmeticRightShiftFillsSign)
{
    BlockFixture f;
    Bus a = f.input("a", 8);
    Bus sh = f.input("sh", 3);
    f.finish("y", shift_right_sticky(f.b, a, sh, a[7]).out);

    EXPECT_EQ(f.eval({{"a", 0x80}, {"sh", 3}}, "y"), 0xf0u);
    EXPECT_EQ(f.eval({{"a", 0x40}, {"sh", 3}}, "y"), 0x08u);
    EXPECT_EQ(f.eval({{"a", 0xff}, {"sh", 7}}, "y"), 0xffu);
}

TEST(Blocks, LeadingZeroCount)
{
    BlockFixture f;
    Bus a = f.input("a", 27);
    f.finish("y", leading_zero_count(f.b, a));

    auto expect_lzc = [](uint64_t v) {
        for (int i = 26; i >= 0; --i)
            if ((v >> i) & 1)
                return uint64_t(26 - i);
        return uint64_t(27);
    };
    Rng rng(5);
    std::vector<uint64_t> cases{0, 1, 1ull << 26, (1ull << 27) - 1, 0x12345};
    for (int i = 0; i < 100; ++i)
        cases.push_back(rng.next() & ((1ull << 27) - 1));
    for (uint64_t v : cases)
        EXPECT_EQ(f.eval({{"a", v}}, "y"), expect_lzc(v)) << v;
}

TEST(Blocks, MultiplyMatchesInteger)
{
    BlockFixture f;
    Bus a = f.input("a", 12), b = f.input("b", 12);
    f.finish("y", multiply(f.b, a, b));

    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = rng.next() & 0xfff, vb = rng.next() & 0xfff;
        EXPECT_EQ(f.eval({{"a", va}, {"b", vb}}, "y"), va * vb);
    }
    EXPECT_EQ(f.eval({{"a", 0xfff}, {"b", 0xfff}}, "y"),
              0xfffull * 0xfffull);
    EXPECT_EQ(f.eval({{"a", 0}, {"b", 0xfff}}, "y"), 0u);
}

TEST(Blocks, SelectPicksOption)
{
    BlockFixture f;
    Bus sel = f.input("sel", 2);
    std::vector<Bus> options;
    for (uint64_t v : {0x11ull, 0x22ull, 0x33ull})
        options.push_back(f.b.const_bus(8, v));
    f.finish("y", select(f.b, options, sel));

    EXPECT_EQ(f.eval({{"sel", 0}}, "y"), 0x11u);
    EXPECT_EQ(f.eval({{"sel", 1}}, "y"), 0x22u);
    EXPECT_EQ(f.eval({{"sel", 2}}, "y"), 0x33u);
    EXPECT_EQ(f.eval({{"sel", 3}}, "y"), 0x33u); // repeat-last padding
}

TEST(Blocks, ZextPadsWithZero)
{
    BlockFixture f;
    Bus a = f.input("a", 4);
    f.finish("y", zext(f.b, a, 8));
    EXPECT_EQ(f.eval({{"a", 0xf}}, "y"), 0x0fu);
}

} // namespace
} // namespace vega::rtl
