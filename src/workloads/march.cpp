#include "workloads/march.h"

#include "common/logging.h"
#include "common/rng.h"

namespace vega::workloads {

MarchAlgorithm
mats_plus()
{
    MarchAlgorithm alg;
    alg.name = "mats+";
    alg.elements = {
        {true, {MarchOp::W0}},
        {true, {MarchOp::R0, MarchOp::W1}},
        {false, {MarchOp::R1, MarchOp::W0}},
    };
    return alg;
}

MarchAlgorithm
march_cminus()
{
    MarchAlgorithm alg;
    alg.name = "march_c-";
    alg.elements = {
        {true, {MarchOp::W0}},
        {true, {MarchOp::R0, MarchOp::W1}},
        {true, {MarchOp::R1, MarchOp::W0}},
        {false, {MarchOp::R0, MarchOp::W1}},
        {false, {MarchOp::R1, MarchOp::W0}},
        {true, {MarchOp::R0}},
    };
    return alg;
}

runtime::TestCase
make_march_test(const MarchAlgorithm &alg, uint32_t rows)
{
    VEGA_CHECK(rows == runtime::kMemTestRows,
               "march tests target the ", runtime::kMemTestRows,
               "-row macro, got ", rows);
    runtime::TestCase tc;
    tc.name = alg.name;
    tc.module = ModuleKind::MemDec16;
    tc.config = alg.name;
    for (const MarchElement &el : alg.elements) {
        for (uint32_t i = 0; i < rows; ++i) {
            uint32_t row = el.up ? i : rows - 1 - i;
            for (MarchOp op : el.ops)
                tc.stimulus.push_back(
                    {row, 0, uint32_t(op), true, false});
        }
    }
    runtime::finalize_test_case(tc);
    return tc;
}

runtime::TestCase
make_random_march_test(uint32_t rows, size_t num_ops, uint64_t seed)
{
    VEGA_CHECK(rows == runtime::kMemTestRows,
               "march tests target the ", runtime::kMemTestRows,
               "-row macro, got ", rows);
    runtime::TestCase tc;
    tc.name = "random" + std::to_string(seed);
    tc.module = ModuleKind::MemDec16;
    tc.config = "random";

    // Initialize every row so reads have a known expectation, then mix
    // random writes and self-checking reads against the tracked model.
    std::vector<uint8_t> model(rows, 0);
    for (uint32_t r = 0; r < rows; ++r)
        tc.stimulus.push_back({r, 0, uint32_t(MarchOp::W0), true, false});
    for (size_t i = 0; i < num_ops; ++i) {
        uint32_t row = uint32_t(splitmix64(seed) % rows);
        uint64_t kind = splitmix64(seed) % 2;
        if (kind == 0) {
            uint8_t bg = uint8_t(splitmix64(seed) % 2);
            model[row] = bg;
            tc.stimulus.push_back(
                {row, 0,
                 uint32_t(bg ? MarchOp::W1 : MarchOp::W0), true, false});
        } else {
            tc.stimulus.push_back(
                {row, 0,
                 uint32_t(model[row] ? MarchOp::R1 : MarchOp::R0), true,
                 false});
        }
    }
    runtime::finalize_test_case(tc);
    return tc;
}

} // namespace vega::workloads
