#include "cpu/batch_backend.h"

#include <bit>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vega::cpu {

namespace {

int
lowest_lane(uint64_t mask)
{
    return __builtin_ctzll(mask);
}

/**
 * The D nets of the registers whose Qs drive output bus @p bus: their
 * settled planes are the bus value one clock edge ahead.
 */
std::vector<NetId>
next_state_nets(const Netlist &nl, const std::string &bus)
{
    std::vector<NetId> out;
    for (NetId q : nl.bus(bus)) {
        CellId reg = nl.net(q).driver;
        VEGA_CHECK(reg != kInvalidId && nl.cell(reg).type == CellType::Dff,
                   "output ", nl.net(q).name, " of ", nl.name(),
                   " is not a register Q");
        out.push_back(nl.cell(reg).in[0]);
    }
    return out;
}

} // namespace

BatchNetlistEngine::BatchNetlistEngine(ModuleKind kind,
                                       std::shared_ptr<const EvalTape> tape)
    : kind_(kind), sim_(std::move(tape)), rngs_(kLanes), results_(kLanes),
      cycles_(kLanes, 0), tag_mismatches_(kLanes, 0)
{
    VEGA_CHECK(kind == ModuleKind::Alu32 || kind == ModuleKind::Fpu32 ||
                   kind == ModuleKind::Mdu32,
               "batch engine supports alu32/fpu32/mdu32 modules");
    const Netlist &nl = sim_.netlist();
    a_nets_ = nl.bus("a");
    b_nets_ = nl.bus("b");
    op_nets_ = nl.bus("op");
    r_next_ = next_state_nets(nl, "r");
    a_planes_.assign(a_nets_.size(), 0);
    b_planes_.assign(b_nets_.size(), 0);
    op_planes_.assign(op_nets_.size(), 0);
    if (kind_ == ModuleKind::Fpu32) {
        flags_next_ = next_state_nets(nl, "flags");
        valid_net_ = nl.bus("valid")[0];
        clear_net_ = nl.bus("clear")[0];
        valid_out_next_ = next_state_nets(nl, "valid_out")[0];
        ack_next_ = next_state_nets(nl, "ack")[0];
        dbg_next_ = next_state_nets(nl, "dbg_out")[0];
    }
    if (nl.has_bus("fm_rand")) {
        has_random_input_ = true;
        rand_net_ = nl.bus("fm_rand")[0];
    }
    // reset() already zeroed every primary input — including valid and
    // clear, so an FPU starts idle.
}

void
BatchNetlistEngine::set_lane_bus(const std::string &bus, int lane,
                                 const BitVec &value)
{
    sim_.set_bus_lane(bus, lane, value);
}

void
BatchNetlistEngine::configure_lane_random(int lane, bool random,
                                          uint64_t seed)
{
    rngs_[size_t(lane)] = Rng(seed);
    if (random) {
        VEGA_CHECK(has_random_input_,
                   "random-fault lane needs an fm_rand input");
        random_mask_ |= uint64_t(1) << lane;
    } else {
        random_mask_ &= ~(uint64_t(1) << lane);
    }
}

void
BatchNetlistEngine::post_op(int lane, uint8_t op, uint32_t a, uint32_t b)
{
    uint64_t bit = uint64_t(1) << lane;
    participant_mask_ |= bit;
    op_mask_ |= bit;
    for (size_t i = 0; i < a_planes_.size(); ++i)
        a_planes_[i] = (a_planes_[i] & ~bit) | (uint64_t((a >> i) & 1) << lane);
    for (size_t i = 0; i < b_planes_.size(); ++i)
        b_planes_[i] = (b_planes_[i] & ~bit) | (uint64_t((b >> i) & 1) << lane);
    for (size_t i = 0; i < op_planes_.size(); ++i)
        op_planes_[i] =
            (op_planes_[i] & ~bit) | (uint64_t((op >> i) & 1) << lane);
}

void
BatchNetlistEngine::post_idle(int lane)
{
    participant_mask_ |= uint64_t(1) << lane;
}

void
BatchNetlistEngine::post_read_fflags(int lane)
{
    VEGA_CHECK(kind_ == ModuleKind::Fpu32, "fflags live in the FPU");
    uint64_t bit = uint64_t(1) << lane;
    participant_mask_ |= bit;
    read_mask_ |= bit;
}

void
BatchNetlistEngine::post_clear_fflags(int lane)
{
    VEGA_CHECK(kind_ == ModuleKind::Fpu32, "fflags live in the FPU");
    uint64_t bit = uint64_t(1) << lane;
    participant_mask_ |= bit;
    clear_mask_ |= bit;
}

void
BatchNetlistEngine::draw_rand(uint64_t lanes_mask, bool peek)
{
    if (rand_net_ == kInvalidId)
        return;
    for (uint64_t m = lanes_mask & random_mask_; m; m &= m - 1) {
        int lane = lowest_lane(m);
        uint64_t bit = uint64_t(1) << lane;
        Rng ahead = rngs_[size_t(lane)];
        uint64_t draw = (peek ? ahead : rngs_[size_t(lane)]).next() & 1;
        rand_plane_ = (rand_plane_ & ~bit) | (draw << lane);
    }
    sim_.set_input(rand_net_, rand_plane_);
}

void
BatchNetlistEngine::commit_round()
{
    // 1. Post the edge's inputs and fm_rand draws. Operand planes hold
    // for idle lanes; valid/clear pulse only in the lanes whose
    // transaction raises them, matching the reference protocol's input
    // discipline (tests/reference_fu.h).
    for (size_t i = 0; i < a_planes_.size(); ++i)
        sim_.set_input(a_nets_[i], a_planes_[i]);
    for (size_t i = 0; i < b_planes_.size(); ++i)
        sim_.set_input(b_nets_[i], b_planes_[i]);
    for (size_t i = 0; i < op_planes_.size(); ++i)
        sim_.set_input(op_nets_[i], op_planes_[i]);
    if (kind_ == ModuleKind::Fpu32) {
        sim_.set_input(valid_net_, op_mask_);
        sim_.set_input(clear_net_, clear_mask_);
    }
    draw_rand(participant_mask_, false);

    // ReadFflags lanes sample the sticky flags register one edge ahead
    // of the instruction's idle tick. A read lane's inputs and draw are
    // that tick's, so the flags registers' D planes are the value.
    if (read_mask_) {
        for (uint64_t m = read_mask_; m; m &= m - 1)
            results_[size_t(lowest_lane(m))] = {};
        for (size_t i = 0; i < flags_next_.size(); ++i) {
            uint64_t plane = sim_.value(flags_next_[i]);
            for (uint64_t m = read_mask_; m; m &= m - 1) {
                int lane = lowest_lane(m);
                results_[size_t(lane)].flags |=
                    uint8_t(bit_of(plane, lane) << i);
            }
        }
        for (uint64_t m = read_mask_; m; m &= m - 1)
            ++cycles_[size_t(lowest_lane(m))];
    }

    // 2. The one real edge. Lane-cycles that carry an episode are its
    // participants.
    sim_.step();
    static obs::Counter &lane_cycles = obs::counter("sim.lane_cycles");
    lane_cycles.add(uint64_t(std::popcount(participant_mask_)));
    if (kind_ == ModuleKind::Fpu32) {
        sim_.set_input(valid_net_, 0);
        sim_.set_input(clear_net_, 0);
    }
    for (uint64_t m = participant_mask_; m; m &= m - 1)
        ++cycles_[size_t(lowest_lane(m))];

    // 3. Op lanes read their results one edge ahead: the output
    // registers' D planes with the operands held, valid/clear low and
    // each random lane's next fm_rand draw, taken from a copy of its
    // RNG so the committed draw sequence does not move.
    if (op_mask_) {
        draw_rand(op_mask_, true);
        for (uint64_t m = op_mask_; m; m &= m - 1)
            results_[size_t(lowest_lane(m))] = {};
        for (size_t i = 0; i < r_next_.size(); ++i) {
            uint64_t plane = sim_.value(r_next_[i]);
            for (uint64_t m = op_mask_; m; m &= m - 1) {
                int lane = lowest_lane(m);
                results_[size_t(lane)].value |=
                    uint32_t(bit_of(plane, lane)) << i;
            }
        }
        if (kind_ == ModuleKind::Fpu32) {
            std::vector<uint64_t> flag_planes(flags_next_.size());
            for (size_t i = 0; i < flags_next_.size(); ++i)
                flag_planes[i] = sim_.value(flags_next_[i]);
            uint64_t valid_plane = sim_.value(valid_out_next_);
            uint64_t ack_plane = sim_.value(ack_next_);
            uint64_t dbg_plane = sim_.value(dbg_next_);
            for (uint64_t m = op_mask_; m; m &= m - 1) {
                int lane = lowest_lane(m);
                uint64_t bit = uint64_t(1) << lane;
                FuResult &res = results_[size_t(lane)];
                for (size_t i = 0; i < flags_next_.size(); ++i)
                    res.flags |= uint8_t(bit_of(flag_planes[i], lane) << i);
                res.stalled = !(bit_of(valid_plane, lane) &&
                                bit_of(ack_plane, lane));
                // dbg_out lags the tag toggle by one stage: this peek
                // shows the parity of ops issued strictly before.
                bool dbg = bit_of(dbg_plane, lane) != 0;
                bool expected = (expected_tag_mask_ & bit) != 0;
                if (dbg != expected)
                    ++tag_mismatches_[size_t(lane)];
                expected_tag_mask_ ^= bit;
            }
        }
        for (uint64_t m = op_mask_; m; m &= m - 1)
            ++cycles_[size_t(lowest_lane(m))];
    }

    participant_mask_ = op_mask_ = read_mask_ = clear_mask_ = 0;
}

} // namespace vega::cpu
