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

/** The value slots of input bus @p bus, at most @p max_width wide. */
std::vector<SlotId>
input_slots(const EvalTape &tape, const std::string &bus, size_t max_width)
{
    const std::vector<SlotId> &slots = tape.bus_slots(bus);
    VEGA_CHECK(slots.size() <= max_width, "input ", bus, " of ",
               tape.netlist().name(), " is wider than ", max_width, " bits");
    for (SlotId s : slots)
        VEGA_CHECK(s < tape.num_inputs(), "bus ", bus, " of ",
                   tape.netlist().name(), " is not a primary input");
    return slots;
}

/**
 * The value slots of the D nets of the registers whose Qs drive output
 * bus @p bus: their settled planes are the bus value one clock edge
 * ahead.
 */
std::vector<SlotId>
next_state_slots(const EvalTape &tape, const std::string &bus)
{
    const Netlist &nl = tape.netlist();
    std::vector<SlotId> out;
    for (NetId q : nl.bus(bus)) {
        CellId reg = nl.net(q).driver;
        VEGA_CHECK(reg != kInvalidId && nl.cell(reg).type == CellType::Dff,
                   "output ", nl.net(q).name, " of ", nl.name(),
                   " is not a register Q");
        out.push_back(tape.slot(nl.cell(reg).in[0]));
    }
    return out;
}

/**
 * Set lane @p bit of operand @p planes to @p value by flipping only the
 * planes whose bit differs from the lane's @p held operand.
 */
void
post_operand(std::vector<uint64_t> &planes, uint32_t &held, uint32_t value,
             uint64_t bit)
{
    if (planes.size() < 32)
        value &= (uint32_t(1) << planes.size()) - 1;
    for (uint32_t diff = held ^ value; diff; diff &= diff - 1)
        planes[size_t(__builtin_ctz(diff))] ^= bit;
    held = value;
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
    // Every slot the rounds touch is resolved and checked here, once.
    const EvalTape &t = sim_.tape();
    a_slots_ = input_slots(t, "a", 32);
    b_slots_ = input_slots(t, "b", 32);
    op_slots_ = input_slots(t, "op", 8);
    r_next_ = next_state_slots(t, "r");
    VEGA_CHECK(r_next_.size() <= 32, "result bus wider than 32 bits");
    a_planes_.assign(a_slots_.size(), 0);
    b_planes_.assign(b_slots_.size(), 0);
    op_planes_.assign(op_slots_.size(), 0);
    if (kind_ == ModuleKind::Fpu32) {
        flags_next_ = next_state_slots(t, "flags");
        VEGA_CHECK(flags_next_.size() <= 8, "flags bus wider than 8 bits");
        valid_slot_ = input_slots(t, "valid", 1).at(0);
        clear_slot_ = input_slots(t, "clear", 1).at(0);
        valid_out_next_ = next_state_slots(t, "valid_out").at(0);
        ack_next_ = next_state_slots(t, "ack").at(0);
        dbg_next_ = next_state_slots(t, "dbg_out").at(0);
    }
    if (t.netlist().has_bus("fm_rand")) {
        has_random_input_ = true;
        rand_slot_ = input_slots(t, "fm_rand", 1).at(0);
    }
    // reset() already zeroed every primary input — including valid and
    // clear, so an FPU starts idle — and the held operands match.
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
    post_operand(a_planes_, held_a_[size_t(lane)], a, bit);
    post_operand(b_planes_, held_b_[size_t(lane)], b, bit);
    post_operand(op_planes_, held_op_[size_t(lane)], op, bit);
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
    if (!has_random_input_)
        return;
    for (uint64_t m = lanes_mask & random_mask_; m; m &= m - 1) {
        int lane = lowest_lane(m);
        uint64_t bit = uint64_t(1) << lane;
        Rng ahead = rngs_[size_t(lane)];
        uint64_t draw = (peek ? ahead : rngs_[size_t(lane)]).next() & 1;
        rand_plane_ = (rand_plane_ & ~bit) | (draw << lane);
    }
    sim_.set_input_slot(rand_slot_, rand_plane_);
}

void
BatchNetlistEngine::commit_round()
{
    // 1. Post the edge's inputs and fm_rand draws. Operand planes hold
    // for idle lanes; valid/clear pulse only in the lanes whose
    // transaction raises them, matching the reference protocol's input
    // discipline (tests/reference_fu.h).
    for (size_t i = 0; i < a_planes_.size(); ++i)
        sim_.set_input_slot(a_slots_[i], a_planes_[i]);
    for (size_t i = 0; i < b_planes_.size(); ++i)
        sim_.set_input_slot(b_slots_[i], b_planes_[i]);
    for (size_t i = 0; i < op_planes_.size(); ++i)
        sim_.set_input_slot(op_slots_[i], op_planes_[i]);
    if (kind_ == ModuleKind::Fpu32) {
        sim_.set_input_slot(valid_slot_, op_mask_);
        sim_.set_input_slot(clear_slot_, clear_mask_);
    }
    draw_rand(participant_mask_, false);

    // ReadFflags lanes sample the sticky flags register one edge ahead
    // of the instruction's idle tick. A read lane's inputs and draw are
    // that tick's, so the flags registers' D planes are the value.
    if (read_mask_) {
        for (uint64_t m = read_mask_; m; m &= m - 1)
            results_[size_t(lowest_lane(m))] = {};
        for (size_t i = 0; i < flags_next_.size(); ++i) {
            uint64_t plane = sim_.slot_value(flags_next_[i]);
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
        sim_.set_input_slot(valid_slot_, 0);
        sim_.set_input_slot(clear_slot_, 0);
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
            uint64_t plane = sim_.slot_value(r_next_[i]);
            for (uint64_t m = op_mask_; m; m &= m - 1) {
                int lane = lowest_lane(m);
                results_[size_t(lane)].value |=
                    uint32_t(bit_of(plane, lane)) << i;
            }
        }
        if (kind_ == ModuleKind::Fpu32) {
            for (size_t i = 0; i < flags_next_.size(); ++i) {
                uint64_t plane = sim_.slot_value(flags_next_[i]);
                for (uint64_t m = op_mask_; m; m &= m - 1) {
                    int lane = lowest_lane(m);
                    results_[size_t(lane)].flags |=
                        uint8_t(bit_of(plane, lane) << i);
                }
            }
            uint64_t valid_plane = sim_.slot_value(valid_out_next_);
            uint64_t ack_plane = sim_.slot_value(ack_next_);
            uint64_t dbg_plane = sim_.slot_value(dbg_next_);
            for (uint64_t m = op_mask_; m; m &= m - 1) {
                int lane = lowest_lane(m);
                uint64_t bit = uint64_t(1) << lane;
                FuResult &res = results_[size_t(lane)];
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
