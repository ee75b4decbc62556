#include "sim/batch_sim.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace vega {

namespace {

obs::Counter &
batch_cycles_counter()
{
    static obs::Counter &c = obs::counter("sim.batch_cycles");
    return c;
}

obs::Counter &
batch_evals_counter()
{
    static obs::Counter &c = obs::counter("sim.batch_evals");
    return c;
}

obs::Counter &
batch_input_evals_counter()
{
    static obs::Counter &c = obs::counter("sim.batch_input_evals");
    return c;
}

} // namespace

BatchSimulator::BatchSimulator(const Netlist &nl)
    : BatchSimulator(std::make_shared<const EvalTape>(nl))
{
}

BatchSimulator::BatchSimulator(std::shared_ptr<const EvalTape> tape)
    : tape_(std::move(tape))
{
    VEGA_CHECK(tape_ != nullptr, "BatchSimulator needs a tape");
    planes_.assign(tape_->num_slots(), 0);
    dff_next_.assign(tape_->dff_rules().size(), 0);
    reset();
}

void
BatchSimulator::reset()
{
    std::fill(planes_.begin(), planes_.end(), 0);
    for (const EvalTape::DffRule &r : tape_->dff_rules())
        planes_[r.q] = r.init ? ~uint64_t(0) : 0;
    cycle_ = 0;
    settle_all_ = true;
}

void
BatchSimulator::set_input(NetId net, uint64_t lanes)
{
    VEGA_CHECK(tape_->is_primary_input(net), "set_input on non-input net ",
               netlist().net(net).name);
    set_input_slot(tape_->slot(net), lanes);
}

const std::vector<SlotId> &
BatchSimulator::input_bus_slots(const std::string &bus, size_t width) const
{
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    VEGA_CHECK(slots.size() == width, "bus width mismatch on ", bus);
    for (SlotId s : slots)
        VEGA_CHECK(s < tape_->num_inputs(), "bus ", bus,
                   " is not a primary input bus of ", netlist().name());
    return slots;
}

void
BatchSimulator::set_bus_lane(const std::string &bus, int lane,
                             const BitVec &value)
{
    const std::vector<SlotId> &slots = input_bus_slots(bus, value.width());
    VEGA_CHECK(lane >= 0 && lane < kLanes, "lane out of range");
    uint64_t bit = uint64_t(1) << lane;
    for (size_t i = 0; i < slots.size(); ++i) {
        if (value.get(i))
            planes_[slots[i]] |= bit;
        else
            planes_[slots[i]] &= ~bit;
    }
    settle_inputs_ = true;
}

void
BatchSimulator::set_bus_all(const std::string &bus, const BitVec &value)
{
    const std::vector<SlotId> &slots = input_bus_slots(bus, value.width());
    for (size_t i = 0; i < slots.size(); ++i)
        planes_[slots[i]] = value.get(i) ? ~uint64_t(0) : 0;
    settle_inputs_ = true;
}

void
BatchSimulator::settle_pending()
{
    if (settle_all_) {
        batch_evals_counter().inc();
        for (const EvalTape::ConstRule &r : tape_->const_rules())
            planes_[r.slot] = r.value ? ~uint64_t(0) : 0;
        settle(0);
    } else if (settle_inputs_) {
        batch_input_evals_counter().inc();
        settle(tape_->first_input_run());
    }
    settle_all_ = settle_inputs_ = false;
}

void
BatchSimulator::settle(size_t first_run)
{
    uint64_t *v = planes_.data();
    const SlotId *i0 = tape_->in0().data();
    const SlotId *i1 = tape_->in1().data();
    const SlotId *i2 = tape_->in2().data();
    uint64_t *o = v + tape_->first_out_slot();
    const std::vector<EvalTape::Run> &runs = tape_->runs();
    for (size_t r = first_run; r < runs.size(); ++r) {
        const size_t end = runs[r].end;
        size_t i = runs[r].begin;
        switch (runs[r].op) {
          case CellType::Buf:
            for (; i < end; ++i)
                o[i] = v[i0[i]];
            break;
          case CellType::Not:
            for (; i < end; ++i)
                o[i] = ~v[i0[i]];
            break;
          case CellType::And2:
            for (; i < end; ++i)
                o[i] = v[i0[i]] & v[i1[i]];
            break;
          case CellType::Or2:
            for (; i < end; ++i)
                o[i] = v[i0[i]] | v[i1[i]];
            break;
          case CellType::Xor2:
            for (; i < end; ++i)
                o[i] = v[i0[i]] ^ v[i1[i]];
            break;
          case CellType::Nand2:
            for (; i < end; ++i)
                o[i] = ~(v[i0[i]] & v[i1[i]]);
            break;
          case CellType::Nor2:
            for (; i < end; ++i)
                o[i] = ~(v[i0[i]] | v[i1[i]]);
            break;
          case CellType::Xnor2:
            for (; i < end; ++i)
                o[i] = ~(v[i0[i]] ^ v[i1[i]]);
            break;
          case CellType::Mux2:
            for (; i < end; ++i) {
                uint64_t s = v[i2[i]];
                o[i] = (v[i0[i]] & ~s) | (v[i1[i]] & s);
            }
            break;
          case CellType::Const0:
          case CellType::Const1:
          case CellType::Dff:
            panic("non-combinational opcode in tape stream");
        }
    }
}

void
BatchSimulator::step()
{
    eval();
    const std::vector<EvalTape::DffRule> &dffs = tape_->dff_rules();
    for (size_t i = 0; i < dffs.size(); ++i)
        dff_next_[i] = planes_[dffs[i].d];
    for (size_t i = 0; i < dffs.size(); ++i)
        planes_[dffs[i].q] = dff_next_[i];
    ++cycle_;
    batch_cycles_counter().inc();
    settle_all_ = true;
}

void
BatchSimulator::run(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        step();
}

BitVec
BatchSimulator::bus_value(const std::string &bus, int lane)
{
    eval();
    VEGA_CHECK(lane >= 0 && lane < kLanes, "lane out of range");
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    BitVec v(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        v.set(i, (planes_[slots[i]] >> lane) & 1);
    return v;
}

std::vector<uint64_t>
BatchSimulator::bus_planes(const std::string &bus)
{
    eval();
    const std::vector<SlotId> &slots = tape_->bus_slots(bus);
    std::vector<uint64_t> out(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        out[i] = planes_[slots[i]];
    return out;
}

void
BatchSimulator::restore_state(const std::vector<uint64_t> &state)
{
    VEGA_CHECK(state.size() == tape_->num_slots(),
               "restore_state plane count ", state.size(),
               " does not match netlist ", netlist().name(), " (",
               tape_->num_slots(), " slots)");
    planes_ = state;
    settle_all_ = true;
}

} // namespace vega
